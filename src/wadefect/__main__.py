"""Run the command line as ``python -m wadefect``; see :mod:`wadefect.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
