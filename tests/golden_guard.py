"""Check that a golden-output file keeps every case of an earlier one.

    python tests/golden_guard.py BASE.json [HEAD.json]

HEAD.json defaults to tests/golden_outputs.json.  Exits 1, listing what is
missing, unless every scenario of BASE.json is in HEAD.json under the same
name with the same document, and every `cli` and `zoo` case of BASE.json
is in HEAD.json unchanged.  New cases may be added; none may be dropped
or re-recorded, so a change cannot pass the replay by rewriting what it
replays.
"""

import json
import os
import sys


def missing_cases(base: dict, head: dict) -> list[str]:
    out = [
        f"scenario {name!r}"
        for name, doc in base["scenarios"].items()
        if head["scenarios"].get(name) != doc
    ]
    for key in ("cli", "zoo"):
        kept = {json.dumps(case, sort_keys=True) for case in head[key]}
        out += [
            f"{key} case {k}" for k, case in enumerate(base[key]) if json.dumps(case, sort_keys=True) not in kept
        ]
    return out


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        sys.stderr.write(__doc__)
        return 2
    head_path = argv[1] if len(argv) == 2 else os.path.join(os.path.dirname(__file__), "golden_outputs.json")
    files = []
    for path in (argv[0], head_path):
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    missing = missing_cases(*files)
    for line in missing:
        print(f"missing or changed: {line}")
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
