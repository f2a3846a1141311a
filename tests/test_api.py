"""The public names of the package stay consistent.

Tools that walk ``__all__`` (the benchmark's tracer calls ``getattr`` on
every name) break on a stale entry, so every listed name must resolve, and
everything the package re-exports must be listed where it is defined.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import wadefect


def submodules():
    return [importlib.import_module(f"wadefect.{info.name}") for info in pkgutil.iter_modules(wadefect.__path__)]


def test_every_all_name_resolves():
    for mod in [wadefect] + submodules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists {name!r}, which is not defined"


def test_package_imports_only_listed_names():
    tree = ast.parse(inspect.getsource(wadefect))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"wadefect.{node.module}")
        for alias in node.names:
            assert alias.name in source.__all__, f"wadefect imports {alias.name!r}, not in {source.__name__}.__all__"


def readme_library_example():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs_and_gives_the_stated_results():
    # each bare expression of the example states its value in a comment,
    # "# Z/2, via ..."; a deleted export fails the exec
    code = readme_library_example()
    namespace = {}
    exec(code, namespace)
    lines = code.splitlines()
    checked = 0
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            stated = lines[node.lineno - 1].partition("#")[2].split(",")[0].strip()
            assert str(eval(ast.get_source_segment(code, node), namespace)) == stated
            checked += 1
    assert checked == 3
