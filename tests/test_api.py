"""The public names of the package stay consistent.

Tools that walk ``__all__`` (the benchmark's tracer calls ``getattr`` on
every name) break on a stale entry, so every listed name must resolve, and
everything the package re-exports must be listed where it is defined.
"""

import ast
import importlib
import inspect
import math
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


def _parsed(*dirs):
    root = Path(__file__).resolve().parents[1]
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            yield path.relative_to(root), ast.parse(path.read_text(encoding="utf-8"))


def test_every_default_parameter_is_passed_by_some_call():
    # a default that no call overrides is a constant with an option's cost;
    # calls are matched by the callee's name, a class call reaching __init__
    defaults = []
    for path, tree in _parsed("src"):
        for cls in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for fn in ast.iter_child_nodes(cls):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = cls.name if fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
                first = len(positional) - len(fn.args.defaults)
                for i in range(first, len(positional)):
                    defaults.append((f"{path}:{fn.name}", name, positional[i].arg, i - skip))
                for arg, value in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if value is not None:
                        defaults.append((f"{path}:{fn.name}", name, arg.arg, None))
    keywords = set()  # (callee, keyword), with None for **kwargs
    most_positional: dict = {}  # callee -> most positional arguments in one call
    for _, tree in _parsed("src", "tests", "bench"):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            keywords.update((callee, kw.arg) for kw in call.keywords)
            count = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            most_positional[callee] = max(count, most_positional.get(callee, 0))
    never = [
        f"{where}({arg})"
        for where, name, arg, index in defaults
        if not (index is not None and most_positional.get(name, 0) > index)
        and (name, arg) not in keywords
        and (name, None) not in keywords
    ]
    assert not never, f"default parameters that no call passes: {never}"
