"""The public names of the package stay consistent.

Tools that walk ``__all__`` (the benchmark's tracer calls ``getattr`` on
every name) break on a stale entry, so every listed name must resolve, and
everything the package re-exports must be listed where it is defined.
"""

import ast
import importlib
import inspect
import pkgutil

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
