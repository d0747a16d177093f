"""Every public name the package declares resolves, and has a caller.

``from roast.<module> import *`` and readers of ``__all__`` trust each listed
name; a name deleted from a module but left in its ``__all__`` fails only
when someone star-imports it.  A name the package exports that nothing in
``src/roast`` or the benchmark reads is code only the tests keep alive.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import roast

MODULES = sorted(info.name for info in pkgutil.iter_modules(roast.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"roast.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


# Exported with no caller in the package or the benchmark, on purpose.
UNCALLED_EXPORTS = set()


def _package_imports():
    """(source module, name) of each name ``roast/__init__.py`` imports."""
    tree = ast.parse(pathlib.Path(roast.__file__).read_text(encoding="utf-8"))
    return [(f"roast.{node.module}", alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_every_name_the_package_imports_resolves():
    imported = _package_imports()
    assert imported
    missing = [(source, name) for source, name in imported
               if not (hasattr(importlib.import_module(source), name)
                       and hasattr(roast, name))]
    assert missing == []


def test_every_export_has_a_caller():
    # a use in a module of src/roast other than __init__.py, outside the
    # name's own top-level definition (a name or an attribute, not a string
    # such as an __all__ entry), or any mention in the benchmark's modules,
    # whose layer hooks name functions in strings
    package = pathlib.Path(roast.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else own)
                if name != own:
                    used.add(name)
    bench = package.parents[1] / "perfbench"
    bench_text = "\n".join(path.read_text(encoding="utf-8")
                           for path in bench.glob("*.py")
                           if not path.name.startswith("test_"))
    uncalled = {name for _, name in _package_imports() if name not in used
                and not re.search(rf"\b{name}\b", bench_text)}
    assert uncalled == UNCALLED_EXPORTS
