"""Every public name the package declares resolves.

``from roast.<module> import *`` and readers of ``__all__`` trust each listed
name; a name deleted from a module but left in its ``__all__`` fails only
when someone star-imports it.
"""

import ast
import importlib
import pkgutil

import pytest

import roast

MODULES = sorted(info.name for info in pkgutil.iter_modules(roast.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"roast.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    with open(roast.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(f"roast.{node.module}", alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [(source, name) for source, name in imported
               if not (hasattr(importlib.import_module(source), name)
                       and hasattr(roast, name))]
    assert missing == []
