"""Every name a module exports through ``__all__`` must exist, so a helper
deleted from a module cannot stay behind in its export list; and every
name a module imports at module level must be used or exported, so an
import cannot outlive the code that needed it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pvkit


def _modules():
    names = ["pvkit"]
    names += [info.name for info in pkgutil.walk_packages(
        pvkit.__path__, prefix="pvkit.") if info.name != "pvkit.__main__"]
    return names


@pytest.mark.parametrize("name", _modules())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert missing == []


def _sources():
    root = Path(pvkit.__file__).parent
    return sorted(str(path.relative_to(root)) for path in root.rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by the module-level imports of ``tree`` that no
    expression reads and ``__all__`` does not list."""
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used | exported]


@pytest.mark.parametrize("source", _sources())
def test_every_module_level_import_is_used(source):
    path = Path(pvkit.__file__).parent / source
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom math import gcd, lcm as l\n"
                     "__all__ = ['l']\nprint(os)\n")
    assert _unused_imports(tree) == ["gcd"]
