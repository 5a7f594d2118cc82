"""Every name a module exports through ``__all__`` must exist, so a helper
deleted from a module cannot stay behind in its export list."""

import importlib
import pkgutil

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
