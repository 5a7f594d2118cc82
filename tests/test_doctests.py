"""The ``>>>`` examples in pvkit docstrings run as tests."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import pvkit

# ``pvkit.__main__`` runs the CLI on import
MODULES = sorted(info.name for info in pkgutil.walk_packages(
    pvkit.__path__, "pvkit.") if info.name != "pvkit.__main__")


def _examples(module) -> int:
    finder = doctest.DocTestFinder()
    return sum(len(test.examples) for test in finder.find(module))


def test_the_modules_with_examples_are_found():
    with_examples = {name for name in MODULES
                     if _examples(importlib.import_module(name))}
    assert {"pvkit.arith.cyclo", "pvkit.arith.ops",
            "pvkit.solve"} <= with_examples


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
