"""Run the examples in the docstrings of every ``abhomotopy`` module."""

import doctest
import importlib
import pkgutil

import pytest

import abhomotopy

MODULES = sorted(m.name for m in pkgutil.iter_modules(abhomotopy.__path__, "abhomotopy."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_doctests_are_collected():
    attempted = sum(
        doctest.testmod(importlib.import_module(name), verbose=False).attempted
        for name in MODULES
    )
    assert attempted >= 8
