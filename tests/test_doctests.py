"""Run the docstring examples shipped inside the package: every module
whose source holds a ``>>>`` example, found by scanning the package
directory."""

import doctest
import importlib
import os

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)


def _has_examples(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ">>>" in fh.read()


MODULES = sorted(
    f"curvegkz.{name[:-3]}" for name in os.listdir(PACKAGE) if name.endswith(".py") and _has_examples(name)
)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    # a module with a ">>>" in its source runs at least one worked example
    assert result.attempted > 0
