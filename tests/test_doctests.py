"""Run the docstring examples shipped inside the package: every module
whose source holds a ``>>>`` example, found by scanning the package
directory.  The README's library example runs too, so that a public name
it uses cannot go without the example following."""

import doctest
import importlib
import os
import re

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


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


def test_readme_library_usage(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^## Library usage\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "series" in capsys.readouterr().out
