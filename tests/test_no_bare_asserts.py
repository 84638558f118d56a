"""Runtime checks must survive ``python -O``, which strips ``assert``
statements.  Every module of the package raises its errors explicitly;
this test keeps bare asserts from coming back into any of them."""

import ast
import os

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
CHECKED = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


@pytest.mark.parametrize("name", CHECKED)
def test_no_bare_assert(name):
    path = os.path.join(PACKAGE, name)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert in {name} at lines {lines}"
