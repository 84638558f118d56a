"""Runtime checks must survive ``python -O``, which strips ``assert``
statements.  The modules listed here raise their errors explicitly; this
test keeps bare asserts from coming back into them."""

import ast
import os

import pytest

import curvegkz

CHECKED = ["curve.py", "cohomology.py", "series.py", "report.py", "cli.py", "toric.py", "qexact.py"]


@pytest.mark.parametrize("name", CHECKED)
def test_no_bare_assert(name):
    path = os.path.join(os.path.dirname(curvegkz.__file__), name)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert in {name} at lines {lines}"
