"""Run the docstring examples shipped inside the package modules."""

import doctest

import pytest

import curvegkz.cohomology
import curvegkz.curve
import curvegkz.qexact
import curvegkz.series
import curvegkz.toric

MODULES = [
    curvegkz.qexact,
    curvegkz.curve,
    curvegkz.toric,
    curvegkz.series,
    curvegkz.cohomology,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    # every listed module carries at least one worked example
    assert result.attempted > 0
