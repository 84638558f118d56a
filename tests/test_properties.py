"""Property tests: on random admissible matrices (n <= 5, k <= 7) the
semigroup-table answers of the library agree with the search oracles of
``oracles.py``.  Examples are derandomized so every run checks the same
matrices.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import h1_support_by_search, in_NA_bfs, in_NA_brute, in_ray_module_by_shift

from curvegkz.cohomology import h1_support, in_ray_module
from curvegkz.curve import (
    FACET_0,
    FACET_K,
    CurveMatrix,
    in_NA,
    rank_jumping_parameters,
    _default_jump_box,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)


@st.composite
def exponent_lists(draw):
    k = draw(st.integers(1, 7))
    middle = draw(st.sets(st.integers(1, k - 1), max_size=3)) if k > 1 else set()
    return [0, *sorted(middle), k]


matrices = exponent_lists().filter(lambda exps: gcd(*exps[1:]) == 1).map(CurveMatrix)


@PROPERTY
@given(matrices)
def test_in_NA_matches_oracles(A):
    for b1 in range(-1, 4):
        for b2 in range(-2, A.k * b1 + 3 if b1 >= 0 else 3):
            got = in_NA(A, (b1, b2))
            assert got == in_NA_brute(A, b1, b2) == in_NA_bfs(A, b1, b2), (A, b1, b2)


@PROPERTY
@given(matrices)
def test_in_ray_module_matches_shift_search(A):
    for a1 in range(-3, 7):
        for a2 in range(-5, 26):
            for ray in (FACET_0, FACET_K):
                got = in_ray_module(A, (a1, a2), ray)
                assert got == in_ray_module_by_shift(A, (a1, a2), ray), (A, a1, a2, ray)


@PROPERTY
@given(matrices)
def test_rank_jumps_and_h1_support_match_search_sweep(A):
    expected = h1_support_by_search(A, _default_jump_box(A))
    assert rank_jumping_parameters(A) == expected
    assert h1_support(A) == expected


def _search_jumps(A):
    return h1_support_by_search(A, _default_jump_box(A))


@PROPERTY
@given(matrices.filter(_search_jumps), st.data())
def test_rank_jumps_and_h1_support_match_search_on_random_boxes(A, data):
    # a box around one jump, each side from inside to well outside it, so
    # boxes clip the exceptional set, miss it, or reach negative degrees
    b1, b2 = data.draw(st.sampled_from(_search_jumps(A)))
    side1, side2 = st.integers(-2, 4), st.integers(-3, 12)
    box = (
        b1 - data.draw(side1),
        b1 + data.draw(side1),
        b2 - data.draw(side2),
        b2 + data.draw(side2),
    )
    expected = h1_support_by_search(A, box)
    assert rank_jumping_parameters(A, box) == expected
    assert h1_support(A, box) == expected
