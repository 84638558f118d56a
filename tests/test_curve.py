"""Combinatorics of the exponent matrix: semigroups, membership, the
exceptional parameter set, and the line arrangements.

Frozen sets below were produced by the brute-force oracles (in this file
and in ``oracles.py``) before being inlined, so each value is covered by
two independent routes.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from oracles import h1_support_by_search, in_NA_brute

import curvegkz
from curvegkz.cohomology import h1_support
from curvegkz.curve import (
    FACET_0,
    SEMIGROUP_CACHE_SIZE,
    FACET_K,
    CurveMatrix,
    NumericalSemigroup,
    ResonantLine,
    delta_conditions,
    facet_semigroup,
    in_NA,
    in_convergence_domain,
    is_rank_jumping,
    is_resonant,
    polar_lines,
    rank,
    rank_jumping_parameters,
    resonant_lines,
)
from curvegkz.errors import MatrixValidationError

A0134 = CurveMatrix([0, 1, 3, 4])
A0145 = CurveMatrix([0, 1, 4, 5])
A023 = CurveMatrix([0, 2, 3])


@pytest.mark.parametrize(
    "exps,reason",
    [
        ([0], "too-short"),
        ([1, 3, 4], "first-not-zero"),
        ([0, 4, 3], "non-monotone"),
        ([0, 3, 3], "non-monotone"),
        ([0, 2, 4], "gcd"),
    ],
)
def test_matrix_validation_rejects(exps, reason):
    with pytest.raises(MatrixValidationError) as info:
        CurveMatrix(exps)
    assert info.value.reason == reason


def test_matrix_validation_type():
    with pytest.raises(TypeError):
        CurveMatrix([0, 1.5, 3])


def test_matrix_validation_rejects_bool():
    # bool is a subclass of int, so True would otherwise pass for 1
    with pytest.raises(TypeError, match="exponents must be integers"):
        CurveMatrix([0, True])


def test_matrix_basics():
    assert A0134.n == 4 and A0134.k == 4
    assert A0134.columns == ((1, 0), (1, 1), (1, 3), (1, 4))
    assert A0134.degree((1, 0, 2, 0)) == (3, 6)
    with pytest.raises(AttributeError):
        A0134.k = 5
    # 0,3,4 is admissible even though 3 does not divide 4
    assert CurveMatrix([0, 3, 4]).k == 4


def test_numerical_semigroup_known_values():
    S = NumericalSemigroup((3, 4))
    assert S.frobenius == 5
    assert S.gaps == (1, 2, 5)
    assert S.min_parts(12) == 3  # 4+4+4 beats 3+3+3+3
    assert S.min_parts(7) == 2
    assert S.min_parts(0) == 0
    assert S.min_parts(5) is None
    full = NumericalSemigroup((1,))
    assert full.frobenius == -1 and full.gaps == ()


def test_max_parts_reads_the_floor_after_pruning():
    # about the least generator a pair of more parts can bound one of fewer:
    # in <4, 5, 102>, 5 + 5 = (10, 2) bounds 102 = (102, 98), so 102 is
    # 5 + 5 + 23 * 4 and not 102 alone; in <3, 5, 10>, 5 + 5 = (10, 4)
    # bounds 10 = (10, 7), a pair of the same first entry
    S = NumericalSemigroup((4, 5, 102))
    assert S.max_parts(102) == 25
    assert S._floor[2] == [(10, 2)]
    T = NumericalSemigroup((3, 5, 10))
    assert T.max_parts(10) == 2
    assert T._floor[1] == [(10, 4)]
    assert [T.max_parts(m) for m in (-3, 0, 1, 7, 13)] == [None, 0, None, None, 3]


def test_membership_above_frobenius_needs_no_table():
    S = NumericalSemigroup((3, 5))
    assert 10**7 in S
    assert S.gaps == (1, 2, 4, 7)
    # membership reads the Apery set of 3 alone; the staircase of <3, 5>
    # has one pair per class, 3p for p < 5
    assert "_staircase" not in vars(S)
    assert sum(map(len, S._staircase)) == 5
    # b2 lies above the facet-k Frobenius number and k*b1 - b2 < 0, so the
    # answer needs nothing that grows with b2
    assert not is_rank_jumping(A0134, (1, 2 * 10**6))
    assert facet_semigroup(A0134, FACET_K)._staircase == [[(0, 0)], [(1, 3)], [(2, 6), (6, 2)], [(3, 1)]]


def test_least_parts_table_stops_at_its_period():
    # a minimal pair of the staircase has at most g - 1 parts, so its first
    # entries stop at (g - 1) * g' and none reaches b2 = 2 * 10**6
    beta = (10**6, 2 * 10**6)
    assert in_NA(A0134, beta)
    assert not is_rank_jumping(A0134, beta)
    assert facet_semigroup(A0134, FACET_K).min_parts(2 * 10**6) == 5 * 10**5
    for facet in (FACET_0, FACET_K):
        S = facet_semigroup(A0134, facet)
        assert sum(map(len, S._staircase)) == 5, facet
        assert max(x for pairs in S._staircase for x, _ in pairs) <= (S.gens[-1] - 1) * S.gens[-2], facet


def test_numerical_semigroup_membership_brute():
    gens = (4, 7, 9)
    S = NumericalSemigroup(gens)
    for m in range(40):
        brute = any(
            sum(c * g for c, g in zip(cs, gens)) == m
            for cs in itertools.product(range(11), repeat=3)
        )
        assert (m in S) == brute, m


def test_checks_survive_optimized_mode():
    # python -O strips assert statements; input checks must still raise
    code = (
        "from curvegkz.curve import CurveMatrix, NumericalSemigroup\n"
        "print(__debug__)\n"
        "for check in (lambda: NumericalSemigroup((2, 4)),\n"
        "              lambda: NumericalSemigroup((0, 1)),\n"
        "              lambda: CurveMatrix([0, 1, 3, 4]).degree((1, 2))):\n"
        "    try:\n"
        "        check()\n"
        "        print('accepted')\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "ValueError", "ValueError", "ValueError"]


def test_facet_semigroups():
    assert facet_semigroup(A0134, FACET_0).gens == (1, 3, 4)
    assert facet_semigroup(A0134, FACET_K).gens == (1, 3, 4)
    assert facet_semigroup(A023, FACET_0).gens == (1, 3)
    assert facet_semigroup(A023, FACET_K).gens == (2, 3)
    assert facet_semigroup(A023, FACET_K).gaps == (1,)


def test_facet_semigroup_cache_is_bounded():
    # one semigroup per matrix 0,2,m (m odd), past the cache size; the
    # semigroup <2, m> has Frobenius number m - 2
    for m in range(3, 3 + 2 * (SEMIGROUP_CACHE_SIZE + 8), 2):
        S = facet_semigroup(CurveMatrix([0, 2, m]), FACET_K)
        assert (S.gens, S.frobenius) == ((2, m), m - 2)
        assert facet_semigroup.cache_info().currsize <= SEMIGROUP_CACHE_SIZE
    assert facet_semigroup.cache_info().currsize == SEMIGROUP_CACHE_SIZE
    # an evicted semigroup is rebuilt with the same answer
    assert facet_semigroup(CurveMatrix([0, 2, 3]), FACET_K).frobenius == 1


@pytest.mark.parametrize("A", [A0134, A023])
def test_in_NA_matches_brute(A):
    for b1 in range(-1, 5):
        for b2 in range(-2, 4 * b1 + 3 if b1 >= 0 else 3):
            assert in_NA(A, (b1, b2)) == in_NA_brute(A, b1, b2), (b1, b2)
    assert not in_NA(A, (Fraction(1, 2), Fraction(1)))


def test_exceptional_sets_frozen():
    assert rank_jumping_parameters(A0134) == [(1, 2)]
    assert rank_jumping_parameters(A0145) == [(1, 2), (1, 3), (2, 3), (2, 7)]
    assert rank_jumping_parameters(A023) == []


def test_exceptional_set_stable_under_larger_box():
    # a search of a box with negative rows and rows far past the last jump
    # finds the library set and nothing more
    got = rank_jumping_parameters(A0145)
    assert got == h1_support_by_search(A0145, (-3, 12, -6, 60))
    assert set(got) == {(1, 2), (1, 3), (2, 3), (2, 7)}


@pytest.mark.parametrize("command", ["analyze", "cohomology", "figure"])
def test_rank_jump_sweep_of_a_sparse_large_degree_matrix_is_fast(command):
    # the staircase of the facet-k semigroup <1, 100> holds one pair per
    # class, so there are no rank jumps; the proven box reaches b2 = 990000
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "curvegkz.cli", command, "-A", "0,1,100"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 5.0


def test_hypersurfaces_have_no_rank_jumps():
    # 0,a,k with gcd(a, k) = 1 is a hypersurface, so Cohen-Macaulay, so it
    # has no rank jumps (Matusevich-Miller-Walther 2005).  Each has a facet
    # semigroup, <999, 1000>, <499, 1000> or <501, 1000>, whose Frobenius
    # number lies near 10**6 or 5 * 10**5.  The multiples pa, p < 1000,
    # fill each class of the facet-k staircase with one pair
    start = time.perf_counter()
    for a in (1, 499, 999):
        A = CurveMatrix([0, a, 1000])
        assert rank_jumping_parameters(A) == [], a
        assert h1_support(A) == [], a
        assert sum(map(len, facet_semigroup(A, FACET_K)._staircase)) == 1000, a
    assert time.perf_counter() - start < 5.0


def test_apery_set_decides_membership_and_frobenius_without_a_table():
    # <999, 1000> has Frobenius number 999 * 1000 - 999 - 1000, far past
    # its Schur bound search; the Apery set of 999 answers both without the
    # staircase, which holds 999p for p < 1000, one pair per class
    S = NumericalSemigroup((999, 1000))
    assert S.frobenius == 997001
    assert 997001 not in S and 997002 in S and 1998 in S and 1997 not in S
    assert "_staircase" not in vars(S)
    assert sum(map(len, S._staircase)) == 1000


def test_two_column_curves_have_one_pair_per_class_and_no_rank_jumps():
    # 0,a,k with gcd(a, k) = 1: the multiples pa, p < k, fill each class of
    # the facet-k staircase once, and no class of one pair holds a jump
    for k in range(2, 61):
        for a in range(1, k):
            if math.gcd(a, k) == 1:
                A = CurveMatrix([0, a, k])
                assert all(len(pairs) == 1 for pairs in facet_semigroup(A, FACET_K)._staircase), (a, k)
                assert rank_jumping_parameters(A) == [], (a, k)


def test_is_rank_jumping_pointwise():
    assert is_rank_jumping(A0134, (1, 2))
    assert not is_rank_jumping(A0134, (1, 1))
    assert not is_rank_jumping(A0134, (Fraction(1, 2), Fraction(2)))
    assert not is_rank_jumping(A0134, (2, 2))  # (2,2) = a1 + a3 lies in the column semigroup
    assert rank(A0134, (1, 2)) == 5
    assert rank(A0134, (0, 0)) == 4
    assert rank(A023, (1, 2)) == 3


def test_integrality_is_decided_by_value():
    # a float, a Fraction or a numpy integer with an integral value is the
    # integer itself; a fraction, a complex or a non-finite value is not
    import numpy as np

    for beta in [(1, 2), (1.0, 2.0), (Fraction(1), Fraction(2)), (np.int64(1), np.int64(2)), (np.float64(1), 2)]:
        assert rank(A0134, beta) == 5 and is_rank_jumping(A0134, beta), beta
        assert not in_NA(A0134, beta) and delta_conditions(A0134, beta) == (False, False), beta
    for beta in [(2, 2), (2.0, 2.0), (np.int64(2), np.int64(2)), (Fraction(4, 2), 2.0)]:
        assert in_NA(A0134, beta) and not is_rank_jumping(A0134, beta), beta
        assert delta_conditions(A0134, beta) == (True, True) and rank(A0134, beta) == 4, beta
    for beta in [(Fraction(3, 2), 2), (1.5, 2.0), (complex(2, 0), 2), (math.nan, 2), (2, math.inf)]:
        assert not in_NA(A0134, beta) and not is_rank_jumping(A0134, beta), beta
        assert delta_conditions(A0134, beta) == (False, False) and rank(A0134, beta) == 4, beta


def test_is_resonant():
    assert is_resonant(A0134, (Fraction(1, 3), Fraction(2))) == (FACET_0,)
    assert is_resonant(A0134, (Fraction(3, 4), Fraction(1, 2))) == ()
    assert is_resonant(A0134, (Fraction(1, 8), Fraction(1, 2))) == (FACET_K,)
    assert is_resonant(A0134, (1, 2)) == (FACET_0, FACET_K)


def test_resonant_line_geometry():
    L = ResonantLine(FACET_K, 3, True, 4)
    lam = Fraction(2, 5)
    p = L.point(lam)
    assert p == (lam, 4 * lam - 3)
    assert L.contains(p)
    assert L.level_of((1, 1)) == 3 and L.contains((1, 1))
    assert not L.contains((1, 2))
    M = ResonantLine(FACET_0, 3, True, 4)
    assert M != L
    assert M.point(lam) == (lam, Fraction(3))


def test_polar_levels_023():
    # facet-0 levels are polar iff they lie in the opposite facet semigroup
    # <2,3>, so level 1 is resonant but not polar
    lines = resonant_lines(A023, FACET_0, (0, 5))
    assert [L.level for L in lines] == [0, 1, 2, 3, 4, 5]
    assert [L.polar for L in lines] == [True, False, True, True, True, True]
    assert [L.level for L in polar_lines(A023, FACET_0, (0, 5))] == [0, 2, 3, 4, 5]
    # the other pairing direction uses <1,3> = N, so everything is polar
    assert [L.polar for L in resonant_lines(A023, FACET_K, (0, 4))] == [True] * 5
    # 0134 has both facet semigroups equal to N
    assert all(L.polar for L in resonant_lines(A0134, FACET_0, (0, 8)))
    assert all(L.polar for L in resonant_lines(A0134, FACET_K, (0, 8)))


def test_delta_conditions():
    # delta_conditions carries an internal cross-check against in_NA, so
    # sweeping it doubles as a membership consistency test
    for b1 in range(0, 4):
        for b2 in range(-1, 4 * b1 + 2):
            c1, c2 = delta_conditions(A0134, (b1, b2))
            assert (c1 and c2) == in_NA(A0134, (b1, b2))
    assert delta_conditions(A0134, (Fraction(1, 2), Fraction(1))) == (False, False)
    # at the exceptional point the shifted box is too small to admit any
    # column of Delta, so both witnesses fail even though the two facet
    # memberships (checked elsewhere) hold
    assert delta_conditions(A0134, (1, 2)) == (False, False)
    assert delta_conditions(A0134, (2, 2)) == (True, True)


def test_convergence_domain():
    assert in_convergence_domain(A0134, (-1, -1))
    assert not in_convergence_domain(A0134, (-1, 0))  # boundary is excluded
    assert not in_convergence_domain(A0134, (0, -1))
    assert in_convergence_domain(A0134, (-0.5 + 0.3j, -0.2 - 1j))
