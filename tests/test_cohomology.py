"""Local cohomology of the semigroup ring, degree by degree.

The library decides ray-module membership by its closed semigroup
description (second coordinate for one ray, the weighted pairing for the
other).  The bounded shift search over NA, with NA decided by breadth-first
search, is kept in ``oracles.py`` as the independent route this file checks
the library against.
"""

from fractions import Fraction
from unittest import mock

import pytest
from oracles import h1_support_by_search, in_ray_module_by_shift

from curvegkz.cohomology import (
    CocycleData,
    cocycle_generator,
    graded_dims,
    h1_support,
    in_ray_module,
)
from curvegkz.curve import (
    FACET_0,
    FACET_K,
    FACETS,
    CurveMatrix,
    NumericalSemigroup,
    _polar_level_semigroup,
    facet_level,
    in_NA,
    rank_jumping_parameters,
    _default_jump_box,
)
from curvegkz.toric import toric_ideal_groebner

A0134 = CurveMatrix([0, 1, 3, 4])
A0145 = CurveMatrix([0, 1, 4, 5])
A023 = CurveMatrix([0, 2, 3])
A025 = CurveMatrix([0, 2, 5])
A0257 = CurveMatrix([0, 2, 5, 7])

MATRICES = [A0134, A0145, A023, A025, A0257]


@pytest.mark.parametrize("A", MATRICES)
def test_ray_membership_matches_semigroup_description(A):
    for a1 in range(-4, 9):
        for a2 in range(-6, 31):
            for ray in (FACET_0, FACET_K):
                got = in_ray_module(A, (a1, a2), ray)
                assert got == in_ray_module_by_shift(A, (a1, a2), ray), (A, a1, a2, ray)


def test_ray_membership_rejects_unknown_ray():
    with pytest.raises(ValueError):
        in_ray_module(A0134, (0, 0), "diagonal")


@pytest.mark.parametrize("A", MATRICES)
def test_graded_dims_complex_consistency(A):
    # dimensions come from a three-term complex, so in every degree:
    # h0 vanishes, h2 detects missing both-ray membership, and h1 detects
    # membership in both rays without membership in the semigroup itself
    for a1 in range(-3, 7):
        for a2 in range(-5, 26):
            h0, h1, h2 = graded_dims(A, (a1, a2))
            m0 = in_ray_module(A, (a1, a2), FACET_0)
            mk = in_ray_module(A, (a1, a2), FACET_K)
            inq = in_NA(A, (a1, a2))
            assert h0 == 0
            assert h2 == (0 if (m0 or mk) else 1)
            assert h1 == (1 if (m0 and mk and not inq) else 0)
            if inq:
                assert (h1, h2) == (0, 0)


def test_graded_dims_frozen_points():
    assert graded_dims(A0134, (1, 2)) == (0, 1, 0)
    assert graded_dims(A0134, (1, 1)) == (0, 0, 0)
    assert graded_dims(A0134, (-1, -1)) == (0, 0, 1)
    assert graded_dims(A023, (1, 2)) == (0, 0, 0)


@pytest.mark.parametrize("A", [A0134, A0145, A023, A0257])
def test_h1_support_equals_rank_jumps(A):
    expected = h1_support_by_search(A, _default_jump_box(A))
    assert h1_support(A) == expected
    assert rank_jumping_parameters(A) == expected


def test_h1_support_frozen():
    assert h1_support(A0134) == [(1, 2)]
    assert h1_support(A0145) == [(1, 2), (1, 3), (2, 3), (2, 7)]
    assert h1_support(A023) == []


def test_h1_support_gapped_matrix():
    # both routes again, on a matrix where both facet semigroups have gaps
    got = h1_support(A025)
    assert got == rank_jumping_parameters(A025)
    # spot check one member by hand: alpha=(1,4) has 4 in <2,5>, pairing
    # 5-4=1 absent from <3,5> ... so (1,4) must NOT be in the support
    assert (1, 4) not in got
    for alpha in got:
        assert graded_dims(A025, alpha)[1] == 1


def test_cocycle_generator_frozen_0134():
    data = cocycle_generator(A0134, (1, 2))
    assert isinstance(data, CocycleData)
    assert data.v == (-1, 2, 0, 0)
    assert data.v_prime == (0, 0, 2, -1)
    assert data.clearing == 1
    assert data.binomial == ((0, 2, 0, 1), (1, 0, 2, 0))
    assert data.certified


def test_cocycle_generator_frozen_0145():
    data = cocycle_generator(A0145, (1, 2))
    assert data.v == (-1, 2, 0, 0)
    assert data.v_prime == (0, 0, 3, -2)
    assert data.clearing == 2
    assert data.certified


def test_cocycle_generators_all_jump_degrees():
    gb = toric_ideal_groebner(A0145, "d1-first")
    for alpha in h1_support(A0145):
        data = cocycle_generator(A0145, alpha)
        assert data.certified, alpha
        mono1, mono2 = data.binomial
        assert min(mono1) >= 0 and min(mono2) >= 0
        assert A0145.degree(mono1) == A0145.degree(mono2)
        # certificate means the two monomials have one normal form
        assert gb.normal_form_monomial(mono1) == gb.normal_form_monomial(mono2)
        # each uncleaned representative dips below zero in exactly the
        # coordinate of its own ray
        assert data.v[0] < 0 or data.v_prime[-1] < 0


def test_cocycle_generator_rejects_non_jump():
    with pytest.raises(ValueError):
        cocycle_generator(A0134, (1, 1))
    with pytest.raises(ValueError):
        cocycle_generator(A023, (1, 2))


def test_cohomology_refuses_a_degree_that_is_not_integral():
    # a non-integral degree is refused, not truncated to (1, 2)
    for alpha in [(Fraction(3, 2), 2), (1, 2.5), (complex(1, 0), 2)]:
        for call in (lambda a: in_ray_module(A0134, a, FACET_0), lambda a: graded_dims(A0134, a)):
            with pytest.raises(ValueError, match="not integral"):
                call(alpha)
        with pytest.raises(ValueError, match="not integral"):
            cocycle_generator(A0134, alpha)
    # an integral value of another type is the degree itself
    assert graded_dims(A0134, (1.0, Fraction(2))) == graded_dims(A0134, (1, 2)) == (0, 1, 0)
    assert cocycle_generator(A0134, (1.0, 2.0)).alpha == (1, 2)


def test_cocycle_work_is_counted_in_parts_not_levels():
    # each ray representative reads the floor of its facet's polar-level
    # semigroup <s, ..., g>, at most (s - 1) * g + 1 pairs.  A decomposition
    # with the most parts holds fewer than s parts other than s, and each run
    # of s is taken at once, so max_parts is called at most
    # 1 + (2s - 1) * |gens| times per facet, however many parts there are
    A = CurveMatrix([0, 4, 37, 40])
    support = h1_support(A)
    semigroups = [_polar_level_semigroup(A, facet) for facet in FACETS]
    bound = sum(1 + (2 * S.gens[0] - 1) * len(S.gens) for S in semigroups)
    for S in semigroups:
        assert sum(map(len, S._floor)) <= (S.gens[0] - 1) * S.gens[-1] + 1, S
    # one call per part would pass the bound
    most = max(sum(S.max_parts(facet_level(A.k, f, a)) for f, S in zip(FACETS, semigroups)) for a in support)
    assert most > 2 * bound
    spy = mock.patch.object(NumericalSemigroup, "max_parts", autospec=True, side_effect=NumericalSemigroup.max_parts)
    with spy as max_parts:
        for alpha in support:
            max_parts.reset_mock()
            assert cocycle_generator(A, alpha).certified
            assert max_parts.call_count <= bound, alpha
