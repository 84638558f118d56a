"""Toric ideal machinery: term orders, Groebner bases, standard pairs,
starting exponents, and the special line arrangements.

The Groebner bases, which the library reads off the kernel vectors of A,
are cross-checked against sympy via variable elimination (saturating with an
auxiliary inverse variable), started from the kernel lattice basis of
``oracles.py``; neither shares code with the construction under test.
"""

import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy
from oracles import kernel_lattice_basis
from sympy.polys.orderings import grevlex

import curvegkz
from curvegkz import toric
from curvegkz.curve import FACET_0, FACET_K, CurveMatrix
from curvegkz.toric import (
    GB_CACHE_SIZE,
    ORDER_NAMES,
    StandardPair,
    TermOrder,
    _divides,
    fake_exponents,
    special_lines,
    standard_pairs,
    standard_pairs_of_monomial_ideal,
    term_order,
    toric_ideal_groebner,
)

A0134 = CurveMatrix([0, 1, 3, 4])
A0145 = CurveMatrix([0, 1, 4, 5])
A023 = CurveMatrix([0, 2, 3])

ORACLE_MATRICES = [(0, 1, 3, 4), (0, 1, 4, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 2, 3, 4)]


def test_term_order_matches_grevlex_key():
    # each adapted order is graded reverse lexicographic after permuting the
    # variables so the cheap list runs from least to most significant
    rng = random.Random(5)
    for n in (3, 4, 5):
        for name in ORDER_NAMES:
            order = term_order(name, n)
            perm = tuple(reversed(order.cheap))
            for _ in range(300):
                a = tuple(rng.randint(0, 4) for _ in range(n))
                b = tuple(rng.randint(0, 4) for _ in range(n))
                if a == b:
                    continue
                want = grevlex(tuple(a[i] for i in perm)) > grevlex(tuple(b[i] for i in perm))
                assert order.greater(a, b) == want, (n, name, a, b)


def test_term_order_rejects_unknown():
    with pytest.raises(ValueError):
        term_order("lex", 4)


def test_kernel_lattice_basis_spans_all_small_vectors():
    for exps in ORACLE_MATRICES:
        A = CurveMatrix(list(exps))
        basis = kernel_lattice_basis(A)
        assert len(basis) == A.n - 2
        for u in basis:
            assert A.degree(u) == (0, 0)
        # every small kernel vector must be an integer combination of the
        # basis; with n - 2 basis vectors the first two middle coordinates
        # (or fewer) determine the combination, so solve and check
        for u in itertools.product(range(-3, 4), repeat=A.n):
            if A.degree(u) != (0, 0) or not any(u):
                continue
            coeffs = _integer_combination(basis, u)
            assert coeffs is not None, (exps, u)


def _integer_combination(basis, target):
    # exact Gaussian elimination for c with sum(c_i * basis_i) == target,
    # returning None unless an all-integer solution exists
    if not basis:
        return None
    rows = [[Fraction(b[j]) for b in basis] + [Fraction(target[j])] for j in range(len(target))]
    ncols = len(basis)
    rank = 0
    where = []
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        where.append(col)
        rank += 1
    if any(row[-1] != 0 for row in rows[rank:]):
        return None
    sol = [rows[i][-1] / rows[i][where[i]] for i in range(rank)]
    return sol if all(c.denominator == 1 for c in sol) else None


def _sympy_toric_generators(exps, name):
    A = CurveMatrix(list(exps))
    n = A.n
    xs = sympy.symbols(f"x0:{n}")
    t = sympy.Symbol("t")
    base = []
    for u in kernel_lattice_basis(A):
        pos = sympy.prod([xs[i] ** max(u[i], 0) for i in range(n)])
        neg = sympy.prod([xs[i] ** max(-u[i], 0) for i in range(n)])
        base.append(pos - neg)
    # saturate by the product of the variables, then eliminate the inverse
    sat = base + [t * sympy.prod(xs) - 1]
    g1 = sympy.groebner(sat, t, *xs, order="lex")
    elim = [p for p in g1.exprs if t not in p.free_symbols]
    order = term_order(name, n)
    perm = tuple(reversed(order.cheap))
    gens = tuple(xs[i] for i in perm)
    g2 = sympy.groebner(elim, *gens, order="grevlex")
    pairs = set()
    for p in g2.exprs:
        terms = sorted(sympy.Poly(p, *gens).terms(), key=lambda tc: grevlex(tc[0]), reverse=True)
        assert len(terms) == 2 and terms[0][1] == 1 and terms[1][1] == -1, p

        def back(monom):
            out = [0] * n
            for pos_i, e in enumerate(monom):
                out[perm[pos_i]] = e
            return tuple(out)

        pairs.add((back(terms[0][0]), back(terms[1][0])))
    return pairs


@pytest.mark.parametrize("exps", ORACLE_MATRICES)
def test_groebner_matches_sympy_elimination(exps):
    A = CurveMatrix(list(exps))
    for name in ORDER_NAMES:
        gb = toric_ideal_groebner(A, name)
        assert set(gb.generators) == _sympy_toric_generators(exps, name), (exps, name)


def test_groebner_frozen_leads():
    assert sorted(toric_ideal_groebner(A0134, "d1-first").lead_monomials) == [
        (0, 0, 3, 0),
        (0, 1, 1, 0),
        (0, 2, 0, 1),
        (0, 3, 0, 0),
    ]
    assert sorted(toric_ideal_groebner(A023, "d1-first").lead_monomials) == [(0, 3, 0)]


def test_groebner_of_sparse_plane_curves_is_one_binomial():
    # for 0,a,k with gcd(a, k) = 1 the kernel is spanned by (k - a, -k, a),
    # so I_A is principal and every order leads with x_2^k; the basis comes
    # from one short kernel walk however large k is
    t0 = time.monotonic()
    for a, k in [(1, 1000), (499, 1000), (999, 1000), (37, 100)]:
        for name in ORDER_NAMES:
            gb = toric_ideal_groebner(CurveMatrix([0, a, k]), name)
            assert gb.generators == (((0, k, 0), (k - a, 0, a)),), (a, k, name)
    assert time.monotonic() - t0 < 5.0


def _admissible_matrices(kmax):
    # every admissible matrix with 3 <= k <= kmax, by k, then by exponents
    for k in range(3, kmax + 1):
        for size in range(1, k):
            for mid in itertools.combinations(range(1, k), size):
                if math.gcd(*mid, k) == 1:
                    yield CurveMatrix([0, *mid, k])


def test_groebner_cache_is_bounded():
    # more distinct (matrix, order) keys than the cache holds; past the
    # cache size the least recently used key goes first
    cache = toric._toric_ideal_groebner
    cache.cache_clear()
    keys = [(A, name) for A in _admissible_matrices(7) for name in ORDER_NAMES]
    keys = [key for key in keys if key != (A023, "d1-first")][: GB_CACHE_SIZE + 8]
    assert len(keys) == GB_CACHE_SIZE + 8
    first = toric_ideal_groebner(A023, "d1-first")
    built = {}
    for A, name in keys:
        built[A, name] = toric_ideal_groebner(A, name).generators
        # a hit on 0,2,3 makes it the most recently used key again
        hits = cache.cache_info().hits
        assert toric_ideal_groebner(A023, "d1-first") is first
        assert cache.cache_info().hits == hits + 1
        assert cache.cache_info().currsize <= GB_CACHE_SIZE
    # the last GB_CACHE_SIZE - 1 keys are kept
    misses = cache.cache_info().misses
    for A, name in keys[-(GB_CACHE_SIZE - 1):]:
        toric_ideal_groebner(A, name)
    assert cache.cache_info().misses == misses
    # the evicted first key is a miss, built again identically, and kept
    A, name = keys[0]
    assert toric_ideal_groebner(A, name).generators == built[A, name]
    assert cache.cache_info().misses == misses + 1
    assert set(built[A, name]) == _sympy_toric_generators(A.exponents, name)
    toric_ideal_groebner(A, name)
    assert cache.cache_info().misses == misses + 1


def test_groebner_degree_bound_survives_optimized_mode():
    # python -O strips assert statements; the degree cap of the kernel
    # vector construction must still stop a run that needs larger degrees
    code = (
        "from curvegkz import toric\n"
        "from curvegkz.curve import CurveMatrix\n"
        "print(__debug__)\n"
        "toric._degree_cap = lambda A: 2\n"
        "try:\n"
        "    toric.toric_ideal_groebner(CurveMatrix([0, 1, 3, 4]), 'd1-first')\n"
        "    print('accepted')\n"
        "except AssertionError as err:\n"
        "    print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "Groebner degree 3 exceeded the bound 2"]


def test_groebner_normal_form_properties():
    rng = random.Random(9)
    for exps in [(0, 1, 3, 4), (0, 2, 3)]:
        A = CurveMatrix(list(exps))
        gb = toric_ideal_groebner(A, "d1-first")
        for lead, trail in gb.generators:
            assert A.degree(lead) == A.degree(trail)
            assert gb.reduces_to_zero(lead, trail)
        for _ in range(30):
            m = tuple(rng.randint(0, 4) for _ in range(A.n))
            nf = gb.normal_form_monomial(m)
            assert gb.normal_form_monomial(nf) == nf
            assert A.degree(nf) == A.degree(m)
            assert any(_divides(lead, m) for lead in gb.lead_monomials) == (nf != m)
            # shifting a generator by any monomial keeps it in the ideal
            lead, trail = gb.generators[rng.randrange(len(gb.generators))]
            shifted_a = tuple(x + y for x, y in zip(lead, m))
            shifted_b = tuple(x + y for x, y in zip(trail, m))
            assert gb.reduces_to_zero(shifted_a, shifted_b)


def _covered(pair, m):
    return all(
        (m[i] >= pair.r[i]) if i in pair.sigma else (m[i] == pair.r[i]) for i in range(len(m))
    )


@pytest.mark.parametrize("exps", ORACLE_MATRICES)
def test_standard_pairs_cover_standard_monomials(exps):
    # the pair cosets cover exactly the monomials outside the initial ideal
    A = CurveMatrix(list(exps))
    for name in ORDER_NAMES:
        gb = toric_ideal_groebner(A, name)
        pairs = standard_pairs_of_monomial_ideal(gb.lead_monomials, A.n)
        for m in itertools.product(range(4), repeat=A.n):
            covered = any(_covered(p, m) for p in pairs)
            assert covered == (not any(_divides(lead, m) for lead in gb.lead_monomials)), (exps, name, m)


def test_standard_pairs_frozen_0134():
    def shape(order):
        return [(p.r, tuple(sorted(p.sigma)), p.kind(4)) for p in standard_pairs(A0134, order)]

    assert shape("d1-first") == [
        ((0, 0, 0, 0), (0, 3), "top"),
        ((0, 0, 1, 0), (0, 3), "top"),
        ((0, 0, 2, 0), (0, 3), "top"),
        ((0, 1, 0, 0), (0, 3), "top"),
        ((0, 2, 0, 0), (0,), "first-end"),
    ]
    assert shape("dn-first") == [
        ((0, 0, 0, 0), (0, 3), "top"),
        ((0, 1, 0, 0), (0, 3), "top"),
        ((0, 2, 0, 0), (0, 3), "top"),
        ((0, 3, 0, 0), (0, 3), "top"),
        ((0, 0, 1, 0), (3,), "last-end"),
        ((0, 0, 2, 0), (3,), "last-end"),
        ((1, 0, 1, 0), (3,), "last-end"),
    ]
    assert shape("d1-mirror") == [
        ((0, 0, 0, 0), (0, 3), "top"),
        ((0, 0, 1, 0), (0, 3), "top"),
        ((0, 1, 0, 0), (0, 3), "top"),
        ((0, 2, 0, 0), (0, 3), "top"),
        ((0, 0, 2, 0), (3,), "last-end"),
    ]


def test_standard_pairs_give_each_caller_its_own_list():
    # the pairs are computed once per (A, order name), and every call gets
    # a list of its own that equals a fresh listing, so a caller that
    # changes its list changes no later result; the pairs in it are shared
    # and cannot be changed
    for name in ORDER_NAMES:
        leads = toric_ideal_groebner(A0134, name).lead_monomials
        fresh = sorted(standard_pairs_of_monomial_ideal(leads, 4), key=lambda p: (-len(p.sigma), p.r))
        first = standard_pairs(A0134, name)
        assert first == fresh
        first.reverse()
        first.append(StandardPair((9, 9, 9, 9), {0, 3}))
        misses = toric._standard_pairs.cache_info().misses
        again = standard_pairs(A0134, name)
        assert again == fresh and again is not first
        assert toric._standard_pairs.cache_info().misses == misses
        with pytest.raises(AttributeError):
            first[0].r = (9, 9, 9, 9)
    assert toric._standard_pairs.cache_info().maxsize == GB_CACHE_SIZE


def test_standard_pairs_top_count_is_degree():
    for exps in ORACLE_MATRICES:
        A = CurveMatrix(list(exps))
        for name in ORDER_NAMES:
            tops = [p for p in standard_pairs(A, name) if p.is_top]
            assert len(tops) == A.k


def test_standard_pair_kind_labels():
    p = StandardPair((0, 2, 0, 0), {0})
    assert p.kind(4) == "first-end" and not p.is_top
    assert StandardPair((0, 0, 0, 0), {0, 3}).kind(4) == "top"
    assert StandardPair((1, 0, 1, 0), {3}).kind(4) == "last-end"


def test_fake_exponents_frozen_at_jump():
    fes = fake_exponents(A0134, (Fraction(1), Fraction(2)), "d1-first")
    got = {fe.v for fe in fes}
    assert got == {
        (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(0), Fraction(1), Fraction(-1, 4)),
        (Fraction(0), Fraction(0), Fraction(2), Fraction(-1)),
        (Fraction(-1, 4), Fraction(1), Fraction(0), Fraction(1, 4)),
        (Fraction(-1), Fraction(2), Fraction(0), Fraction(0)),
    }
    assert sum(1 for fe in fes if fe.is_top) == 4
    lower = next(fe for fe in fes if not fe.is_top)
    assert lower.v == (Fraction(-1), Fraction(2), Fraction(0), Fraction(0))


def test_fake_exponents_end_pair_gating():
    # the single first-end pair of d1-first sits at level b2 = 2, so it must
    # vanish from the list away from that line
    fes = fake_exponents(A0134, (Fraction(1, 2), Fraction(1)), "d1-first")
    assert len(fes) == 4 and all(fe.is_top for fe in fes)
    fes = fake_exponents(A0134, (Fraction(3, 4), Fraction(2)), "d1-first")
    assert sum(1 for fe in fes if not fe.is_top) == 1
    # the last-end pair (0, 0, 2, 0) of d1-mirror sits at level k*b1 - b2 = 2,
    # and its free exponent b1 - 2 goes on the last column
    fes = fake_exponents(A0134, (Fraction(3, 4), Fraction(1)), "d1-mirror")
    assert [fe.v for fe in fes if not fe.is_top] == [(0, 0, 2, Fraction(-5, 4))]
    fes = fake_exponents(A0134, (Fraction(3, 4), Fraction(2)), "d1-mirror")
    assert all(fe.is_top for fe in fes)


def test_fake_exponents_symbolic():
    # the closed form of the top pair (0, 1, 0, 0), checked at rational
    # points: an affine function of beta is fixed by its values at three
    # affinely independent points, and the first three here are such
    points = [(0, 0), (1, 0), (0, 1), (1, 2), (Fraction(-5, 2), Fraction(7, 3))]
    for b1, b2 in (map(Fraction, beta) for beta in points):
        tops = {fe.pair.r: fe.v for fe in fake_exponents(A0134, (b1, b2), "d1-first") if fe.is_top}
        assert tops[(0, 1, 0, 0)] == (b1 - (b2 + 3) / 4, Fraction(1), Fraction(0), (b2 - 1) / 4)
        assert all(type(c) is Fraction for v in tops.values() for c in v)


def test_special_lines_two_orders():
    SL = special_lines(A0134, ["d1-first", "dn-first"])
    assert [(L.facet, L.level) for L in SL.lines] == [
        (FACET_0, 2),
        (FACET_K, 1),
        (FACET_K, 2),
        (FACET_K, 5),
    ]
    assert all(L.polar for L in SL.lines)
    assert SL.chosen_orders == {FACET_0: "d1-first", FACET_K: "dn-first"}
    assert (Fraction(1), Fraction(2)) in SL.meets
    assert len(SL.meets) == 3


def test_special_lines_three_orders_minimal():
    # adding the mirror order prunes facet-k to a single line and the only
    # crossing left is the rank-jump point
    SL = special_lines(A0134, ["d1-first", "dn-first", "d1-mirror"])
    assert [(L.facet, L.level) for L in SL.lines] == [(FACET_0, 2), (FACET_K, 2)]
    assert SL.chosen_orders == {FACET_0: "d1-first", FACET_K: "d1-mirror"}
    assert SL.meets == ((Fraction(1), Fraction(2)),)


def test_special_lines_rejects_middle_cheap_order():
    # an order object is refused like any name outside ORDER_NAMES
    bad = TermOrder(4, (1, 0, 2, 3), "middle")
    with pytest.raises(ValueError, match=re.escape(str(ORDER_NAMES))):
        special_lines(A0134, [bad])


def test_toric_takes_only_the_order_names():
    # an order that is not one of the three names is bad input, a TermOrder
    # object included: about half of the 24 permutation orders of 0,1,3,4
    # have pairs of no adapted shape.  A refused call caches nothing, so
    # each name's basis then carries that name
    toric._toric_ideal_groebner.cache_clear()
    toric._standard_pairs.cache_clear()
    beta = (Fraction(1), Fraction(2))
    for order in ["lex", *(TermOrder(4, cheap) for cheap in itertools.permutations(range(4)))]:
        for call in (
            lambda: toric_ideal_groebner(A0134, order),
            lambda: standard_pairs(A0134, order),
            lambda: fake_exponents(A0134, beta, order),
            lambda: special_lines(A0134, [order]),
        ):
            with pytest.raises(ValueError, match=re.escape(str(ORDER_NAMES))):
                call()
    for name in ORDER_NAMES:
        assert toric_ideal_groebner(A0134, name).order.name == name
