"""Property tests: on random admissible matrices (n <= 5, k <= 7) the
semigroup answers of the library agree with the search oracles of
``oracles.py``: the Apery sets with the least member of each class in a
least-parts table, the least and most parts with their tables, the
staircases about either end generator with the minima of all sums of
parts, and, on sparse matrices with k <= 60 too, the rank jumps with a
sweep over every candidate, the decompositions with the most parts with
their table and the search box with a scan of its window.  The fast
exact series path agrees with its plain versions there, the integer
annihilation checks with their Fraction and PolyQ residuals included,
and the residual loop
with the table of steps it replaced.  The Groebner bases
read off the kernel vectors of A agree with Buchberger's algorithm with
saturation, and on wider matrices (n <= 6, k <= 16) with a walk over the
fibers of the grading, and they certify every cocycle generator under all
three orders.  The closed forms of the finite polar-line solutions, of their stripped factor, of
their parametric derivatives and of the Delta conditions agree with their
path sum, Euclidean gcd, PolyQ derivatives and reach table, the
proportionality test with an exact rank, the planned shift continuation
with its recursive definition, and the batched ray quadrature with one
loop per parameter pair.  The starting exponents of the top pairs are
affine in beta and have degree beta.  Examples are derandomized
so every run checks the same matrices.
"""

import math
import re
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    apery_by_shortest_paths,
    delta_conditions_by_reach,
    euler_mellin_untabled,
    expand_factored,
    extension_shift_per_order,
    extension_shift_recursive,
    factor_run,
    finite_annihilation_polyq,
    frobenius_by_run,
    h1_support_by_search,
    in_NA_bfs,
    in_NA_brute,
    in_ray_module_by_shift,
    jump_box_by_window,
    kernel_steps_brute,
    max_parts_decomposition_by_table,
    max_parts_table,
    min_parts_table,
    parametric_derivative_polyq,
    phi_coefficient_fractions,
    phi_coefficient_integers,
    polar_line_solution_by_paths,
    proportional_by_rank,
    rank_jumps_by_candidates,
    residual_check_by_steps,
    series_terms_brute,
    staircase_by_sums,
    stripped_by_gcd,
    toric_ideal_groebner_by_fibers,
    toric_ideal_groebner_sorted,
    truncated_annihilation_fractions,
)

from curvegkz import analytic, series, toric
from curvegkz.analytic import euler_mellin, extension_shift, roots_and_components, sample_structured_point
from curvegkz.cohomology import _max_parts_decomposition, cocycle_generator, h1_support, in_ray_module
from curvegkz.curve import (
    FACET_0,
    FACET_K,
    FACETS,
    CurveMatrix,
    NumericalSemigroup,
    _kernel_steps,
    _polar_level_semigroup,
    delta_conditions,
    facet_level,
    facet_parts,
    facet_semigroup,
    in_NA,
    rank_jumping_parameters,
    _default_jump_box,
)
from curvegkz.errors import (
    BasisCountError,
    LogObstructionError,
    PolarLineError,
    QuadratureError,
    SeriesDenominatorError,
)
from curvegkz.series import (
    FiniteSeries,
    TruncatedSeries,
    _proportional,
    _step_coefficients,
    annihilation_check,
    default_step_bound,
    parametric_derivative,
    polar_line_solution,
    series_for_exponent,
)
from curvegkz.toric import (
    ORDER_NAMES,
    fake_exponents,
    standard_pairs,
    toric_ideal_groebner,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)
# the exact series path needs more matrices before four and five columns
# are well represented
SERIES_PROPERTY = settings(PROPERTY, max_examples=50)


@st.composite
def exponent_lists(draw, kmax=7, middle_max=3):
    k = draw(st.integers(1, kmax))
    middle = draw(st.sets(st.integers(1, k - 1), max_size=middle_max)) if k > 1 else set()
    return [0, *sorted(middle), k]


matrices = exponent_lists().filter(lambda exps: gcd(*exps[1:]) == 1).map(CurveMatrix)
wide_matrices = exponent_lists(16, 4).filter(lambda exps: gcd(*exps[1:]) == 1).map(CurveMatrix)


generator_sets = st.sets(st.integers(1, 15), min_size=1, max_size=4).filter(lambda s: gcd(*s) == 1)


@settings(PROPERTY, max_examples=50)
@given(generator_sets, st.booleans())
def test_min_parts_matches_the_unbounded_table(gens, descending):
    # four times (g - 1) * g', past which every least factorization holds a
    # g, and two more generators; asked from the top down too.  A minimal
    # pair of the staircase has at most g - 1 parts, so its first entries
    # are distinct numbers up to (g - 1) * g'
    g = max(gens)
    g2 = sorted(gens)[-2] if len(gens) > 1 else 0
    upto = 4 * (g - 1) * g2 + 2 * g
    table = min_parts_table(sorted(gens), upto)
    S = NumericalSemigroup(gens)
    order = range(upto, -1, -1) if descending else range(upto + 1)
    assert {m: S.min_parts(m) for m in order} == dict(enumerate(table))
    assert sum(map(len, S._staircase)) <= (g - 1) * g2 + 1
    fresh = NumericalSemigroup(gens)
    assert fresh.frobenius == frobenius_by_run(gens)
    assert fresh.gaps == tuple(m for m in range(fresh.frobenius + 1) if table[m] is None)


@settings(PROPERTY, max_examples=50)
@given(generator_sets, st.booleans())
def test_max_parts_matches_the_unbounded_table(gens, descending):
    # the mirror of the least parts about the least generator s: a minimal
    # pair of the floor has at most s - 1 parts, so its first entries are
    # distinct numbers up to (s - 1) * g; asked from the top down too
    s, g = min(gens), max(gens)
    upto = 4 * (s - 1) * g + 2 * g
    table = max_parts_table(sorted(gens), upto)
    S = NumericalSemigroup(gens)
    order = range(upto, -1, -1) if descending else range(upto + 1)
    assert {m: S.max_parts(m) for m in order} == dict(enumerate(table))
    assert sum(map(len, S._floor)) <= (s - 1) * g + 1


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
    # the search box is the proven box of _default_jump_box with every side
    # pushed out by k, negative rows included, so a jump that the library's
    # periodic cutoff missed, or a point it wrongly took, would show
    b1min, b1max, b2min, b2max = _default_jump_box(A)
    expected = h1_support_by_search(A, (b1min - A.k, b1max + A.k, b2min - A.k, b2max + A.k))
    assert rank_jumping_parameters(A) == expected
    assert h1_support(A) == expected


sparse_matrices = exponent_lists(60, 2).filter(lambda exps: gcd(*exps[1:]) == 1).map(CurveMatrix)


@settings(PROPERTY, max_examples=50)
@given(st.one_of(generator_sets, wide_matrices.map(lambda A: facet_semigroup(A, FACET_K).gens)))
def test_staircase_matches_the_minima_of_all_sums(gens):
    # a minimal pair has at most g - 1 parts, so the sums of up to g parts
    # hold every pair and one layer more, which must add none
    g = max(gens)
    assert NumericalSemigroup(gens)._staircase == staircase_by_sums(gens, g)


@settings(PROPERTY, max_examples=50)
@given(st.one_of(generator_sets, wide_matrices.map(lambda A: facet_semigroup(A, FACET_0).gens)))
@example({4, 5, 102})
@example({3, 5, 10})
def test_floor_matches_the_minima_of_all_sums(gens):
    # about the least generator s a pair of more parts can bound one of
    # fewer; the sums of up to s parts hold every minimal pair and one layer
    # more, which must add none
    s = min(gens)
    assert NumericalSemigroup(gens)._floor == staircase_by_sums(gens, s, pivot=s)


@settings(PROPERTY, max_examples=40)
@given(st.one_of(matrices, wide_matrices, sparse_matrices), st.data())
def test_max_parts_decompositions_match_the_table(A, data):
    # a random level of either facet, members and gaps alike; the oracle
    # takes the facet's parts, the library their polar-level semigroup
    facet = data.draw(st.sampled_from(FACETS))
    N = data.draw(st.integers(-2, 2 * A.k * A.k + A.k))
    parts = [p for _, p in facet_parts(A, facet)]
    got = _max_parts_decomposition(_polar_level_semigroup(A, facet), N)
    assert got == max_parts_decomposition_by_table(N, parts), (A, facet, N)


@settings(PROPERTY, max_examples=40)
@given(st.one_of(matrices, wide_matrices, sparse_matrices))
@example(CurveMatrix([0, 4, 42, 45]))
@example(CurveMatrix([0, 7, 18, 20, 21]))
def test_search_box_matches_the_window_scan(A):
    # on the two examples the most least parts of the window lie past the
    # corner of a step, where the corners alone fall one short
    assert _default_jump_box(A) == jump_box_by_window(A)


@settings(PROPERTY, max_examples=40)
@given(st.one_of(matrices, wide_matrices, sparse_matrices))
def test_staircase_ends_are_the_apery_sets_of_k(A):
    # the first pair of each class is its least member in the facet-k
    # semigroup; the last one's second entry is the least facet-0 level of
    # the mirrored class.  A class of two or more pairs holds rank jumps
    k = A.k
    Gk, G0 = facet_semigroup(A, FACET_K), facet_semigroup(A, FACET_0)
    stairs = Gk._staircase
    assert [pairs[0][0] for pairs in stairs] == apery_by_shortest_paths(Gk.gens, k)
    assert [pairs[0][0] for pairs in Gk._floor] == apery_by_shortest_paths(Gk.gens, Gk.gens[0])
    least0 = apery_by_shortest_paths(G0.gens, k)
    assert [pairs[-1][1] for pairs in stairs] == [least0[-r % k] for r in range(k)]
    assert (rank_jumping_parameters(A) == []) == all(len(pairs) == 1 for pairs in stairs)


@settings(PROPERTY, max_examples=40)
@given(st.one_of(matrices, sparse_matrices))
def test_rank_jumps_and_h1_support_match_candidate_sweep(A):
    # the rows of the library take the b1 past the facet-0 Apery bound at
    # once; the oracle tries every b1 of every row
    expected = rank_jumps_by_candidates(A)
    assert rank_jumping_parameters(A) == expected
    assert h1_support(A) == expected


@settings(PROPERTY, max_examples=50)
@given(generator_sets, st.lists(st.integers(0, 3), min_size=1, max_size=3))
@example({1}, [0])
def test_apery_sets_match_least_members(gens, picks):
    # m is a sum of generators; a least member of a class has fewer than m
    # parts, else a sub-sum is a multiple of m and could be dropped.  The
    # first pairs of the staircase about an end generator are its Apery set
    gens = sorted(gens)
    m = sum(gens[i % len(gens)] for i in picks)
    table = min_parts_table(gens, (m - 1) * gens[-1])
    least = [min(t for t, parts in enumerate(table) if parts is not None and t % m == r) for r in range(m)]
    assert apery_by_shortest_paths(gens, m) == least
    S = NumericalSemigroup(gens)
    for stairs, g in ((S._floor, gens[0]), (S._staircase, gens[-1])):
        assert [pairs[0][0] for pairs in stairs] == apery_by_shortest_paths(gens, g)


@PROPERTY
@given(matrices.filter(h1_support))
def test_cocycle_binomials_reduce_to_zero(A):
    # the degree comparison that certifies a cocycle agrees with the normal
    # forms of its two cleared monomials under every adapted order
    for alpha in h1_support(A):
        coc = cocycle_generator(A, alpha)
        assert coc.certified
        for name in ORDER_NAMES:
            assert toric_ideal_groebner(A, name).reduces_to_zero(*coc.binomial), (A, alpha, name)


@SERIES_PROPERTY
@given(matrices, st.data())
def test_kernel_steps_match_box_search(A, data):
    # the lower bounds are those of a series at a standard pair; the list
    # must agree in order too, since the series keep their terms in it
    pair = data.draw(st.sampled_from(standard_pairs(A, data.draw(st.sampled_from(ORDER_NAMES)))))
    bound = data.draw(st.integers(0, default_step_bound(A)))
    mid_lower = {i: -pair.r[i] for i in range(1, A.n - 1)}
    assert _kernel_steps(A, bound, mid_lower) == kernel_steps_brute(A, bound, mid_lower)


# entries of v: integers often, so that rising factors vanish, and fractions
exponent_entries = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@SERIES_PROPERTY
@given(matrices, st.data())
def test_phi_coefficient_matches_fractions(A, data):
    v = tuple(data.draw(st.lists(exponent_entries, min_size=A.n, max_size=A.n)))
    if data.draw(st.booleans(), label="rising factor 0 at j = 1"):
        # v_i = -1 makes the first rising factor v_i + 1 of every step with
        # u_i > 0 vanish, which the draws above alone almost never give
        i = data.draw(st.integers(0, A.n - 1), label="i")
        v = v[:i] + (Fraction(-1),) + v[i + 1:]
    steps = _kernel_steps(A, 2 * A.k, {})
    for u in steps:
        try:
            expected = phi_coefficient_fractions(v, u)
        except SeriesDenominatorError as err:
            with pytest.raises(SeriesDenominatorError) as got:
                _step_coefficients(v, [u])
            assert got.value.args == err.args
        else:
            assert _step_coefficients(v, [u]) == [expected], (v, u)
    # tables shared by the whole list: the values of the per-step products,
    # or the error of the first step with a vanishing rising factor
    try:
        expected = [phi_coefficient_integers(v, u) for u in steps]
    except SeriesDenominatorError as err:
        with pytest.raises(SeriesDenominatorError) as got:
            _step_coefficients(v, steps)
        assert got.value.args == err.args
    else:
        assert _step_coefficients(v, steps) == expected


@SERIES_PROPERTY
@given(matrices.filter(lambda A: A.n > 2), st.data())
def test_series_for_exponent_matches_box_search(A, data):
    # the fake exponent of a random standard pair at a random rational
    # parameter on its line: r off sigma and random entries on sigma.  The
    # terms must come in the order of the box search, since the basis keeps
    # them in it
    name = data.draw(st.sampled_from(ORDER_NAMES))
    pair = data.draw(st.sampled_from(standard_pairs(A, name)))
    # counted down from 4k, so that small draws still give long series
    bound = default_step_bound(A) - data.draw(st.integers(0, default_step_bound(A)))
    v = [Fraction(ri) if i not in pair.sigma else data.draw(exponent_entries) for i, ri in enumerate(pair.r)]
    if data.draw(st.booleans()):
        # vanishing rising factors are rare at random parameters: make an
        # entry on sigma -m for a step that reaches u_e >= m there
        steps = kernel_steps_brute(A, bound, {i: -pair.r[i] for i in range(1, A.n - 1)})
        poles = sorted({(e, m) for u in steps for e in pair.sigma for m in range(1, u[e] + 1)})
        if poles:
            e, m = data.draw(st.sampled_from(poles))
            v[e] = Fraction(-m)
    fe = next(fe for fe in fake_exponents(A, A.degree(v), name) if fe.pair == pair)
    try:
        expected = series_terms_brute(A, fe, bound)
    except SeriesDenominatorError as err:
        with pytest.raises(SeriesDenominatorError) as got:
            series_for_exponent(A, fe, bound)
        assert got.value.args == err.args
        return
    ts = series_for_exponent(A, fe, bound)
    assert list(ts.terms.items()) == expected
    assert ts.monomials() == [(c, tuple(vi + ui for vi, ui in zip(v, u))) for u, c in sorted(expected)]


def _basis_summary(A, beta, order, bound):
    # entries, tags and discarded (top, step, coordinate) of the basis at
    # beta, as assembled when its count is wrong too
    try:
        basis = series.solution_basis_at_point(A, beta, order=order, bound=bound)
    except BasisCountError as err:
        basis = err.basis
    entries = [(e.kind, e.tags, e.monomials()) for e in basis.entries]
    return entries, [(fe.pair.r, err.u, err.coordinate) for fe, err in basis.discarded]


@SERIES_PROPERTY
@given(matrices, st.data())
def test_one_kernel_walk_serves_every_top_pair(A, data):
    # solution_basis_at_point walks the kernel once, at the least lower
    # limit of each middle coordinate over the top pairs, and each pair
    # keeps its steps of that walk: the list its own walk gives, in order,
    # and so the same basis as a walk per pair
    beta = (data.draw(exponent_entries), data.draw(exponent_entries))
    per_pair = series.series_for_exponent

    def alone(A, fe, bound=None, **_):
        return per_pair(A, fe, bound)

    for name in ORDER_NAMES:
        tops = [fe for fe in fake_exponents(A, beta, name) if fe.is_top]
        for bound in (None, default_step_bound(A) + 3):
            steps_bound = default_step_bound(A) if bound is None else bound
            middle = range(1, A.n - 1)
            walk = _kernel_steps(A, steps_bound, {i: min(-fe.pair.r[i] for fe in tops) for i in middle})
            for fe in tops:
                own = {i: -fe.pair.r[i] for i in middle}
                kept = [u for u in walk if all(u[i] >= low for i, low in own.items())]
                assert kept == _kernel_steps(A, steps_bound, own), (fe.pair, bound)
            shared = _basis_summary(A, beta, name, bound)
            with mock.patch.object(series, "series_for_exponent", alone):
                assert shared == _basis_summary(A, beta, name, bound), (name, bound)


@SERIES_PROPERTY
@given(matrices, st.data())
def test_annihilation_check_matches_fractions(A, data):
    # a series at a random rational parameter, as built or with one
    # coefficient changed so that residuals fail
    name = data.draw(st.sampled_from(ORDER_NAMES))
    beta = (data.draw(exponent_entries), data.draw(exponent_entries))
    fe = data.draw(st.sampled_from([fe for fe in fake_exponents(A, beta, name) if fe.is_top]))
    try:
        ts = series_for_exponent(A, fe, bound=2 * A.k)
    except SeriesDenominatorError:
        return
    terms = dict(ts.terms)
    if data.draw(st.booleans()):
        u = data.draw(st.sampled_from(sorted(terms)))
        terms[u] += data.draw(st.sampled_from([1, Fraction(-1, 3)]))
    ts = TruncatedSeries(A, ts.v, ts.pair, ts.bound, terms)
    rep = annihilation_check(A, ts, name)
    expected = truncated_annihilation_fractions(ts, toric_ideal_groebner(A, name).generators)
    assert (rep.checked, rep.skipped, rep.failures) == expected
    assert rep.ok == (not expected[2])


@SERIES_PROPERTY
@given(matrices, st.data())
def test_residual_loop_matches_step_table(A, data):
    # the residual loop against the table of steps it replaced, on the rows
    # that annihilation_check builds: a series as built, with one
    # coefficient changed, with one term deleted (so that some residuals
    # have one source only), and a stripped polar-line solution, whose base
    # coordinate is skipped; the reports agree, failures in the same order
    name = data.draw(st.sampled_from(ORDER_NAMES))
    kind = data.draw(st.sampled_from(["built", "changed", "deleted", "line"]))
    if kind == "line":
        facet = data.draw(st.sampled_from((FACET_0, FACET_K)))
        sol = polar_line_solution(A, facet, data.draw(st.integers(1, 3 * A.k))).stripped()
        if sol.is_zero():
            return
    else:
        beta = (data.draw(exponent_entries), data.draw(exponent_entries))
        fe = data.draw(st.sampled_from([fe for fe in fake_exponents(A, beta, name) if fe.is_top]))
        try:
            ts = series_for_exponent(A, fe, bound=2 * A.k)
        except SeriesDenominatorError:
            return
        terms = dict(ts.terms)
        u = data.draw(st.sampled_from(sorted(terms)))
        if kind == "changed":
            terms[u] += data.draw(st.sampled_from([1, Fraction(-1, 3)]))
        elif kind == "deleted":
            del terms[u]
        sol = TruncatedSeries(A, ts.v, ts.pair, ts.bound, terms)
    with mock.patch.object(series, "_residual_check", wraps=series._residual_check) as loop:
        rep = annihilation_check(A, sol, name)
    args = loop.call_args.args
    assert args[5] == (sol.base if kind == "line" else None)
    expected = residual_check_by_steps(*args)
    assert (rep.ok, rep.checked, rep.skipped, rep.failures) == (
        expected.ok,
        expected.checked,
        expected.skipped,
        expected.failures,
    )


@SERIES_PROPERTY
@given(matrices, st.data())
def test_finite_annihilation_check_matches_polyq(A, data):
    # a line solution at a random level, as built or stripped, with up to
    # three coefficients scaled (by a constant or to zero) and at times a
    # term added at another offset of the level, so that residuals fail;
    # multiplied out, the library's failures are the oracle's residuals
    name = data.draw(st.sampled_from(ORDER_NAMES))
    facet = data.draw(st.sampled_from((FACET_0, FACET_K)))
    N = data.draw(st.integers(0, 3 * A.k))
    sol = polar_line_solution(A, facet, N)
    if sol.is_zero():
        return
    if data.draw(st.booleans()):
        sol = sol.stripped()
    gens = toric_ideal_groebner(A, name).generators
    terms = dict(sol.terms)
    for o in data.draw(st.lists(st.sampled_from(sorted(terms)), max_size=3, unique=True)):
        terms[o] = terms[o] * data.draw(st.sampled_from([2, Fraction(-1, 3), 0]))
    # a kernel step a - b moves an offset along its level line
    others = {tuple(oi + s * (ai - bi) for oi, ai, bi in zip(o, a, b)) for o in terms for a, b in gens for s in (1, -1)}
    others = sorted(others - set(terms))
    if others and data.draw(st.booleans()):
        o = data.draw(st.sampled_from(others))
        terms[o] = data.draw(st.sampled_from([1, Fraction(-2, 5)]))
        if -o[sol.base] < sol.start:
            # its run would start past its last factor
            with pytest.raises(ValueError):
                FiniteSeries(A, facet, N, terms, sol.start)
            return
    sol = FiniteSeries(A, facet, N, terms, sol.start)
    rep = annihilation_check(A, sol, name)
    checked, failures = finite_annihilation_polyq(sol, gens)
    expanded = [(ab, key, factor_run(sol.start, -key[sol.base]) * val) for ab, key, val in rep.failures]
    assert (rep.ok, rep.checked, expanded) == (not failures, checked, failures)
    assert rep.skipped == 0


@SERIES_PROPERTY
@given(matrices, st.data())
def test_parametric_derivative_matches_polyq(A, data):
    # built or stripped line solutions, an integral lam0 inside or outside
    # the runs of factors, and q up to 2, log obstructions included; a lam0
    # inside every run, where the first derivative exists, is drawn often
    facet = data.draw(st.sampled_from((FACET_0, FACET_K)))
    sol = polar_line_solution(A, facet, data.draw(st.integers(0, 3 * A.k)))
    if sol.is_zero():
        return
    if data.draw(st.booleans()):
        sol = sol.stripped()
    parts = [-o[sol.base] for o in sol.terms]
    anywhere = st.integers(sol.start - 2, max(parts) + 1)
    lam0 = Fraction(data.draw(st.one_of(st.integers(sol.start, min(parts) - 1), anywhere)
                              if sol.start < min(parts) else anywhere))
    q = data.draw(st.integers(0, 2))
    try:
        expected = parametric_derivative_polyq(sol, lam0, q)
    except LogObstructionError as err:
        with pytest.raises(LogObstructionError) as got:
            parametric_derivative(sol, lam0, q)
        assert got.value.args == err.args
    else:
        assert parametric_derivative(sol, lam0, q) == expected


@PROPERTY
@given(matrices)
def test_groebner_matches_sorted_pair_list(A):
    # the bases read off the kernel vectors equal Buchberger with
    # saturation, in the same order, and no lead passes the proven degree cap
    for name in ORDER_NAMES:
        gb = toric_ideal_groebner(A, name)
        assert gb.generators == toric_ideal_groebner_sorted(A, name), (A, name)
        assert all(sum(lead) <= toric._degree_cap(A) for lead in gb.lead_monomials), (A, name)


@settings(PROPERTY, max_examples=50)
@given(wide_matrices)
def test_groebner_matches_fiber_walk(A):
    # up to k = 16, where Buchberger with saturation is too slow, the bases
    # equal those read off the fibers of the grading, in the same order; 50
    # draws reach the dense matrices whose S-pair test walks again past the
    # start degree
    for name in ORDER_NAMES:
        assert toric_ideal_groebner(A, name).generators == toric_ideal_groebner_by_fibers(A, name), (A, name)


rational_params = st.tuples(*[st.fractions(-6, 6, max_denominator=7)] * 2)


@PROPERTY
@given(matrices, st.sampled_from(ORDER_NAMES), rational_params, rational_params)
def test_top_starting_exponents_are_affine_in_beta(A, name, beta, beta2):
    # v(beta) of every top pair has degree beta, and v(beta + beta') =
    # v(beta) + v(beta') - v(0): the affine form in beta, on every matrix
    def tops(b):
        return {fe.pair.r: fe.v for fe in fake_exponents(A, b, name) if fe.is_top}

    at_zero, at_beta, at_beta2 = tops((0, 0)), tops(beta), tops(beta2)
    at_sum = tops((beta[0] + beta2[0], beta[1] + beta2[1]))
    assert len(at_beta) == A.k
    for r, v in at_beta.items():
        assert A.degree(v) == beta, (A, name, r)
        assert at_sum[r] == tuple(a + b - c for a, b, c in zip(v, at_beta2[r], at_zero[r])), (A, name, r)


@PROPERTY
@given(matrices)
def test_polar_line_solution_matches_path_sum(A):
    for facet in (FACET_0, FACET_K):
        for N in range(-2, 3 * A.k + 1):
            sol = polar_line_solution(A, facet, N)
            assert expand_factored(sol) == polar_line_solution_by_paths(A, facet, N), (A, facet, N)
            if not sol.is_zero():
                assert annihilation_check(A, sol).ok, (A, facet, N)


@PROPERTY
@given(matrices, st.data())
def test_stripped_matches_euclidean_gcd(A, data):
    for facet in (FACET_0, FACET_K):
        N = data.draw(st.integers(-1, 3 * A.k), label=facet)
        sol = polar_line_solution(A, facet, N)
        got = sol.stripped()
        want, want_g = stripped_by_gcd(sol)
        # the factor taken out is the run from the built start to the new one
        assert (expand_factored(got), factor_run(sol.start, got.start)) == (want, want_g), (A, facet, N)


exact_coefficients = st.fractions(-20, 20, max_denominator=12).filter(bool)
exact_exponents = st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3)


@st.composite
def monomial_lists(draw):
    """Exact (coefficient, exponent) lists as ``monomials()`` gives them:
    nonempty, nonzero coefficients, sorted by distinct exponents."""
    exps = draw(st.lists(exact_exponents, min_size=1, max_size=6, unique=True))
    return [(draw(exact_coefficients), e) for e in sorted(exps)]


def _resorted(mono):
    return sorted(mono, key=lambda ce: ce[1])


@settings(PROPERTY, max_examples=100)
@given(monomial_lists(), exact_coefficients, st.data())
def test_proportional_matches_rank(m1, scale, data):
    exps = {e for _, e in m1}
    i = data.draw(st.integers(0, len(m1) - 1), label="i")
    scaled = [(scale * c, e) for c, e in m1]
    c_i, e_i = scaled[i]
    other_c = data.draw(exact_coefficients.filter(lambda c: c != c_i), label="other_c")
    other_e = data.draw(exact_exponents.filter(lambda e: e not in exps), label="other_e")
    changed = scaled[:i] + [(other_c, e_i)] + scaled[i + 1 :]
    added = _resorted(scaled + [(other_c, other_e)])
    moved = _resorted(scaled[:i] + [(c_i, other_e)] + scaled[i + 1 :])
    variants = [scaled, changed, added, moved, data.draw(monomial_lists(), label="m2")]
    if len(scaled) > 1:
        variants.append(scaled[:i] + scaled[i + 1 :])
    for m2 in variants:
        assert _proportional(m1, m2) == proportional_by_rank(m1, m2), (m1, m2)
        assert _proportional(m2, m1) == proportional_by_rank(m2, m1), (m1, m2)
    assert _proportional(m1, scaled)
    assert not _proportional(m1, added) and not _proportional(m1, moved)


@PROPERTY
@given(matrices)
def test_delta_conditions_match_reach_table(A):
    for b1 in range(-1, 5):
        for b2 in range(-2, A.k * b1 + 3 if b1 >= 0 else 3):
            assert delta_conditions(A, (b1, b2)) == delta_conditions_by_reach(A, (b1, b2)), (A, b1, b2)
    assert delta_conditions(A, (Fraction(3, 2), 1)) == delta_conditions_by_reach(A, (Fraction(3, 2), 1))


def _outcome(shift, *args, **kwargs):
    try:
        return shift(*args, **kwargs)
    except PolarLineError as err:
        return err


def _named_shift(err):
    """The facet and the shift (m, w) that a PolarLineError names."""
    facet, m, w = re.fullmatch(r"(\S+) denominator vanishes at shift \((\d+), (-?\d+)\)", str(err)).groups()
    return facet, int(m), int(w)


@settings(PROPERTY, max_examples=10)
@given(matrices, st.data())
def test_extension_shift_matches_recursion(A, data):
    # the values must agree exactly, not to a tolerance: each shift keeps the
    # formula and summation order of the recursive definition.  An integral
    # b2 or k b1 - b2 puts the point on a polar line, where both must raise
    # PolarLineError.  The plan goes level by level, so the shift it names
    # has a vanishing denominator and lies no deeper than the recursion's.
    x = sample_structured_point(A, data.draw(st.integers(0, 99), label="seed"))
    theta = roots_and_components(A, x).ray_angles[0]
    for _ in range(3):
        b1 = data.draw(st.integers(-2, 9), label="b1") + data.draw(st.sampled_from([0.25, 0.5, 0.8]))
        b2 = data.draw(st.integers(-2, max(int(A.k * b1), 0) + 2), label="b2") + data.draw(
            st.sampled_from([0.0, 0.3, 0.55])
        )
        for order in ("facet-0-first", "facet-k-first"):
            got = _outcome(extension_shift, A, (b1, b2), x, theta, order=order)
            want = _outcome(extension_shift_recursive, A, (b1, b2), x, theta, order=order)
            if not isinstance(want, PolarLineError):
                assert got == want, (A, b1, b2, order)
                continue
            assert isinstance(got, PolarLineError), (A, b1, b2, order, got)
            facet, m, w = _named_shift(got)
            assert abs(facet_level(A.k, facet, (b1 - m, b2 - w))) < 1e-9, (A, b1, b2, order, got)
            assert m <= _named_shift(want)[1], (A, b1, b2, order, got, want)


def _lone_outcomes(call, jobs, errors):
    """Each job's lone value, or the error of the given types it raises."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(call(job))
        except errors as err:
            outcomes.append(err)
    return outcomes


@settings(PROPERTY, max_examples=15)
@given(matrices, st.data())
def test_extension_shift_list_matches_lone_calls(A, data):
    # a list of pairs and orders gives each job's lone value bit for bit.
    # When a lone call fails the list fails too, with an error type of the
    # lone calls; plans come first, so a job on a polar line raises the
    # error it raises alone.  Points repeat under both orders, so jobs share
    # wedge shifts; an integral level puts a job on a polar line, and the
    # ray 0.03 short of a root fails quadratures
    x = sample_structured_point(A, data.draw(st.integers(0, 99), label="seed"))
    rc = roots_and_components(A, x)
    theta = data.draw(st.sampled_from([rc.ray_angles[0], rc.angles[0] - 0.03]), label="theta")
    jobs = []
    for _ in range(data.draw(st.integers(1, 3), label="points")):
        b1 = data.draw(st.integers(-2, 6), label="b1") + data.draw(st.sampled_from([0.25, 0.5, 0.8]))
        b2 = data.draw(st.integers(-2, max(int(A.k * b1), 0) + 2), label="b2") + data.draw(
            st.sampled_from([0.0, 0.3, 0.55])
        )
        orders = data.draw(st.lists(st.sampled_from(["facet-0-first", "facet-k-first"]), min_size=1, max_size=2))
        jobs += [((b1, b2), order) for order in orders]
    jobs = data.draw(st.permutations(jobs), label="jobs")
    errors = (PolarLineError, QuadratureError)
    lone = _lone_outcomes(lambda job: extension_shift(A, job[0], x, theta, order=job[1]), jobs, errors)
    failed = [v for v in lone if isinstance(v, Exception)]
    continue_all = lambda: extension_shift(A, [b for b, _ in jobs], x, theta, [o for _, o in jobs])  # noqa: E731
    if not failed:
        assert continue_all() == lone, (A, jobs, theta)
        return
    with pytest.raises(errors) as err:
        continue_all()
    assert type(err.value) in {type(v) for v in failed}, (A, jobs, theta, err.value)
    polar = [str(v) for v in failed if isinstance(v, PolarLineError)]
    if polar:
        assert str(err.value) == polar[0], (A, jobs, theta)


SHARED_LEVEL_MATRICES = [CurveMatrix([0, 2, 3]), CurveMatrix([0, 1, 3, 4]), CurveMatrix([0, 2, 5, 7])]


@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_extension_shift_orders_share_levels(data):
    # the two orders of one pair share their plan entries and values from
    # level m* on; each value must still equal, bit for bit, the one of a
    # plan and combination of its own.  An integral b2 or k b1 - b2 puts the
    # point on a polar line, where both must raise the same error
    A = data.draw(st.sampled_from(SHARED_LEVEL_MATRICES), label="A")
    x = sample_structured_point(A, data.draw(st.integers(0, 3), label="seed"))
    theta = roots_and_components(A, x).ray_angles[0]
    q = data.draw(st.integers(3, 13), label="q")
    b1 = Fraction(data.draw(st.integers(-2 * q, 40 * q), label="b1"), q)
    lo, hi = sorted((Fraction(-2), A.k * b1 + 2))
    b2 = Fraction(data.draw(st.integers(math.ceil(lo * q), math.floor(hi * q)), label="b2"), q)
    line = data.draw(st.sampled_from(["none", "facet-0", "none", "facet-k"]), label="line")
    if line == "facet-0":
        b2 = Fraction(round(b2))
    elif line == "facet-k":
        b2 = A.k * b1 - round(A.k * b1 - b2)
    else:
        while b2.denominator == 1 or (A.k * b1 - b2).denominator == 1:
            b2 += Fraction(1, q)
    beta = (float(b1), float(b2))
    orders = ["facet-0-first", "facet-k-first"]
    outcomes = []
    for shift in (extension_shift, extension_shift_per_order):
        try:
            outcomes.append(shift(A, [beta, beta], x, theta, orders))
        except (PolarLineError, QuadratureError) as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1], (A, beta)


# facet levels of wedge parameters; the ones near 0 decay slowly at an end
# of the ray and need the wider node ranges S = 5.5 and 7
wedge_levels = st.sampled_from([-0.12, -0.26, -0.6, -1.3, -3.1, -7.0])
level_imag = st.sampled_from([0.0, 0.0, 0.2, -0.35])


@settings(PROPERTY, max_examples=15)
@given(matrices, st.data())
def test_batched_ray_quadrature_matches_lone_pairs(A, data):
    # a list of pairs gives each pair's lone value bit for bit.  When a
    # lone pair fails the list fails too, with the error that a failing
    # pair gives alone, of a kind the untabled loop gives.  On the ray 0.03
    # short of a root the phase tracking fails at coarse levels, and every
    # pair must replay those halvings; a block of 100 values splits each
    # level into rows of one or two pairs
    x = sample_structured_point(A, data.draw(st.integers(0, 99), label="seed"))
    rc = roots_and_components(A, x)
    theta = data.draw(st.sampled_from([rc.ray_angles[0], rc.angles[0] - 0.03]), label="theta")
    pairs = []
    for _ in range(data.draw(st.integers(1, 10), label="pairs")):
        level_0 = data.draw(wedge_levels) + 1j * data.draw(level_imag)
        level_k = data.draw(wedge_levels) + 1j * data.draw(level_imag)
        pairs.append(((level_0 + level_k) / A.k, level_0))
    block = data.draw(st.sampled_from([analytic._BLOCK_VALUES, 100]), label="block")
    lone = _lone_outcomes(lambda pair: euler_mellin_untabled(A, pair, x, theta), pairs, QuadratureError)
    with mock.patch.object(analytic, "_BLOCK_VALUES", block):
        if not any(isinstance(v, Exception) for v in lone):
            assert euler_mellin(A, pairs, x, theta) == lone, (A, pairs, theta)
            return
        with pytest.raises(QuadratureError) as err:
            euler_mellin(A, pairs, x, theta)
    # the untabled loop names no state, so kinds are compared up to the colon
    kinds = {str(v).split(":")[0] for v in lone if isinstance(v, Exception)}
    assert str(err.value).split(":")[0] in kinds, (A, pairs, theta, err.value)
    failing = [pair for pair, v in zip(pairs, lone) if isinstance(v, Exception)]
    alone = {str(v) for v in _lone_outcomes(lambda pair: euler_mellin(A, pair, x, theta), failing, QuadratureError)}
    assert str(err.value) in alone, (A, pairs, theta, err.value)
