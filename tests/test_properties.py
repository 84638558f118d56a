"""Property tests: on random admissible matrices (n <= 5, k <= 7) the
semigroup-table answers of the library agree with the search oracles of
``oracles.py``, and the fast exact series path agrees with its plain
versions there, the integer annihilation checks with their Fraction and
PolyQ residuals included.  The Groebner bases read off the fibers of the
grading agree with Buchberger's algorithm with saturation.  The closed forms of
the finite polar-line solutions, of their stripped factor and of the
Delta conditions agree with their path sum, Euclidean gcd and reach
table, the proportionality test with an exact rank, the planned shift
continuation with its recursive definition, and the batched ray
quadrature with one loop per parameter pair.  Examples are derandomized
so every run checks the same matrices.
"""

import re
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    delta_conditions_by_reach,
    euler_mellin_untabled,
    extension_shift_recursive,
    finite_annihilation_polyq,
    frobenius_by_run,
    h1_support_by_search,
    in_NA_bfs,
    in_NA_brute,
    in_ray_module_by_shift,
    kernel_steps_brute,
    min_parts_table,
    phi_coefficient_fractions,
    polar_line_solution_by_paths,
    proportional_by_rank,
    stripped_by_gcd,
    toric_ideal_groebner_sorted,
    truncated_annihilation_fractions,
)

from curvegkz import analytic, toric
from curvegkz.analytic import euler_mellin, extension_shift, roots_and_components, sample_structured_point
from curvegkz.cohomology import h1_support, in_ray_module
from curvegkz.curve import (
    FACET_0,
    FACET_K,
    CurveMatrix,
    NumericalSemigroup,
    delta_conditions,
    facet_level,
    in_NA,
    rank_jumping_parameters,
    _default_jump_box,
)
from curvegkz.errors import PolarLineError, QuadratureError, SeriesDenominatorError
from curvegkz.qexact import PolyQ
from curvegkz.series import (
    FiniteSeries,
    TruncatedSeries,
    _kernel_steps,
    _phi_coefficient,
    _proportional,
    annihilation_check,
    default_step_bound,
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
def exponent_lists(draw):
    k = draw(st.integers(1, 7))
    middle = draw(st.sets(st.integers(1, k - 1), max_size=3)) if k > 1 else set()
    return [0, *sorted(middle), k]


matrices = exponent_lists().filter(lambda exps: gcd(*exps[1:]) == 1).map(CurveMatrix)


generator_sets = st.sets(st.integers(1, 15), min_size=1, max_size=4).filter(lambda s: gcd(*s) == 1)


@settings(PROPERTY, max_examples=50)
@given(generator_sets, st.booleans())
def test_min_parts_matches_the_unbounded_table(gens, descending):
    # four periods past the threshold (g - 1) * g' and two more generators;
    # asked from the top down, the first answer comes from a reduced m
    g = max(gens)
    g2 = sorted(gens)[-2] if len(gens) > 1 else 0
    upto = 4 * (g - 1) * g2 + 2 * g
    table = min_parts_table(sorted(gens), upto)
    S = NumericalSemigroup(gens)
    order = range(upto, -1, -1) if descending else range(upto + 1)
    assert {m: S.min_parts(m) for m in order} == dict(enumerate(table))
    assert len(S._parts) <= (g - 1) * g2 + 1
    fresh = NumericalSemigroup(gens)
    assert fresh.frobenius == frobenius_by_run(gens)
    assert fresh.gaps == tuple(m for m in range(fresh.frobenius + 1) if table[m] is None)


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
    for u in _kernel_steps(A, 2 * A.k, {}):
        try:
            expected = phi_coefficient_fractions(v, u)
        except SeriesDenominatorError as err:
            with pytest.raises(SeriesDenominatorError) as got:
                _phi_coefficient(v, u)
            assert got.value.args == err.args
        else:
            assert _phi_coefficient(v, u) == expected, (v, u)


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
def test_finite_annihilation_check_matches_polyq(A, data):
    # a line solution at a random level, as built or stripped, and with up
    # to three coefficients scaled (by a constant, by a factor in lam, or to
    # zero) so that residuals fail
    name = data.draw(st.sampled_from(ORDER_NAMES))
    facet = data.draw(st.sampled_from((FACET_0, FACET_K)))
    N = data.draw(st.integers(0, 3 * A.k))
    sol = polar_line_solution(A, facet, N)
    if sol.is_zero():
        return
    if data.draw(st.booleans()):
        sol = sol.stripped()[0]
    terms = dict(sol.terms)
    factors = st.sampled_from([2, Fraction(-1, 3), PolyQ([-1, 1]), PolyQ()])
    for o in data.draw(st.lists(st.sampled_from(sorted(terms)), max_size=3, unique=True)):
        terms[o] = terms[o] * data.draw(factors)
    sol = FiniteSeries(A, facet, N, terms)
    rep = annihilation_check(A, sol, name)
    checked, failures = finite_annihilation_polyq(sol, toric_ideal_groebner(A, name).generators)
    assert (rep.ok, rep.checked, rep.failures) == (not failures, checked, failures)
    assert rep.skipped == 0


@PROPERTY
@given(matrices)
def test_groebner_matches_sorted_pair_list(A):
    # the bases read off the fibers equal Buchberger with saturation, in the
    # same order, and no lead passes the proven degree cap
    for name in ORDER_NAMES:
        gb = toric_ideal_groebner(A, name)
        assert gb.generators == toric_ideal_groebner_sorted(A, name), (A, name)
        assert all(sum(lead) <= toric._degree_cap(A) for lead in gb.lead_monomials), (A, name)


@PROPERTY
@given(matrices)
def test_polar_line_solution_matches_path_sum(A):
    for facet in (FACET_0, FACET_K):
        for N in range(-2, 3 * A.k + 1):
            sol = polar_line_solution(A, facet, N)
            assert sol.terms == polar_line_solution_by_paths(A, facet, N).terms, (A, facet, N)
            if not sol.is_zero():
                assert annihilation_check(A, sol).ok, (A, facet, N)


@PROPERTY
@given(matrices, st.data())
def test_stripped_matches_euclidean_gcd(A, data):
    for facet in (FACET_0, FACET_K):
        N = data.draw(st.integers(-1, 3 * A.k), label=facet)
        sol = polar_line_solution(A, facet, N)
        got, got_g = sol.stripped()
        want, want_g = stripped_by_gcd(sol)
        assert (got.terms, got.removed, got_g) == (want.terms, want.removed, want_g), (A, facet, N)


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
