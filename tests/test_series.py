"""Series solutions: finite polar-line solutions, canonical series at
starting exponents, annihilation identities, and basis assembly.

The closed form of the finite solutions is checked against direct
enumeration of ordered part sequences, which is the defining path sum
written out without any sharing; ``oracles.ordered_partitions`` is itself
checked against a product search.  The property tests compare the closed
form with the path dynamic programming of ``oracles.py`` on random
matrices.
"""

import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from oracles import PolyQ, expand_factored, factor_run, ordered_partitions, truncated_annihilation_fractions

import curvegkz
from curvegkz.curve import FACET_0, FACET_K, CurveMatrix, b_matrix, facet_parts
from curvegkz.errors import BasisCountError, LogObstructionError, SeriesDenominatorError
from curvegkz.series import (
    POLAR_WORK_BUDGET,
    FiniteSeries,
    TruncatedSeries,
    _part_multisets,
    _proportional,
    annihilation_check,
    coincidence_of_line_solutions,
    default_step_bound,
    parametric_derivative,
    polar_line_solution,
    series_for_exponent,
    solution_basis_at_point,
)
from curvegkz.toric import ORDER_NAMES, fake_exponents, toric_ideal_groebner

A0134 = CurveMatrix([0, 1, 3, 4])
A0145 = CurveMatrix([0, 1, 4, 5])
A023 = CurveMatrix([0, 2, 3])
A0234 = CurveMatrix([0, 2, 3, 4])


def test_b_matrix_frozen():
    assert b_matrix(A0134) == {1: (3, 4, 1), 2: (1, 4, 3)}
    assert b_matrix(A0145) == {1: (4, 5, 1), 2: (1, 5, 4)}
    assert b_matrix(A023) == {1: (1, 3, 2)}


def test_ordered_partitions_brute():
    for A in (A0134, A023):
        for facet in (FACET_0, FACET_K):
            values = sorted(
                (A.exponents[i] for i in range(1, A.n))
                if facet == FACET_0
                else (A.k - A.exponents[i] for i in range(A.n - 1))
            )
            for N in range(0, 9):
                brute = sorted(
                    seq
                    for length in range(N + 1)
                    for seq in itertools.product(values, repeat=length)
                    if sum(seq) == N
                )
                assert ordered_partitions(A, facet, N) == brute, (A, facet, N)


def _parts_for(A, facet):
    if facet == FACET_0:
        return {A.exponents[i]: i for i in range(1, A.n)}
    return {A.k - A.exponents[i]: i for i in range(A.n - 1)}


def _brute_polar_solution(A, facet, N):
    # the defining sum: one contribution per ordered sequence of parts, with
    # per-prefix denominators, accumulated into offset-vector terms
    coord = _parts_for(A, facet)
    base = 0 if facet == FACET_0 else A.n - 1
    terms = {}
    for seq in ordered_partitions(A, facet, N):
        coeff = PolyQ([1])
        partial = 0
        for j, part in enumerate(seq):
            partial += part
            coeff = coeff * part  # weight equals the part value
            if j + 1 < len(seq):
                coeff = coeff * PolyQ([-(j + 1), 1]) * Fraction(1, N - partial)
        o = [0] * A.n
        o[base] = -len(seq)
        for part in seq:
            o[coord[part]] += 1
        key = tuple(o)
        terms[key] = terms.get(key, PolyQ()) + coeff
    return {o: c for o, c in terms.items() if not c.is_zero()}


@pytest.mark.parametrize("exps", [(0, 1, 3, 4), (0, 1, 4, 5), (0, 2, 3), (0, 2, 3, 4)])
def test_polar_line_solution_matches_brute(exps):
    A = CurveMatrix(list(exps))
    for facet in (FACET_0, FACET_K):
        for N in range(0, 9):
            sol = polar_line_solution(A, facet, N)
            assert expand_factored(sol) == _brute_polar_solution(A, facet, N), (exps, facet, N)


def test_polar_line_solution_frozen_shapes():
    # facet-k level 3: 3 x2 x4^(lam-1) + (lam-1)(lam-2)/2 x3^3 x4^(lam-3)
    sol = polar_line_solution(A0134, FACET_K, 3)
    assert (sol.terms, sol.start) == ({(0, 1, 0, -1): 3, (0, 0, 3, -3): Fraction(1, 2)}, 1)
    assert expand_factored(sol) == {
        (0, 1, 0, -1): PolyQ([3]),
        (0, 0, 3, -3): PolyQ([-1, 1]) * PolyQ([-2, 1]) * Fraction(1, 2),
    }
    # facet-0 level 2: (lam-1) x1^(lam-2) x2^2, with (lam-1) stripped off
    sol2 = polar_line_solution(A0134, FACET_0, 2)
    assert expand_factored(sol2) == {(-2, 2, 0, 0): PolyQ([-1, 1])}
    stripped = sol2.stripped()
    assert stripped.start == 2
    assert factor_run(sol2.start, stripped.start) == PolyQ([-1, 1])
    assert expand_factored(stripped) == {(-2, 2, 0, 0): PolyQ([1])}
    # facet-0 level 4, mixed term x2 x3: the two orderings (1,3) and (3,1)
    # carry different denominators and sum to 4 (lam - 1)
    sol4 = polar_line_solution(A0134, FACET_0, 4)
    assert expand_factored(sol4)[(-2, 1, 1, 0)] == PolyQ([-4, 4])
    # level 0 is the constant solution
    sol0 = polar_line_solution(A0134, FACET_0, 0)
    assert expand_factored(sol0) == {(0, 0, 0, 0): PolyQ([1])}


_INVARIANT_SCRIPT = """
from curvegkz.curve import CurveMatrix
from curvegkz.series import FiniteSeries
A = CurveMatrix([0, 1, 3, 4])
FiniteSeries(A, "facet-0", 2, {(-2, 2, 0, 0): 1}, 2)
try:
    FiniteSeries(A, "facet-0", 2, {(-2, 2, 0, 0): 1}, 3)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_finite_series_refuses_a_run_past_its_term(flags):
    # the term has c = 2 parts: a run from start 3 would end before it
    # starts, and the scalar annihilation check needs start <= c.  The check
    # raises ValueError, so python -O keeps it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _INVARIANT_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "offset (-2, 2, 0, 0) has fewer than 3 base parts, the start of its run\n"


def test_part_multisets_match_ordered_partitions_and_stop_at_the_budget():
    # the oracle's multisets in lexicographic order, with work sum(c^2);
    # below that work the listing is the prefix whose work first passes
    # the budget
    for A in (A0134, A0145, A023, A0234):
        for facet in (FACET_0, FACET_K):
            parts = facet_parts(A, facet)
            for N in range(4 * A.k):
                seqs = ordered_partitions(A, facet, N)
                expected = sorted({tuple(seq.count(v) for _, v in parts) for seq in seqs})
                works = list(itertools.accumulate(sum(m) ** 2 for m in expected))
                total = works[-1] if works else 0
                assert _part_multisets(parts, N, total) == (expected, total), (A, facet, N)
                for budget in sorted({b for b in (0, 1, total // 2, total - 1) if 0 <= b < total}):
                    stop = next(i for i, w in enumerate(works) if w > budget)
                    got = _part_multisets(parts, N, budget)
                    assert got == (expected[: stop + 1], works[stop]), (A, facet, N, budget)


# levels whose solutions take from 4.6 s to hours to build, strip and check;
# on the last, a listing that stepped through every multiplicity but the last
# would run for minutes before its first multiset
COSTLY_POLAR_LEVELS = [
    ((0, 1, 2, 3, 5, 8), FACET_0, 58),
    ((0, 2, 3), FACET_0, 377),
    ((0, 1, 100), FACET_K, 98999),
    ((0, 1, 3, 4), FACET_K, 162),
    ((0, 1, 3, 4), FACET_K, 400),
    ((0, 1, 100), FACET_K, 9999997),
    ((0, 1, 2, 4, 6), FACET_0, 10000001),
]

_REFUSAL_SCRIPT = """
import json, sys, time
from curvegkz.curve import CurveMatrix
from curvegkz.series import polar_line_solution
for exps, facet, level in json.loads(sys.argv[1]):
    start = time.perf_counter()
    try:
        polar_line_solution(CurveMatrix(exps), facet, level)
        message = None
    except ValueError as exc:
        message = str(exc)
    print(json.dumps([message, time.perf_counter() - start]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_costly_polar_levels_are_refused_within_a_second(flags):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _REFUSAL_SCRIPT, json.dumps(COSTLY_POLAR_LEVELS)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(COSTLY_POLAR_LEVELS)
    for (_, facet, level), line in zip(COSTLY_POLAR_LEVELS, lines):
        message, elapsed = json.loads(line)
        found = re.fullmatch(
            rf"the level-{level} line of {facet} needs coefficient work of at least (\d+)"
            rf" \(.*\), past the budget of {POLAR_WORK_BUDGET}",
            message or "",
        )
        assert found and int(found.group(1)) > POLAR_WORK_BUDGET, (level, message)
        assert elapsed < 1.0, (level, elapsed)


# the facet-k line of 0,1,3,4 through (100000, 3) has level 399997; its
# first multiset, 399997 parts of 1, already passes the budget.  On 0,1,100
# the level is 9999997, and the refusal must come before the Groebner bases
# of 0,1,100, which take about a second to build
HUGE_POLAR_POINTS = [("0,1,3,4", 399997), ("0,1,100", 9999997)]


@pytest.mark.parametrize(
    "flags,matrix,level",
    [
        pytest.param(flags, matrix, level, id=name if matrix == "0,1,3,4" else f"{name}-{matrix}")
        for matrix, level in HUGE_POLAR_POINTS
        for flags, name in (([], "plain"), (["-O"], "optimized"))
    ],
)
def test_huge_polar_level_is_refused_up_front(flags, matrix, level):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "curvegkz.cli", "verify", "-A", matrix, "-b", "100000,3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    found = re.search(rf"level-{level} line of facet-k needs coefficient work of at least (\d+)", proc.stderr)
    assert found and int(found.group(1)) > POLAR_WORK_BUDGET, proc.stderr
    assert f"past the budget of {POLAR_WORK_BUDGET}" in proc.stderr
    assert elapsed < 1.0


def test_finite_solution_monomials_and_normalization():
    sol = polar_line_solution(A0134, FACET_K, 3)
    lam = Fraction(1)
    mono = sol.monomials(lam)
    # at lam = 1 the x3^3 coefficient (lam-1)(lam-2)/2 vanishes
    assert mono == [(Fraction(3), (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))]


def test_finite_solution_annihilation_identity():
    # the operator identity holds for every term pair, at the level of
    # polynomials in lam, for every level in range
    for A in (A0134, A0145, A023, A0234):
        for facet in (FACET_0, FACET_K):
            for N in range(0, 8):
                sol = polar_line_solution(A, facet, N)
                if not sol.terms:
                    continue
                rep = annihilation_check(A, sol)
                assert rep.ok, (A, facet, N, rep.failures)


def test_series_coefficient_formula():
    # top exponent at beta=(1/3, 1/5) is v=(17/60, 0, 0, 1/20); for the step
    # u=(-1,1,1,-1) the coefficient is v1 * v4 exactly
    fe = next(
        f
        for f in fake_exponents(A0134, (Fraction(1, 3), Fraction(1, 5)), "d1-first")
        if f.pair.r == (0, 0, 0, 0)
    )
    assert fe.v == (Fraction(17, 60), Fraction(0), Fraction(0), Fraction(1, 20))
    ts = series_for_exponent(A0134, fe, bound=6)
    assert ts.terms[(0, 0, 0, 0)] == 1
    assert ts.terms[(-1, 1, 1, -1)] == Fraction(17, 60) * Fraction(1, 20)
    assert ts.terms[(-1, 1, 1, -1)] == Fraction(17, 1200)


def test_series_denominator_error():
    # at the rank jump the top with v=(0,0,2,-1) cannot be continued: the
    # first raise in coordinate 4 divides by v4 + 1 = 0
    fe = next(
        f
        for f in fake_exponents(A0134, (Fraction(1), Fraction(2)), "d1-first")
        if f.pair.r == (0, 0, 2, 0)
    )
    with pytest.raises(SeriesDenominatorError) as info:
        series_for_exponent(A0134, fe)
    assert info.value.coordinate == 3
    with pytest.raises(SeriesDenominatorError):
        for fe in fake_exponents(A0134, (Fraction(1), Fraction(2)), "d1-first"):
            series_for_exponent(A0134, fe)


def test_default_step_bound():
    assert default_step_bound(A0134) == 16
    assert default_step_bound(A023) == 12


def test_canonical_series_annihilated_generic():
    beta = (Fraction(1, 3), Fraction(1, 5))
    series = [series_for_exponent(A0134, fe, 10) for fe in fake_exponents(A0134, beta, "d1-first")]
    assert len(series) == 4
    total_checked = 0
    for ts in series:
        rep = annihilation_check(A0134, ts)
        assert rep.ok, rep.failures
        total_checked += rep.checked
    assert total_checked > 0


def test_annihilation_failures_match_fractions_when_every_coefficient_changes():
    # each coefficient scaled by its own factor and every third term dropped,
    # so that most residuals fail, some with one side missing: the integer
    # check lists them in the order and with the values of the
    # one-Fraction-per-factor sums
    for name in ORDER_NAMES:
        for fe in fake_exponents(A0134, (Fraction(1, 3), Fraction(1, 5)), name):
            ts = series_for_exponent(A0134, fe, 8)
            terms = {u: c * (i + 2) for i, (u, c) in enumerate(ts.terms.items()) if i % 3 != 1}
            ts = TruncatedSeries(A0134, ts.v, ts.pair, ts.bound, terms)
            rep = annihilation_check(A0134, ts, name)
            expected = truncated_annihilation_fractions(ts, toric_ideal_groebner(A0134, name).generators)
            assert expected[2] and (rep.checked, rep.skipped, rep.failures) == expected


def test_parametric_derivative():
    sol = polar_line_solution(A0134, FACET_0, 2)
    got = parametric_derivative(sol, Fraction(1), 1)
    assert got == [(Fraction(1), (Fraction(-1), Fraction(2), Fraction(0), Fraction(0)))]
    with pytest.raises(LogObstructionError) as info:
        parametric_derivative(sol, Fraction(1), 2)
    assert info.value.order_found == 1 and info.value.order_needed == 2
    # a coefficient that does not vanish at all blocks even the first
    # derivative
    sol3 = polar_line_solution(A0134, FACET_K, 3)
    with pytest.raises(LogObstructionError):
        parametric_derivative(sol3, Fraction(1), 1)


@pytest.mark.parametrize("q", [-1, -2, 1.0, Fraction(1), "1", None])
def test_parametric_derivative_rejects_bad_orders(q):
    # a negative order never fails the multiplicity test, mult < q, so the
    # order is checked on its own
    sol = polar_line_solution(A0134, FACET_K, 3)
    with pytest.raises(ValueError, match="derivative order"):
        parametric_derivative(sol, 2, q)


def _coincidence(A, beta):
    """The coincidence of the two line solutions at a crossing, read off the
    lines of its solution basis as verify_report reads them."""
    line = {facet: fs for facet, _, fs in solution_basis_at_point(A, beta).lines}
    assert sorted(line) == [FACET_0, FACET_K], beta
    return coincidence_of_line_solutions(beta, line[FACET_0], line[FACET_K])


def test_coincidence_verdicts_frozen():
    res = _coincidence(A0134, (Fraction(1), Fraction(2)))
    assert (res.verdict, res.point_type) == ("independent", "rank-jumping")
    assert (res.level_0, res.level_k) == (2, 2)
    res = _coincidence(A0134, (Fraction(2), Fraction(2)))
    assert (res.verdict, res.point_type) == ("proportional", "interior")
    res = _coincidence(A0134, (Fraction(1, 2), Fraction(1)))
    assert (res.verdict, res.point_type) == ("independent", "non-integral")
    res = _coincidence(A023, (Fraction(1), Fraction(2)))
    assert (res.verdict, res.point_type) == ("proportional", "interior")


def test_solution_basis_at_rank_jump():
    basis = solution_basis_at_point(A0134, (Fraction(1), Fraction(2)))
    assert len(basis) == 5
    assert len(basis.discarded) == 1
    assert basis.discarded[0][0].pair.r == (0, 0, 2, 0)
    kinds = sorted(e.kind for e in basis)
    assert kinds == ["finite", "finite", "series", "series", "series"]
    finite_supports = sorted(
        tuple(e.monomials()[0][1]) for e in basis if e.kind == "finite"
    )
    assert finite_supports == [
        (Fraction(-1), Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(2), Fraction(-1)),
    ]


@pytest.mark.parametrize(
    "beta,count",
    [
        ((Fraction(1), Fraction(1)), 4),
        ((Fraction(2), Fraction(2)), 4),
        ((Fraction(1, 2), Fraction(1)), 4),
        ((Fraction(3), Fraction(5)), 4),
        ((Fraction(0), Fraction(0)), 4),
        ((Fraction(-1), Fraction(-2)), 4),
    ],
)
def test_solution_basis_counts_0134(beta, count):
    basis = solution_basis_at_point(A0134, beta)
    assert len(basis) == count
    for e, f in itertools.combinations(basis, 2):
        assert not _proportional(e.monomials(), f.monomials())


def test_solution_basis_merges_coincident_lines():
    # at (2,2) both polar lines carry proportional solutions; they merge into
    # one element tagged with both lines
    basis = solution_basis_at_point(A0134, (Fraction(2), Fraction(2)))
    merged = [e for e in basis if "coincident" in e.tags]
    assert len(merged) == 1
    tags = " ".join(merged[0].tags)
    assert "facet-0 line level 2" in tags and "facet-k line level 6" in tags
    # the merged line keeps its solution in ``lines``
    assert [(facet, N) for facet, N, _ in basis.lines] == [(FACET_0, 2), (FACET_K, 6)]
    for facet, N, fs in basis.lines:
        built = polar_line_solution(A0134, facet, N).stripped()
        assert (fs.terms, fs.start) == (built.terms, built.start)


def test_basis_count_error_carries_the_assembled_basis(monkeypatch):
    # with the rank patched one short, the basis at (0, 2) on 0,1,3,4 has
    # one solution too many: three top series and the line solution of
    # level 2, which stands in for the top series that hit a zero denominator
    rank = curvegkz.series.rank
    monkeypatch.setattr(curvegkz.series, "rank", lambda A, beta: rank(A, beta) - 1)
    with pytest.raises(BasisCountError) as info:
        solution_basis_at_point(A0134, (Fraction(0), Fraction(2)))
    err = info.value
    assert isinstance(err, ArithmeticError)
    assert str(err) == (
        "assembled 4 solutions but the rank at (Fraction(0, 1), Fraction(2, 1)) is 3"
    )
    basis = err.basis
    assert (len(basis), basis.expected_rank, len(basis.discarded)) == (4, 3, 1)
    assert isinstance(basis.discarded[0][1], SeriesDenominatorError)
    assert [e.kind for e in basis] == ["series", "series", "series", "finite"]
    assert [(facet, N) for facet, N, _ in basis.lines] == [(FACET_0, 2)]
    assert basis.entries[-1].source is basis.lines[0][2]


@pytest.mark.xfail(raises=BasisCountError, strict=True, reason="polar-line basis count, ROADMAP direction 1")
def test_polar_point_basis_count_023():
    # on the facet-k line of level 14 the line solution joins the three top
    # series although the point is not a rank jump, so 4 solutions are
    # assembled where the rank is 3
    assert len(solution_basis_at_point(A023, (Fraction(4), Fraction(-2)))) == 3


def test_solution_basis_023():
    for beta in ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0))):
        basis = solution_basis_at_point(A023, beta)
        assert len(basis) == 3


def test_basis_element_evaluate_consistent():
    basis = solution_basis_at_point(A0134, (Fraction(1), Fraction(2)))
    x = (1.1, 0.7, 0.35, 1.4)
    for e in basis:
        if e.kind != "finite":
            # a series element and its truncated series share one evaluator
            assert e.evaluate(x) == e.source.evaluate(x)
            continue
        direct = sum(
            complex(c) * (x[0] ** float(ex[0])) * (x[1] ** float(ex[1]))
            * (x[2] ** float(ex[2])) * (x[3] ** float(ex[3]))
            for c, ex in e.monomials()
        )
        assert abs(e.evaluate(x) - direct) < 1e-12 * max(1.0, abs(direct))
