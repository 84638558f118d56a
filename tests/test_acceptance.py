"""End-to-end acceptance battery.

Thirteen scenario tests, one per headline behavior, with pinned tolerances
and time budgets.  Expected values are either computed here by an
independent route (closed forms, direct formulas, mpmath) or frozen from
the dual-route unit suites in this directory.
"""

import random
import time
from fractions import Fraction

import mpmath

from curvegkz.analytic import (
    euler_mellin,
    extension_shift,
    polar_line_match_check,
    power_series_coefficient,
    residue_at_infinity,
    residue_at_zero,
    residue_integral,
    roots_and_components,
    sample_structured_point,
)
from curvegkz.cohomology import cocycle_generator, h1_support
from curvegkz.curve import (
    FACET_0,
    FACET_K,
    CurveMatrix,
    facet_semigroup,
    is_rank_jumping,
    rank_jumping_parameters,
)
from curvegkz.errors import SeriesDenominatorError
from curvegkz.series import (
    annihilation_check,
    coincidence_at_intersection,
    polar_line_solution,
    series_for_exponent,
)
from curvegkz.toric import fake_exponents, special_lines, standard_pairs

A0134 = CurveMatrix([0, 1, 3, 4])
A0145 = CurveMatrix([0, 1, 4, 5])
A023 = CurveMatrix([0, 2, 3])


def test_criterion_01_exceptional_set():
    t0 = time.monotonic()
    got = rank_jumping_parameters(A0134)
    elapsed = time.monotonic() - t0
    assert got == [(1, 2)]
    assert elapsed < 1.0


def test_criterion_02_finite_solution_pairs():
    # at (1/2, 1) both polar lines carry bare monomial solutions
    s0 = polar_line_solution(A0134, FACET_0, 1).stripped()
    assert s0.monomials(Fraction(1, 2)) == [
        (Fraction(1), (Fraction(-1, 2), Fraction(1), Fraction(0), Fraction(0)))
    ]
    sk = polar_line_solution(A0134, FACET_K, 1).stripped()
    assert sk.monomials(Fraction(1, 2)) == [
        (Fraction(1), (Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)))
    ]
    # at (1, 2) both level-2 lines lose the common factor (lam - 1) to
    # stripping, which moves the start of their factor runs from 1 to 2, and
    # then evaluate to a single monomial each
    s0 = polar_line_solution(A0134, FACET_0, 2).stripped()
    assert s0.start == 2
    assert s0.monomials(Fraction(1)) == [
        (Fraction(1), (Fraction(-1), Fraction(2), Fraction(0), Fraction(0)))
    ]
    sk = polar_line_solution(A0134, FACET_K, 2).stripped()
    assert sk.start == 2
    assert sk.monomials(Fraction(1)) == [
        (Fraction(1), (Fraction(0), Fraction(0), Fraction(2), Fraction(-1)))
    ]


def test_criterion_03_standard_pairs_and_symbolic_exponent():
    d1 = standard_pairs(A0134, "d1-first")
    assert sum(1 for p in d1 if p.is_top) == 4
    assert [p.r for p in d1 if not p.is_top] == [(0, 2, 0, 0)]
    dn = standard_pairs(A0134, "dn-first")
    assert sum(1 for p in dn if p.is_top) == 4
    assert sorted(p.r for p in dn if not p.is_top) == [
        (0, 0, 1, 0),
        (0, 0, 2, 0),
        (1, 0, 1, 0),
    ]
    # the starting exponent of the top pair (0, 1, 0, 0) is affine in beta,
    # so its closed form holds everywhere once it holds at three affinely
    # independent points
    for b1, b2 in [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(5, 2))]:
        tops = {
            fe.pair.r: fe.v for fe in fake_exponents(A0134, (b1, b2), "d1-first") if fe.is_top
        }
        assert tops[(0, 1, 0, 0)] == (
            b1 - (b2 + 3) / 4,
            Fraction(1),
            Fraction(0),
            (b2 - 1) / 4,
        )


def test_criterion_04_special_line_arrangements():
    full = special_lines(A0134, ["d1-first", "dn-first"])
    assert [(L.facet, L.level) for L in full.lines] == [
        (FACET_0, 2),
        (FACET_K, 1),
        (FACET_K, 2),
        (FACET_K, 5),
    ]
    minimal = special_lines(A0134, ["d1-first", "dn-first", "d1-mirror"])
    assert [(L.facet, L.level) for L in minimal.lines] == [(FACET_0, 2), (FACET_K, 2)]
    assert minimal.meets == ((Fraction(1), Fraction(2)),)


def test_criterion_05_coincidence_trichotomy_sweep():
    t0 = time.monotonic()
    crossings = 0
    for exps in ([0, 1, 3, 4], [0, 1, 4, 5], [0, 2, 3]):
        A = CurveMatrix(exps)
        Gk = facet_semigroup(A, FACET_K)
        G0 = facet_semigroup(A, FACET_0)
        for N0 in range(0, 13):
            if N0 not in Gk:
                continue
            for Nk in range(0, 13):
                if Nk not in G0:
                    continue
                b1 = Fraction(N0 + Nk, A.k)
                beta = (b1, Fraction(N0))
                res = coincidence_at_intersection(A, beta)
                if b1.denominator != 1:
                    want = "independent"
                elif is_rank_jumping(A, beta):
                    want = "independent"
                else:
                    want = "proportional"
                assert res.verdict == want, (exps, beta, res.verdict)
                crossings += 1
    elapsed = time.monotonic() - t0
    assert crossings > 400
    assert elapsed < 10.0


def test_criterion_06_seeded_annihilation_battery():
    rng = random.Random(60134)
    done = 0
    while done < 25:
        beta = (
            Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
        )
        built = 0
        total_checked = 0
        for fe in fake_exponents(A0134, beta, "d1-first"):
            if not fe.is_top:
                continue
            try:
                ts = series_for_exponent(A0134, fe, bound=10)
            except SeriesDenominatorError:
                continue
            rep = annihilation_check(A0134, ts)
            assert rep.ok, (beta, fe.v, rep.failures)
            total_checked += rep.checked
            built += 1
        assert built >= 1, beta
        assert total_checked > 0, beta
        done += 1


def test_criterion_07_top_exponent_differences_never_integral():
    from math import gcd

    rng = random.Random(70134)
    count = 0
    while count < 200:
        k = rng.randint(2, 8)
        n_mids = rng.randint(0, 2)
        mids = sorted(rng.sample(range(1, k), min(n_mids, k - 1)))
        exps = sorted(set([0] + mids + [k]))
        if len(exps) < 3:
            continue
        g = 0
        for e in exps[1:]:
            g = gcd(g, e)
        if g != 1:
            continue
        A = CurveMatrix(exps)
        beta = (
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        )
        tops = [fe for fe in fake_exponents(A, beta, "d1-first") if fe.is_top]
        assert len(tops) == A.k
        for i in range(len(tops)):
            for j in range(i):
                diff = [a - c for a, c in zip(tops[i].v, tops[j].v)]
                assert not all(d.denominator == 1 for d in diff), (exps, beta)
        count += 1


def test_criterion_08_two_column_quadrature_grid():
    A01 = CurveMatrix([0, 1])
    x = (1.7, 0.9)
    g = mpmath.gamma
    t0 = time.monotonic()
    for i in range(1, 6):
        b2 = -0.3 * i
        for j in range(1, 6):
            b1 = b2 - 0.45 * j
            got = euler_mellin(A01, (b1, b2), x, 0.0)
            want = complex(
                mpmath.power(x[0], b1 - b2)
                * mpmath.power(x[1], b2)
                * g(-b2)
                * g(b2 - b1)
                / g(-b1)
            )
            assert abs(got - want) <= 1e-8 * abs(want), (b1, b2)
    assert time.monotonic() - t0 < 5.0


def test_criterion_09_loop_battery_three_points():
    beta = (-2.0, -3.0)
    for seed in (3, 11, 42):
        x = sample_structured_point(A0134, seed)
        rc = roots_and_components(A0134, x)
        rays = [extension_shift(A0134, beta, x, th) for th in rc.ray_angles]
        loops = [residue_integral(A0134, beta, x, i) for i in range(4)]
        res0 = residue_at_zero(A0134, beta, x)
        resinf = residue_at_infinity(A0134, beta, x)
        scale = max(max(abs(v) for v in rays), max(abs(v) for v in loops))
        for i in range(4):
            diff = rays[i] - rays[(i + 1) % 4]
            assert abs(diff - loops[i]) <= 1e-6 * scale, (seed, i)
        assert abs(res0) <= 1e-6 * scale
        assert abs(resinf) <= 1e-6 * scale
        assert abs(res0 + sum(loops) + resinf) <= 1e-6 * scale


def test_criterion_10_polar_residues_at_negative_parameter():
    x = sample_structured_point(A0134, 3)
    lam = -1.0
    # level 1: the predicted residue is the monomial x1^(lam-1) x2 with
    # lam = -1, written out here without series code
    expected_1 = complex(x[0]) ** (-2.0) * complex(x[1])
    res1 = polar_line_match_check(A0134, FACET_0, 1, lam, x)
    assert abs(res1.contour_value - expected_1) <= 1e-6 * abs(expected_1)
    assert res1.rel_error <= 1e-6
    # level 0: the predicted residue is minus the bare power x1^lam
    expected_0 = -complex(x[0]) ** (-1.0)
    res0 = polar_line_match_check(A0134, FACET_0, 0, lam, x)
    assert abs(res0.contour_value - expected_0) <= 1e-6 * abs(expected_0)
    assert res0.rel_error <= 1e-6


def test_criterion_11_residue_component_independence_and_origin_loops():
    # (a) the parameter-plane residue is the same from every angular
    # component of the coefficient point
    x = sample_structured_point(A0134, 3)
    rc = roots_and_components(A0134, x)
    values = [
        polar_line_match_check(A0134, FACET_0, 1, -1.0, x, theta=th).contour_value
        for th in rc.ray_angles
    ]
    scale = max(abs(v) for v in values)
    for i in range(len(values)):
        for j in range(i):
            assert abs(values[i] - values[j]) <= 1e-6 * scale, (i, j)
    # (b) honest origin loops on the gapped curve 0,2,3: the z-coefficient
    # structure of f^b1 dictates which levels carry a residue
    xg = sample_structured_point(A023, 7)
    b1 = -1.3
    two_pi_i = 2j * 3.141592653589793
    # level 1 is a gap of the exponent support: no z^1 term exists
    r_gap = residue_at_zero(A023, (b1, 1.0), xg)
    # level 2 control: [z^2] f^b1 = b1 x1^(b1 - 1) x2
    r_ctrl = residue_at_zero(A023, (b1, 2.0), xg)
    want = two_pi_i * b1 * complex(xg[0]) ** (b1 - 1.0) * complex(xg[1])
    taylor = two_pi_i * power_series_coefficient(A023, b1, 2, xg)
    assert abs(r_ctrl - want) <= 1e-6 * abs(want)
    assert abs(r_ctrl - taylor) <= 1e-6 * abs(taylor)
    assert abs(r_gap) <= 1e-6 * abs(r_ctrl)
    # negative levels are analytic at the origin
    r_neg = residue_at_zero(A023, (b1, -1.0), xg)
    assert abs(r_neg) <= 1e-6 * abs(r_ctrl)


def test_criterion_12_cohomology_support_and_certificates():
    for A in (A0134, A0145, A023):
        assert h1_support(A) == rank_jumping_parameters(A)
    data = cocycle_generator(A0134, (1, 2))
    assert data.v == (-1, 2, 0, 0)
    assert data.v_prime == (0, 0, 2, -1)
    assert data.clearing == 1
    assert data.certified
    data = cocycle_generator(A0145, (1, 2))
    assert data.v_prime == (0, 0, 3, -2)
    assert data.clearing == 2
    for alpha in h1_support(A0145):
        assert cocycle_generator(A0145, alpha).certified, alpha


def test_criterion_13_homogeneity_and_shift_order_independence():
    x = sample_structured_point(A0134, 7)
    theta = roots_and_components(A0134, x).ray_angles[0]
    beta = (-1.1, -0.6)
    base = euler_mellin(A0134, beta, x, theta)
    for s, t in ((1.3, 0.8), (0.7, 1.15)):
        scaled = tuple(s * t ** A0134.exponents[i] * x[i] for i in range(4))
        got = euler_mellin(A0134, beta, scaled, theta)
        want = s ** beta[0] * t ** beta[1] * base
        assert abs(got - want) <= 1e-6 * abs(want), (s, t)
    for beta in ((0.3 + 0.1j, 0.7 - 0.2j), (1.6, 0.35), (-0.4 + 0.2j, 1.45 + 0.3j)):
        v1 = extension_shift(A0134, beta, x, theta, order="facet-0-first")
        v2 = extension_shift(A0134, beta, x, theta, order="facet-k-first")
        assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v1)), beta
