"""Numerical engine: ray integrals, analytic continuation by parameter
shifts, loop calculus in the coefficient plane, and residues across polar
lines.

mpmath serves as the oracle where closed forms exist (the two-column case
reduces to a Beta-type quotient of Gamma factors, and Taylor coefficients
of fractional powers are computable independently).
"""

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _shift_plan_per_order,
    euler_mellin_untabled,
    extension_shift_per_order,
    loop_integral_lone,
    quiet_radius_lone,
    residue_loops_lone,
    sample_structured_point_by_numpy,
)

from curvegkz import analytic
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
from curvegkz.curve import FACET_0, FACET_K, CurveMatrix
from curvegkz.errors import PolarLineError, QuadratureError
from curvegkz.report import verify_report

A0134 = CurveMatrix([0, 1, 3, 4])
A023 = CurveMatrix([0, 2, 3])
A01 = CurveMatrix([0, 1])


def _f(A, x, z):
    return sum(complex(x[i]) * z ** A.exponents[i] for i in range(A.n))


def test_roots_and_components_structure():
    x = sample_structured_point(A0134, 3)
    rc = roots_and_components(A0134, x)
    assert len(rc.roots) == 4
    for rho in rc.roots:
        assert abs(_f(A0134, x, rho)) < 1e-9 * rc.scale
    assert list(rc.angles) == sorted(rc.angles)
    # components tile a full turn and each ray angle sits inside its component
    total = sum(hi - lo for lo, hi in rc.components)
    assert abs(total - 2 * math.pi) < 1e-12
    for (lo, hi), mid in zip(rc.components, rc.ray_angles):
        assert lo < mid < hi


def test_verify_session_caches_are_shared_and_bounded():
    # verify_report samples x with its seed, so a second call on the same
    # matrix finds the point, its roots and, here, every ray level cached
    caches = [sample_structured_point, analytic._roots_and_components, analytic._ray_nodes]
    for cache in caches:
        cache.cache_clear()
    verify_report(A023, (Fraction(1, 3), Fraction(5, 2)))
    before = [cache.cache_info() for cache in caches]
    verify_report(A023, (Fraction(7, 3), Fraction(9, 2)))
    after = [cache.cache_info() for cache in caches]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert all(a.hits > b.hits for a, b in zip(after, before))
    # a shared result cannot be changed by the caller that gets it
    rc = roots_and_components(A023, sample_structured_point(A023, 0))
    assert all(type(field) is tuple for field in (rc.roots, rc.angles, rc.components, rc.ray_angles))
    with pytest.raises(AttributeError):
        rc.ray_angles = (0.0,)
    for table in analytic._ray_nodes(A023, sample_structured_point(A023, 0), rc.ray_angles[0], 4.0, 0.2):
        if isinstance(table, tuple):
            table = table[0]
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    # a draw without an integer seed would be a fixed point once cached
    with pytest.raises(TypeError, match="must be an integer"):
        sample_structured_point(A023, None)
    # more keys than a cache holds: it stays at its bound
    for seed in range(analytic._POINT_CACHE_SIZE + 8):
        roots_and_components(A0134, sample_structured_point(A0134, seed))
        assert sample_structured_point.cache_info().currsize <= analytic._POINT_CACHE_SIZE
        assert analytic._roots_and_components.cache_info().currsize <= analytic._POINT_CACHE_SIZE
    x = sample_structured_point(A0134, 5)
    for j in range(analytic._NODE_CACHE_SIZE + 8):
        euler_mellin(A0134, (-1.1, -0.6), x, 0.01 * j)
        assert analytic._ray_nodes.cache_info().currsize <= analytic._NODE_CACHE_SIZE
    assert analytic._ray_nodes.cache_info().currsize == analytic._NODE_CACHE_SIZE


def test_entry_points_take_any_sequence_of_coefficients():
    # x becomes a tuple in front of the caches, so a list or a numpy array
    # gives the tuple's values bit for bit; each form starts on empty caches
    import numpy as np

    x = sample_structured_point(A0134, 2)
    theta = roots_and_components(A0134, x).ray_angles[0]
    outcomes = []
    for point in (x, list(x), np.array(x)):
        analytic._roots_and_components.cache_clear()
        analytic._ray_nodes.cache_clear()
        outcomes.append(
            (
                roots_and_components(A0134, point),
                euler_mellin(A0134, (-1.1, -0.6), point, theta),
                extension_shift(A0134, (Fraction(1, 3), Fraction(5, 2)), point, theta),
                residue_at_zero(A0134, (0.3, 2.0), point),
            )
        )
    values = [[v.hex() for c in out[1:] for v in (c.real, c.imag)] for out in outcomes]
    assert values[1] == values[0] and values[2] == values[0]
    assert outcomes[1][0] == outcomes[0][0] and outcomes[2][0] == outcomes[0][0]


def test_roots_rejects_degenerate_input():
    with pytest.raises(QuadratureError):
        roots_and_components(A0134, (0.0, 1.0, 1.0, 1.0))
    # a double root: f = (z - 1)^2 has x = (1, -2, 1) on the 0,1,2 curve
    with pytest.raises(QuadratureError):
        roots_and_components(CurveMatrix([0, 1, 2]), (1.0, -2.0, 1.0))


def test_sampler_shape_and_determinism():
    x = sample_structured_point(A0134, 11)
    y = sample_structured_point(A0134, 11)
    assert x == y
    assert 0.8 <= abs(x[0]) <= 1.2 and 0.8 <= abs(x[3]) <= 1.2
    assert 0.01 <= abs(x[1]) <= 0.05 and 0.01 <= abs(x[2]) <= 0.05
    assert x != sample_structured_point(A0134, 12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.one_of(st.integers(0, 2**130 - 1), st.integers(0, 2**63 - 1).map(np.int64), st.just(True)))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64 + 7)
@example(2**127)
@example(10**30)
@example(np.int64(2**63 - 1))
@example(True)
def test_sample_stream_is_numpy_pcg64(seed):
    # the draws of the copied stream and of numpy.random, on each range of
    # the sampler, from a seed of one to five 32-bit words
    for lo, hi in [(0.8, 1.2), (0.01, 0.05), (0.0, 2.0 * math.pi)]:
        ours = analytic._pcg64_uniform(seed)
        numpys = np.random.Generator(np.random.PCG64(seed)).uniform
        assert [ours(lo, hi).hex() for _ in range(64)] == [numpys(lo, hi).hex() for _ in range(64)]


@pytest.mark.parametrize("exps", [[0, 2, 3], [0, 1, 3, 4], [0, 2, 5, 7], [0, 2, 3, 5, 7]], ids=str)
def test_sampler_draws_the_points_of_numpy(exps):
    A = CurveMatrix(exps)
    for seed in range(51):
        want = sample_structured_point_by_numpy(A, seed)
        assert [_bits(v) for v in sample_structured_point(A, seed)] == [_bits(v) for v in want], seed


def test_sampler_refuses_a_float_seed_whatever_the_cache_holds():
    # points are cached by their seed and its type: a float seed meets no
    # cached point, also once its integer's point is cached, and an integer
    # of another type draws that same point
    sample_structured_point.cache_clear()
    with pytest.raises(TypeError, match="must be an integer"):
        sample_structured_point(A0134, 1.0)
    x = [_bits(v) for v in sample_structured_point(A0134, 1)]
    with pytest.raises(TypeError, match="must be an integer"):
        sample_structured_point(A0134, 1.0)
    for seed in (np.int64(1), True):
        assert [_bits(v) for v in sample_structured_point(A0134, seed)] == x


def test_sampler_rejects_a_negative_seed():
    for seed in (-1, np.int64(-1), -(2**70)):
        with pytest.raises(ValueError, match="non-negative"):
            sample_structured_point(A0134, seed)
        with pytest.raises(ValueError):
            np.random.Generator(np.random.PCG64(seed))


def _beta_closed_form(b1, b2, x1, x2):
    # ray integral of (x1 + x2 z)^b1 z^(-b2) dz/z for positive coefficients
    g = mpmath.gamma
    val = (
        mpmath.power(x1, b1 - b2)
        * mpmath.power(x2, b2)
        * g(-b2)
        * g(b2 - b1)
        / g(-b1)
    )
    return complex(val)


def test_two_column_ray_integral_matches_gamma_quotient():
    x = (1.7, 0.9)
    for b1, b2 in [(-1.3, -0.7), (-2.6, -0.35), (-1.2 + 0.3j, -0.5 - 0.2j)]:
        got = euler_mellin(A01, (b1, b2), x, 0.0)
        want = _beta_closed_form(b1, b2, x[0], x[1])
        assert abs(got - want) <= 1e-8 * abs(want), (b1, b2)


def _lone_error(call, *args, **kwargs):
    """The error text a call raises, or None when it returns."""
    try:
        call(*args, **kwargs)
    except (PolarLineError, QuadratureError) as err:
        return str(err)
    return None


def test_ray_integral_rejects_outside_wedge():
    with pytest.raises(QuadratureError, match=re.escape("parameters (1.0, 1.0) outside the convergence wedge")):
        euler_mellin(A01, (1.0, 1.0), (1.0, 1.0), 0.0)
    # in a list the wedge is checked first, in list order, before any
    # quadrature: the error is the one the first pair outside the wedge
    # gives alone, also where a pair before it overflows on the first level
    x = (1e-3, 1e-3)
    inside, overflow = (-1.3, -0.7), (-150.0, -75.0)
    for pairs, outside in [
        ([(1.0, 1.0), inside], (1.0, 1.0)),
        ([inside, (-0.5, 0.2)], (-0.5, 0.2)),
        ([inside, (-0.5, -0.7), (1.0, 1.0)], (-0.5, -0.7)),
        ([overflow, inside, (1.0, 1.0)], (1.0, 1.0)),
    ]:
        with pytest.raises(QuadratureError) as err:
            euler_mellin(A01, pairs, x, 0.0)
        assert str(err.value) == _lone_error(euler_mellin, A01, outside, x, 0.0)
        assert str(err.value).endswith("outside the convergence wedge")


def test_ray_quadrature_errors_carry_the_state(monkeypatch):
    # a negative tolerance never accepts a value: the error names the pair,
    # the last level tried and the values of its last two levels
    beta = (-1.3, -0.7)
    monkeypatch.setattr(analytic, "_TOL", -1.0)
    with pytest.raises(QuadratureError) as err:
        euler_mellin(A01, beta, (1.7, 0.9), 0.0)
    message = str(err.value)
    assert message.startswith("ray quadrature failed to converge: beta = (-1.3, -0.7), S = 5.5, h = 0.000195")
    last = [complex(v) for v in re.fullmatch(r".*, last values (\S+) and (\S+)", message).groups()]
    want = _beta_closed_form(*beta, 1.7, 0.9)
    assert all(abs(v - want) <= 1e-5 * abs(want) for v in last)
    # an overflow names the pair that overflows, not only the first of the list
    overflow = "integrand overflow: parameters too deep outside the wedge: beta = (-160.0, -80.0), S = 4.0, h = 0.2"
    with pytest.raises(QuadratureError, match=re.escape(overflow)):
        euler_mellin(A01, [(-1.3, -0.7), (-160.0, -80.0)], (1e-3, 1e-3), 0.0)
    # a root on the ray fails every pair alike, so the error names the ray
    root = "curve root on or near the integration ray: theta = 0, S = 4.0, h = 0.2"
    with pytest.raises(QuadratureError, match=re.escape(root)):
        euler_mellin(A01, [beta, (-2.6, -0.35)], (1e-280, -1e-280), 0.0)
    # the origin loop of f = 1 + z at (2, 1) is 2 pi i [z^1] f^2 = 4 pi i; a
    # negative tolerance doubles it to 2^18 nodes, and the error names the
    # circle, the last node count and its last two values
    with pytest.raises(QuadratureError) as err:
        analytic._loop_integral(A01, (2, 1), (1.0, 1.0), [(0.0, 0.5, 1)])
    message = str(err.value)
    assert message.startswith("loop quadrature failed to converge: center = 0, radius = 0.5, nodes = 262144, ")
    last = [complex(v) for v in re.fullmatch(r".*, last values (\S+) and (\S+)", message).groups()]
    assert all(abs(v - 4j * math.pi) <= 1e-5 * 4 * math.pi for v in last)
    _fresh_node_cache(monkeypatch)
    monkeypatch.setattr(analytic, "_tracked_log_f", lambda *a: (None, "phase"))
    stabilize = "phase tracking failed to stabilize: beta = (-1.3, -0.7), S = 4.0, h = 0.000195"
    with pytest.raises(QuadratureError, match=re.escape(stabilize)):
        euler_mellin(A01, [beta, (-2.6, -0.35)], (1.7, 0.9), 0.0)


def test_batched_ray_quadrature_raises_the_first_failure():
    # f = 1e-3 (1 + z): at (-150, -75) and (-160, -80) the integrand
    # overflows on the first level, while the tail at (-0.5, -1e-3) decays
    # too slowly on every node range and fails only on the third.  A batch
    # raises the first failure in round order, the first row of the first
    # level that fails, and that is the error its pair gives alone
    x = (1e-3, 1e-3)
    tail, overflow, deeper = (-0.5, -1e-3), (-150.0, -75.0), (-160.0, -80.0)
    for pairs, failing in [
        ([overflow, tail], overflow),
        ([tail, overflow], overflow),
        ([tail, deeper, overflow], deeper),
        ([tail], tail),
    ]:
        for pair in pairs:
            with pytest.raises(QuadratureError):
                euler_mellin_untabled(A01, pair, x, 0.0)
        with pytest.raises(QuadratureError) as err:
            euler_mellin(A01, pairs + [(-1.3, -0.7)], x, 0.0)
        assert str(err.value) == _lone_error(euler_mellin, A01, failing, x, 0.0)
    tail_error = "integrand tail does not decay: beta = (-0.5, -0.001), S = 7.0, h = 0.2"
    assert _lone_error(euler_mellin, A01, tail, x, 0.0) == tail_error


def test_ray_integral_homogeneity():
    x = sample_structured_point(A0134, 7)
    rc = roots_and_components(A0134, x)
    theta = rc.ray_angles[0]
    beta = (-1.1, -0.6)
    base = euler_mellin(A0134, beta, x, theta)
    s, t = 1.3, 0.8
    scaled = tuple(s * t ** A0134.exponents[i] * x[i] for i in range(4))
    # real positive t rescales the roots radially, so the same ray works
    val = euler_mellin(A0134, beta, scaled, theta)
    want = s ** beta[0] * t ** beta[1] * base
    assert abs(val - want) <= 1e-8 * abs(want)


def test_extension_shift_orders_agree():
    x = sample_structured_point(A0134, 5)
    theta = roots_and_components(A0134, x).ray_angles[0]
    beta = (0.3 + 0.1j, 0.7 - 0.2j)
    v1 = extension_shift(A0134, beta, x, theta, order="facet-0-first")
    v2 = extension_shift(A0134, beta, x, theta, order="facet-k-first")
    assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v1))
    with pytest.raises(ValueError):
        extension_shift(A0134, beta, x, theta, order="sideways")


def test_extension_shift_passthrough_in_wedge(monkeypatch):
    x = sample_structured_point(A0134, 5)
    theta = roots_and_components(A0134, x).ray_angles[0]
    beta = (-1.1, -0.6)
    direct = euler_mellin(A0134, beta, x, theta)
    batches = _record_batches(monkeypatch)
    via = extension_shift(A0134, beta, x, theta)
    assert via == direct
    assert batches == [[beta]]


def test_extension_shift_far_from_the_wedge(monkeypatch):
    # b1 = 1500.5 needs a chain of 1500 shifts; a recursive evaluation runs
    # out of stack long before that.  The two-column value has a closed form.
    x = (1.1, 0.9)
    beta = (1500.5, 0.3)
    batches = _record_batches(monkeypatch)
    got = extension_shift(A01, beta, x, 0.0)
    want = _beta_closed_form(*beta, *x)
    assert abs(got - want) <= 1e-9 * abs(want)
    assert [len(pairs) for pairs in batches] == [1]


def test_extension_shift_overflow_is_a_quadrature_error():
    # farther out the prefactor products leave the float range; the value
    # must not come back as nan
    with pytest.raises(QuadratureError, match="over 3003 levels overflowed"):
        extension_shift(A01, (3000.5, 0.3), (1.5, 0.9), 0.0)


def test_extension_shift_overflow_stops_at_the_first_infinite_level():
    # below level 0 the plan of (3000.5, 0.3) is one chain of shifts (m, 1),
    # and level m holds the continuation at (3000.5 - m, -0.7), computed as
    # it is on its own.  That value first leaves the float range at m = 1239,
    # so the continuation stops there, 1239 levels short of the top
    x = (1.5, 0.9)
    with pytest.raises(QuadratureError, match="the values of level 1239 are not finite"):
        extension_shift(A01, (3000.5, 0.3), x, 0.0)
    assert cmath.isfinite(extension_shift(A01, (3000.5 - 1240, -0.7), x, 0.0))
    with pytest.raises(QuadratureError, match="over 1764 levels overflowed .* level 0 are not finite"):
        extension_shift(A01, (3000.5 - 1239, -0.7), x, 0.0)


def test_extension_shift_polar_failure_is_honest():
    # beta2 a nonnegative integer sits on a facet-0 polar line; the shift
    # recursion must hit the vanishing denominator and say so
    x = sample_structured_point(A0134, 5)
    theta = roots_and_components(A0134, x).ray_angles[0]
    with pytest.raises(PolarLineError):
        extension_shift(A0134, (0.3, 2.0), x, theta)


def test_extension_shift_list_raises_stage_by_stage():
    # a list plans every job, then integrates the union of their wedge
    # shifts, then combines the jobs, and each stage raises its first error
    polar, far = (0.3, 2.0), (3000.5, 0.3)
    plan_error = _lone_error(extension_shift, A01, polar, (1.5, 0.9), 0.0)
    assert plan_error == "facet-0 denominator vanishes at shift (2, 2)"
    # a later job's plan error wins over an earlier job's quadrature failure
    # (the ray pi runs through the root -1) and over its overflow
    with pytest.raises(PolarLineError, match=re.escape(_lone_error(extension_shift, A01, polar, (1.0, 1.0), math.pi))):
        extension_shift(A01, [(2.5, 0.3), polar], (1.0, 1.0), math.pi, ["facet-0-first"] * 2)
    with pytest.raises(PolarLineError, match=re.escape(plan_error)):
        extension_shift(A01, [far, polar], (1.5, 0.9), 0.0, ["facet-0-first", "facet-k-first"])
    # among plan errors the first job in the list wins
    with pytest.raises(PolarLineError, match=re.escape(plan_error)):
        extension_shift(A01, [(1.5, 0.3), polar, (0.3, 1.0)], (1.5, 0.9), 0.0, ["facet-0-first"] * 3)
    # a quadrature failure of the second job wins over the overflow of the
    # first job's combination, which alone it raises
    converge = _lone_error(extension_shift, A01, (-0.5, -0.3 + 1000j), (1.5, 0.9), 0.0)
    assert converge.startswith("ray quadrature failed to converge")
    assert _lone_error(extension_shift, A01, far, (1.5, 0.9), 0.0).endswith("the values of level 1239 are not finite")
    with pytest.raises(QuadratureError, match=re.escape(converge)):
        extension_shift(A01, [far, (-0.5, -0.3 + 1000j)], (1.5, 0.9), 0.0, ["facet-0-first"] * 2)
    # with every quadrature done, the first job whose combination overflows
    with pytest.raises(QuadratureError, match="the values of level 1239 are not finite"):
        extension_shift(A01, [(1.5, 0.3), far, (2000.5, 0.3)], (1.5, 0.9), 0.0, ["facet-0-first"] * 3)
    with pytest.raises(ValueError, match="list of orders of the same length"):
        extension_shift(A01, [(1.5, 0.3)], (1.5, 0.9), 0.0, "facet-0-first")


def test_extension_shift_list_shares_the_wedge_shifts(monkeypatch):
    # the two orders of one point need many of the same wedge shifts; one
    # quadrature call integrates each of them once
    x = sample_structured_point(A023, 3)
    theta = roots_and_components(A023, x).ray_angles[0]
    beta = (12.3, 7.7)
    orders = ["facet-0-first", "facet-k-first"]
    batches = _record_batches(monkeypatch)
    lone = [extension_shift(A023, beta, x, theta, order=order) for order in orders]
    assert extension_shift(A023, [beta, beta], x, theta, orders) == lone
    assert len(batches) == 3
    assert set(batches[2]) == set(batches[0]) | set(batches[1])
    assert len(batches[2]) == len(set(batches[2])) < len(batches[0]) + len(batches[1])


A0257 = CurveMatrix([0, 2, 5, 7])
ORDERS = ["facet-0-first", "facet-k-first"]


def _shared_tail_case():
    """The heaviest generic point of the seed-0 verify scan, (118/3, 512/3)
    on 0,2,5,7, its point and ray, m*, and the levels of each order planned
    alone (the oracle's)."""
    x = sample_structured_point(A0257, 0)
    theta = roots_and_components(A0257, x).ray_angles[0]
    beta = (complex(118 / 3), complex(512 / 3))
    m_star = math.floor(beta[0].real + 2 * analytic._SHIFT_MARGIN / A0257.k) + 2
    alone = [_shift_plan_per_order(A0257, beta, x, order)[1] for order in ORDERS]
    return x, theta, beta, m_star, alone


def _lacking(levels, other, m_star):
    """The shifts of levels from m* on that the same level of other lacks."""
    return [
        level.keys() - (other[m].keys() if m < len(other) else set())
        for m, level in enumerate(levels)
        if m >= m_star
    ]


def test_shared_tail_plans_each_shift_once(monkeypatch):
    # the two orders share their levels from m* = 41 on.  The list call
    # plans the 7,430 shifts of facet-0-first, then the 3,280 of
    # facet-k-first below m* and the 1,801 from m* on that facet-0-first
    # lacks: 12,511 plan entries, where the orders planned apart make
    # 7,430 + 7,419.  A count, not a wall time
    x, theta, beta, m_star, alone = _shared_tail_case()
    assert ([len(levels) for levels in alone], m_star) == ([87, 102], 41)
    first, below = sum(map(len, alone[0])), sum(map(len, alone[1][:m_star]))
    lacking = sum(map(len, _lacking(alone[1], alone[0], m_star)))
    assert (first, below, lacking) == (7430, 3280, 1801)
    plans = []
    planner = analytic._shift_plan
    monkeypatch.setattr(analytic, "_shift_plan", lambda *args: plans.append(planner(*args)) or plans[-1])
    values = extension_shift(A0257, [beta, beta], x, theta, ORDERS)
    levels = {id(level): level for _, plan in plans for level in plan}
    assert sum(map(len, levels.values())) == first + below + lacking
    assert values == extension_shift_per_order(A0257, [beta, beta], x, theta, ORDERS)


def test_shared_tail_overflow_is_each_entry_own(monkeypatch):
    # an infinite wedge value makes every value it feeds not finite.  Made
    # infinite on the wedge shifts from m* on that one order alone plans,
    # it overflows that order only, which names its own level count, 87 or
    # 102, whichever order comes first in the list and combines the shared
    # levels; on the shifts both plan, it overflows the first entry
    x, theta, beta, m_star, alone = _shared_tail_case()

    def wedge_shifts(levels, lacking):
        return {
            (beta[0] - m, beta[1] - w)
            for m, shifts in enumerate(lacking, m_star)
            for w in shifts
            if levels[m][w] is None
        }

    own = [wedge_shifts(alone[j], _lacking(alone[j], alone[1 - j], m_star)) for j in range(2)]
    both = wedge_shifts(alone[0], [alone[0][m].keys() & alone[1][m].keys() for m in range(m_star, len(alone[0]))])
    assert all(own) and both
    quadrature = analytic.euler_mellin
    for j, poisoned in [(0, own[0]), (1, own[1]), (None, both)]:
        monkeypatch.setattr(
            analytic,
            "euler_mellin",
            lambda A, pairs, *args: [
                complex(math.inf) if pair in poisoned else value
                for pair, value in zip(pairs, quadrature(A, pairs, *args))
            ],
        )
        if j is not None:
            assert cmath.isfinite(extension_shift(A0257, beta, x, theta, ORDERS[1 - j]))
        for orders in (ORDERS, ORDERS[::-1]):
            errors = [
                _lone_error(shift, A0257, [beta, beta], x, theta, orders)
                for shift in (extension_shift, extension_shift_per_order)
            ]
            failing = orders[0] if j is None else ORDERS[j]
            assert errors[0] == errors[1] == _lone_error(extension_shift, A0257, beta, x, theta, failing)
            assert f"over {[87, 102][ORDERS.index(failing)]} levels" in errors[0]


def test_shared_tail_budget_counts_the_shared_levels(monkeypatch):
    # the later entry counts its levels below m* and each shared level
    # whole, the shifts of both orders: more than it counts alone, so the
    # list refuses wherever a lone plan does
    x, theta, beta, m_star, alone = _shared_tail_case()
    shared = [
        alone[1][m].keys() | (alone[0][m].keys() if m < len(alone[0]) else set())
        for m in range(m_star, len(alone[1]))
    ]
    counted = sum(map(len, alone[1][:m_star])) + sum(map(len, shared))
    assert counted > max(sum(map(len, levels)) for levels in alone)
    monkeypatch.setattr(analytic, "_PLAN_BUDGET", counted)
    extension_shift(A0257, [beta, beta], x, theta, ORDERS)
    monkeypatch.setattr(analytic, "_PLAN_BUDGET", counted - 1)
    assert cmath.isfinite(extension_shift(A0257, beta, x, theta, ORDERS[1]))
    with pytest.raises(QuadratureError, match=re.escape(f"({ORDERS[1]}) holds more than {counted - 1} shifts")):
        extension_shift(A0257, [beta, beta], x, theta, ORDERS)


def _record_lone(monkeypatch):
    """Record each lone continuation of a list call, a call of
    analytic.extension_shift with one pair, as its order and its value or
    the text of its error."""
    lone = []
    shift = analytic.extension_shift

    def recording(A, beta, x, theta, order="facet-0-first"):
        if isinstance(beta, list):
            return shift(A, beta, x, theta, order)
        try:
            value = shift(A, beta, x, theta, order)
        except QuadratureError as err:
            lone.append((order, str(err)))
            raise
        lone.append((order, value))
        return value

    monkeypatch.setattr(analytic, "extension_shift", recording)
    return lone


def test_shared_tail_continues_alone_only_where_it_must(monkeypatch):
    # with every value finite no entry is continued alone.  An infinite
    # wedge value makes each entry whose own plan holds it continue alone
    # once: on the shifts both orders plan from m* on, the first entry,
    # which raises; on those only the later entry plans, that entry alone.
    # The earlier entry combines the shared levels, infinite value
    # included, and keeps its value bit for bit: no shift that only the
    # later entry plans feeds it
    x, theta, beta, m_star, alone = _shared_tail_case()

    def wedge_shifts(both):
        # the wedge shifts of facet-k-first from m* on that facet-0-first
        # plans as well, or lacks
        return {
            (beta[0] - m, beta[1] - w)
            for m in range(m_star, len(alone[1]))
            for w, plan in alone[1][m].items()
            if plan is None and (m < len(alone[0]) and w in alone[0][m]) == both
        }

    shared, later = wedge_shifts(True), wedge_shifts(False)
    assert shared and later
    lone = _record_lone(monkeypatch)
    values = extension_shift(A0257, [beta, beta], x, theta, ORDERS)
    assert lone == []
    quadrature = analytic.euler_mellin
    for poisoned, orders, want in [
        (shared, ORDERS, [ORDERS[0]]),
        (shared, ORDERS[::-1], [ORDERS[1]]),
        (later, ORDERS, [ORDERS[1]]),
        (later, ORDERS[::-1], [ORDERS[1]]),
    ]:
        monkeypatch.setattr(
            analytic,
            "euler_mellin",
            lambda A, pairs, *args: [
                complex(math.inf) if pair in poisoned else value
                for pair, value in zip(pairs, quadrature(A, pairs, *args))
            ],
        )
        errors = {order: _lone_error(extension_shift, A0257, beta, x, theta, order) for order in ORDERS}
        lone.clear()
        error = _lone_error(extension_shift, A0257, [beta, beta], x, theta, orders)
        assert [order for order, _ in lone] == want
        assert error == lone[-1][1] == errors[want[-1]]
        if orders[0] not in want:
            # a stub in place of the lone call lets the list finish
            record = analytic.extension_shift
            monkeypatch.setattr(analytic, "extension_shift", lambda A, pair, x, theta, order: None)
            kept = extension_shift(A0257, [beta, beta], x, theta, orders)
            monkeypatch.setattr(analytic, "extension_shift", record)
            assert errors[orders[0]] is None and kept[1] is None and _bits(kept[0]) == _bits(values[0])


def _fresh_node_cache(monkeypatch):
    """Give the test an empty node-table cache of its own, so that a patched
    _tracked_log_f runs on every level and no table it built outlives the
    test."""
    fresh = lru_cache(maxsize=analytic._NODE_CACHE_SIZE)(analytic._ray_nodes.__wrapped__)
    monkeypatch.setattr(analytic, "_ray_nodes", fresh)


def _restart(calls):
    """Forget the recorded levels and the cached node tables: the next call
    tracks each of its levels anew."""
    calls.clear()
    analytic._ray_nodes.cache_clear()


def _record_levels(monkeypatch):
    """Record each call of analytic._tracked_log_f as ((S, h), why) for its
    nodes s = -S, -S + h, ..., S; why is None where the tracking held.  The
    node tables start empty; _restart empties them again."""
    _fresh_node_cache(monkeypatch)
    calls = []
    tracked = analytic._tracked_log_f

    def recording(A, x, logz):
        logf, why = tracked(A, x, logz)
        S = -math.asinh(logz[0].real)
        calls.append(((round(S, 9), round(2 * S / (len(logz) - 1), 9)), why))
        return logf, why

    monkeypatch.setattr(analytic, "_tracked_log_f", recording)
    return calls


def _record_batches(monkeypatch):
    """Record the pair list of each euler_mellin call made through analytic."""
    batches = []
    quadrature = analytic.euler_mellin
    monkeypatch.setattr(analytic, "euler_mellin", lambda A, beta, *a: batches.append(beta) or quadrature(A, beta, *a))
    return batches


def test_shared_node_table_is_bit_identical(monkeypatch):
    # the first pair is done at S = 4, the second needs S = 5.5 and the
    # third S = 7; in one call they read the same levels, each tracked once,
    # and each value must equal the one the pair gives alone and the
    # untabled loop gives, bit for bit
    x = sample_structured_point(A0134, 5)
    theta = roots_and_components(A0134, x).ray_angles[0]
    betas = [(-3.0, -6.0), (-1.1, -0.6), (-0.3, -0.26), (-8.0, -16.0), (-1.2 + 0.3j, -0.9 - 0.2j)]
    lone = [euler_mellin_untabled(A0134, beta, x, theta) for beta in betas]
    calls = _record_levels(monkeypatch)
    levels = []
    for beta, want in zip(betas, lone):
        _restart(calls)
        assert euler_mellin(A0134, beta, x, theta) == want, beta
        levels.append({level for level, _ in calls})
    assert {S for S, _ in levels[0]} == {4.0}
    assert 5.5 in {S for S, _ in levels[1]}
    assert 7.0 in {S for S, _ in levels[2]}
    _restart(calls)
    assert euler_mellin(A0134, betas, x, theta) == lone
    batch = [level for level, _ in calls]
    assert len(batch) == len(set(batch))
    assert set(batch) == set().union(*levels)


def test_shared_node_table_replays_phase_halvings(monkeypatch):
    # a ray close to a root: at h = 0.2 and 0.1 the tracked phase jumps, and
    # every pair must halve h past those levels, alone or in one call
    x = sample_structured_point(A0134, 5)
    theta = roots_and_components(A0134, x).angles[0] - 0.03
    betas = [(-1.1, -0.6), (-3.0, -6.0), (-0.3, -0.26)]
    lone = [euler_mellin_untabled(A0134, beta, x, theta) for beta in betas]
    phase = {(4.0, 0.2): "phase", (4.0, 0.1): "phase"}
    calls = _record_levels(monkeypatch)
    levels = []
    for beta, want in zip(betas, lone):
        _restart(calls)
        assert euler_mellin(A0134, beta, x, theta) == want, beta
        assert {level: why for level, why in calls if why is not None} == phase
        levels.append({level for level, _ in calls})
    # the batch halves past them once for all pairs, with the same values
    _restart(calls)
    assert euler_mellin(A0134, betas, x, theta) == lone
    batch = [level for level, _ in calls]
    assert len(batch) == len(set(batch))
    assert set(batch) == set().union(*levels)
    assert {level: why for level, why in calls if why is not None} == phase


def test_shared_node_table_root_on_the_ray(monkeypatch):
    # f = c (1 - z) has its root z = 1 on the ray arg z = 0, within 1e-14 of
    # the node s = 0; the tiny c puts |f| there below the zero floor.  Every
    # pair must raise, alone or in one call that tracks the first level once
    x = (1e-280, -1e-280)
    betas = [(-1.3, -0.7), (-2.6, -0.35), (-1.2 + 0.3j, -0.5 - 0.2j)]
    calls = _record_levels(monkeypatch)
    for pairs in [[beta] for beta in betas] + [betas]:
        _restart(calls)
        with pytest.raises(QuadratureError, match="curve root on or near the integration ray"):
            euler_mellin(A01, pairs, x, 0.0)
        assert calls == [((4.0, 0.2), "zero")]
    with pytest.raises(QuadratureError, match="curve root on or near the integration ray"):
        extension_shift(A01, (2.5, 0.3), x, 0.0)


def test_extension_shift_tracks_each_level_once(monkeypatch):
    # b1 = 30.3 takes well over a hundred wedge quadratures, all in one call
    # on one ray, and each level of that call is tracked once
    batches = _record_batches(monkeypatch)
    calls = _record_levels(monkeypatch)
    x = sample_structured_point(A023, 3)
    theta = roots_and_components(A023, x).ray_angles[0]
    extension_shift(A023, (30.3, 7.7), x, theta)
    assert len(batches) == 1
    levels = [level for level, _ in calls]
    assert len(levels) == len(set(levels))
    assert 10 * len(levels) < len(batches[0])


def _record_integrands(monkeypatch):
    """Record the (rows, nodes) of each block of integrand values that
    euler_mellin evaluates.  The node tables and the odd-node tables start
    empty."""
    _fresh_node_cache(monkeypatch)
    monkeypatch.setattr(analytic, "_odd_nodes", lru_cache(maxsize=analytic._NODE_CACHE_SIZE)(analytic._odd_nodes.__wrapped__))
    sizes = []
    integrand = analytic._integrand

    def recording(b1, b2, logf, logz, cosh_s):
        sizes.append((b1.shape[0], logf.size))
        return integrand(b1, b2, logf, logz, cosh_s)

    monkeypatch.setattr(analytic, "_integrand", recording)
    return sizes


def _bits(value):
    return value.real.hex(), value.imag.hex()


def _tails(pair, x, theta, S, steps):
    """Whether the integrand of the pair on f = x_1 + x_2 z has not decayed
    at the ends of the level (S, h), for each h of steps, by the test of a
    lone pair."""
    import numpy as np

    tails = []
    for h in steps:
        logz, (logf, _), cosh_s = analytic._ray_nodes(A01, x, theta, S, h)
        g = analytic._integrand(np.array([[pair[0]]]), np.array([[pair[1]]]), logf, logz, cosh_s)[0][0]
        tails.append(max(abs(complex(g[0])), abs(complex(g[-1]))) > 1e-16 * np.max(np.abs(g)))
    return tails


def test_refinement_evaluates_only_the_new_nodes(monkeypatch):
    # (-3, -6) converges between the levels (4, 0.2) and (4, 0.1); the even
    # nodes of the second are the 41 nodes of the first in every table, so
    # only its 40 odd nodes are evaluated, and the value is the untabled
    # loop's bit for bit
    x = sample_structured_point(A0134, 5)
    theta = roots_and_components(A0134, x).ray_angles[0]
    want = euler_mellin_untabled(A0134, (-3.0, -6.0), x, theta)
    sizes = _record_integrands(monkeypatch)
    assert _bits(euler_mellin(A0134, (-3.0, -6.0), x, theta)) == _bits(want)
    assert sizes == [(1, 41), (1, 40)]
    assert sum(rows * nodes for rows, nodes in sizes) == 81


def test_refinement_evaluates_every_node_without_a_kept_row(monkeypatch):
    # (-1.1, -0.6) needs S = 5.5, where np.arange rounds the nodes of h =
    # 0.1 away from those of h = 0.2, so that level is evaluated in full.  On
    # the ray 0.03 short of a root the phase tracking fails at (4, 0.2) and
    # (4, 0.1), so (-3, -6) has no row before (4, 0.05), evaluates its 161
    # nodes and reuses them at (4, 0.025)
    x = sample_structured_point(A0134, 5)
    rc = roots_and_components(A0134, x)
    assert analytic._odd_nodes(A0134, x, rc.ray_angles[0], 5.5, 0.1) is None
    for theta, beta, first in [
        (rc.ray_angles[0], (-1.1, -0.6), [(1, 41), (1, 56), (1, 111)]),
        (rc.angles[0] - 0.03, (-3.0, -6.0), [(1, 161), (1, 160)]),
    ]:
        want = euler_mellin_untabled(A0134, beta, x, theta)
        sizes = _record_integrands(monkeypatch)
        assert _bits(euler_mellin(A0134, beta, x, theta)) == _bits(want)
        assert sizes[: len(first)] == first


def test_refinement_keeps_the_level_order_of_failures(monkeypatch):
    # f = 1e-3 + z.  The exponent of (-4200, -3969) peaks between the nodes
    # of (4, 0.2), below the overflow bound 690 there, and passes it at an
    # odd node of (4, 0.1), the level that reuses the first.  (-0.5, -1e-3)
    # decays too slowly and goes on to fresh levels of S = 5.5 and 7, where it
    # fails a round later, and (-1.3, -0.7) needs S = 5.5.  A batch of kept
    # and fresh rows raises the first failure in level order, levels in the
    # order they were first reached, and that is the error its pair raises
    # alone.  (5.5, 0.2) sends the tail to (7, 0.2) before it sends (-1.3,
    # -0.7) to (5.5, 0.1), so the tail fails before that level is evaluated
    x = (1e-3, 1.0)
    odd_overflow, tail, fine = (-4200.0, -3969.0), (-0.5, -1e-3), (-1.3, -0.7)
    peaks = []
    for h in (0.2, 0.1):
        logz, (logf, _), _ = analytic._ray_nodes(A01, x, 0.0, 4.0, h)
        peaks.append(max((odd_overflow[0] * logf - odd_overflow[1] * logz).real))
    assert peaks[0] <= 690.0 < peaks[1]
    sizes = _record_integrands(monkeypatch)
    errors = {pair: _lone_error(euler_mellin, A01, pair, x, 0.0) for pair in (odd_overflow, tail)}
    assert errors[odd_overflow].endswith(f"beta = {odd_overflow}, S = 4.0, h = 0.1")
    assert errors[tail].endswith(f"beta = {tail}, S = 7.0, h = 0.2")
    for pairs, failing, batches in [
        ([tail, odd_overflow, fine], odd_overflow, [(3, 41), (2, 56), (1, 40)]),
        ([odd_overflow, fine, tail], odd_overflow, [(3, 41), (2, 56), (1, 40)]),
        ([fine, tail], tail, [(2, 41), (2, 56), (1, 71)]),
    ]:
        sizes.clear()
        with pytest.raises(QuadratureError) as err:
            euler_mellin(A01, pairs, x, 0.0)
        assert str(err.value) == errors[failing]
        assert sizes == batches


def test_refinement_merges_kept_and_fresh_rows(monkeypatch):
    # f = 1 + z.  np.arange ends the level (5.5, 0.2) 1e-14 past 5.5 and
    # (5.5, 0.1) 5e-14 short of it, and the tail |g(end)| of `late` sits
    # just below the bound 1e-16 max |g| at the first and just above it at
    # the second, both maxima on the same node.  So `late` leaves (5.5, 0.1)
    # for (7, 0.1), in the round in which `early` and `other`, which left
    # S = 5.5 at h = 0.2, halve h at (7, 0.2) and bring their rows and
    # values there.  The level holds a piece of kept rows and a fresh piece,
    # out of pair order; (7, 0.1) does not nest, so each piece is evaluated
    # in full, and every value is the untabled loop's bit for bit
    x = (1.0, 1.0)
    early, late, other = (-1.62, -1.5), (-1.8400189446658621, -1.5), (-1.6, -1.5)
    assert _tails(late, x, 0.0, 5.5, (0.2, 0.1)) == [False, True]
    pairs = [early, late, other]
    lone = [euler_mellin_untabled(A01, pair, x, 0.0) for pair in pairs]
    sizes = _record_integrands(monkeypatch)
    assert [_bits(v) for v in euler_mellin(A01, pairs, x, 0.0)] == [_bits(v) for v in lone]
    assert sizes == [(3, 41), (3, 56), (2, 71), (1, 111), (2, 141), (1, 141), (1, 140)]


def test_refinement_nests_the_kept_rows_of_a_mixed_level(monkeypatch):
    # f = 1 + z on the ray 0.3 short of its root -1.  np.arange ends the
    # level (4, 0.05) about 3.5e-14 further in than (4, 0.1), and the tail
    # |g(end)| of `fresh`, found by bisection on b1, sits just below the
    # bound 1e-16 max |g| at the second and just above it at the first.  So
    # `fresh` leaves (4, 0.05) for (5.5, 0.05), in the round in which the
    # rows of `kept` halve h at (5.5, 0.1) and bring their rows and values
    # there.  (5.5, 0.05) nests, so the piece of kept rows evaluates only
    # its 110 odd nodes and the fresh piece all 221 nodes, and every value
    # is the untabled loop's bit for bit
    x, theta = (1.0, 1.0), 2.84
    fresh, kept = (-4.282487705724938, -3.0), [(-2.3, -1.5), (-2.1, -1.5)]
    assert analytic._odd_nodes(A01, x, theta, 5.5, 0.05) is not None
    assert all(analytic._odd_nodes(A01, x, theta, S, h) is None for S, h in [(5.5, 0.1), (4.0, 0.05)])
    assert _tails(fresh, x, theta, 4.0, (0.2, 0.1, 0.05)) == [False, False, True]
    pairs = [fresh] + kept
    lone = [euler_mellin_untabled(A01, pair, x, theta) for pair in pairs]
    sizes = _record_integrands(monkeypatch)
    assert [_bits(v) for v in euler_mellin(A01, pairs, x, theta)] == [_bits(v) for v in lone]
    assert sizes == [(3, 41), (2, 56), (1, 40), (2, 111), (1, 161), (2, 110), (1, 221), (2, 441), (1, 441), (1, 440)]


def test_refinement_keeps_no_rows_for_a_level_that_does_not_nest(monkeypatch):
    # on the first ray of the seed-0 point of 0,2,5,7, as on every ray of
    # the beta scan, np.arange rounds the nodes of (4, 0.05) and (5.5, 0.1)
    # away from those of h twice as large, while (4, 0.1), (4, 0.025) and
    # (5.5, 0.05) nest.  (-1, -2) and (-5, -10) halve h at (4, 0.1) and
    # (-0.5, -1) at (5.5, 0.2); rows that halve h to a level that does not
    # nest keep no integrand rows, so a piece of kept rows reaches only a
    # level with odd nodes to evaluate, and every value is the untabled
    # loop's bit for bit
    A = CurveMatrix([0, 2, 5, 7])
    x = sample_structured_point(A, 0)
    theta = roots_and_components(A, x).ray_angles[0]
    assert all(analytic._odd_nodes(A, x, theta, S, h) is None for S, h in [(4.0, 0.05), (5.5, 0.1)])
    assert all(analytic._odd_nodes(A, x, theta, S, h) is not None for S, h in [(4.0, 0.1), (4.0, 0.025), (5.5, 0.05)])
    pairs = [(-1.0, -2.0), (-5.0, -10.0), (-0.5, -1.0)]
    lone = [euler_mellin_untabled(A, pair, x, theta) for pair in pairs]
    sizes = _record_integrands(monkeypatch)
    assert [_bits(v) for v in euler_mellin(A, pairs, x, theta)] == [_bits(v) for v in lone]
    assert sizes == [(3, 41), (1, 56), (2, 40), (1, 111), (2, 161), (1, 110), (1, 160)]


def test_levels_of_2_14_nodes_or_more_nest():
    # at S = 4 the level h = 0.000390625 has 20,481 nodes and its even nodes
    # repeat s, log z and cosh s of h twice as large on every ray of the
    # seed-3 point of 0,1,3,4.  log f repeats them as well: _tracked_log_f
    # multiplies by x_i first at every size, also where numpy would run the
    # product in place on a temporary of 2^14 values or more, operands swapped
    x = sample_structured_point(A0134, 3)
    rays = roots_and_components(A0134, x).ray_angles
    assert all(analytic._odd_nodes(A0134, x, theta, 4.0, 0.000390625) is not None for theta in rays)
    # a row of the coarser level, 10,241 nodes, gives the same bits alone
    # and twice stacked into one block
    logz, (logf, _), _ = analytic._ray_nodes(A0134, x, rays[0], 4.0, 0.00078125)
    stacked, whys = analytic._tracked_log_f(A0134, x, np.tile(logz, (2, 1)))
    assert stacked.size > 1 << 14 and whys == [None, None]
    assert all(row.tobytes() == logf.tobytes() for row in stacked)


def test_loop_calculus_sum_rule():
    x = sample_structured_point(A0134, 3)
    rc = roots_and_components(A0134, x)
    beta = (-2.0, -3.0)
    loops = [residue_integral(A0134, beta, x, i) for i in range(4)]
    res0 = residue_at_zero(A0134, beta, x)
    resinf = residue_at_infinity(A0134, beta, x)
    scale = max(abs(v) for v in loops) + abs(res0) + abs(resinf)
    # at negative integral parameters the integrand is meromorphic with
    # poles only at the roots, and the small and large loops both vanish
    assert abs(res0) <= 1e-10 * scale
    assert abs(resinf) <= 1e-10 * scale
    assert abs(res0 + sum(loops) + resinf) <= 1e-9 * scale
    # each root loop equals the difference of the two adjacent ray integrals
    for i in range(4):
        ray_lo = extension_shift(A0134, beta, x, rc.ray_angles[i])
        ray_hi = extension_shift(
            A0134, beta, x, rc.ray_angles[(i + 1) % 4]
        )
        diff = ray_lo - ray_hi
        assert abs(diff - loops[i]) <= 1e-8 * scale, i


@pytest.mark.parametrize(
    "exps, beta",
    [((0, 2, 5, 7), (8, 30)), ((0, 2, 3), (8, 25)), ((0, 1, 3, 4), (0, 21)), ((0, 2, 3), (9, 25))],
)
def test_origin_and_infinity_loops_match_the_taylor_coefficient(exps, beta, monkeypatch):
    # with b1 in Z>=0, f^b1 is a polynomial: the origin loop is 2 pi i times
    # its z^b2 coefficient, and the clockwise infinity loop minus that.  On
    # the circles of radius 0.5 min|root| and 2 max|root| the integrand of
    # these points peaks about 10^7 times above the value, and the loops
    # doubled to 2^18 nodes and failed to converge or lost digits
    A = CurveMatrix(list(exps))
    # rows times nodes of each pass
    nodes = []
    tracked = analytic._tracked_log_f
    monkeypatch.setattr(analytic, "_tracked_log_f", lambda A, x, logz: nodes.append(logz.size) or tracked(A, x, logz))
    for seed in (0, 1):
        x = sample_structured_point(A, seed)
        exact = 2j * math.pi * power_series_coefficient(A, beta[0], beta[1], x)
        for loop, sign in ((residue_at_zero, 1), (residue_at_infinity, -1)):
            nodes.clear()
            got = loop(A, beta, x)
            assert abs(got - sign * exact) <= 1e-10 * max(1.0, abs(exact)), (loop.__name__, seed)
            # five 64-node candidate circles in one pass, then a few doublings
            assert nodes[0] == 5 * 64 and sum(nodes) <= 1 << 12, (loop.__name__, seed)


def test_loop_guards():
    x = sample_structured_point(A0134, 3)
    with pytest.raises(QuadratureError):
        residue_at_zero(A0134, (-2.0, -3.3), x)
    with pytest.raises(QuadratureError):
        residue_at_infinity(A0134, (-2.1, -3.0), x)


def _loop_reporting(monkeypatch, whys, row=None):
    """Make analytic._tracked_log_f report the failure whys[i] on its call
    i, for every row or only the given one (a 1-D path is row 0), or track
    as before where that is None or past the end; record the shape of each
    call, its rows and nodes."""
    shapes, whys = [], list(whys)
    tracked = analytic._tracked_log_f

    def reporting(A, x, logz):
        shapes.append(logz.shape)
        why = whys.pop(0) if whys else None
        logf, found = tracked(A, x, logz)
        if why is None:
            return logf, found
        if logz.ndim == 1:
            return (None, why) if row in (None, 0) else (logf, found)
        return logf, [why if row in (None, r) else f for r, f in enumerate(found)]

    monkeypatch.setattr(analytic, "_tracked_log_f", reporting)
    return shapes


def test_loop_restarts_after_a_phase_failure(monkeypatch):
    # the origin loop of f = 1 + z at (2, 1) is 4 pi i, exact at 64 nodes,
    # so it stops at 128.  A phase failure at 128 forgets the value at 64:
    # the loop compares 512 with 256 nodes, not 256 with 64
    loop = (A01, (2, 1), (1.0, 1.0), [(0.0, 0.5, 1)])
    shapes = _loop_reporting(monkeypatch, [])
    [want] = analytic._loop_integral(*loop)
    assert shapes == [(1, 64), (1, 128)]
    shapes = _loop_reporting(monkeypatch, [None, "phase"])
    [got] = analytic._loop_integral(*loop)
    assert shapes == [(1, 64), (1, 128), (1, 256), (1, 512)]
    assert abs(got - want) <= analytic._TOL * max(1.0, abs(want))
    shapes = _loop_reporting(monkeypatch, ["phase", "zero"])
    with pytest.raises(QuadratureError, match="curve root on the loop"):
        analytic._loop_integral(*loop)
    assert shapes == [(1, 64), (1, 128)]


def _outcome(run):
    """The bits of each value run() returns, or the type and text of the
    QuadratureError it raises."""
    try:
        return [_bits(v) for v in run()]
    except QuadratureError as exc:
        return type(exc), str(exc)


@st.composite
def _loop_points(draw):
    k = draw(st.integers(1, 7))
    middle = draw(st.sets(st.integers(1, k - 1), max_size=3)) if k > 1 else set()
    exps = [0, *sorted(middle), k]
    b1 = draw(st.integers(-3, 12))
    b2 = draw(st.integers(-3, max(k * b1, 0) + 3))
    return exps, (b1, b2), draw(st.integers(0, 2**16)), draw(st.none() | st.integers(0, k + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_loop_points().filter(lambda p: gcd(*p[0][1:]) == 1))
@example(([0, 2, 5, 7], (8, 30), 0, 3))
@example(([0, 1, 3, 4], (0, 21), 1, 0))
@example(([0, 2, 5, 7], (10, -7), 0, 2))
@example(([0, 1, 6], (9, 4), 1, None))
def test_batched_loops_match_lone_loops(point):
    # the k + 2 loops of the sum rule in one batched call give the values of
    # the lone loops bit for bit, on the same quiet radii, or raise the error
    # the first lone loop raises; so does a batch whose row `forced` fails
    # its phase tracking at 64 nodes, against that circle failing alone.  At
    # (9, 4) on 0,1,6 eight circles reach 2048 nodes together: one block of
    # all eight, 2^14 values, would round a product of log f differently
    exps, beta, seed, forced = point
    A = CurveMatrix(exps)
    x = sample_structured_point(A, seed)
    loops = ["zero", *range(A.k), "infinity"]
    rc = roots_and_components(A, x)
    for scale, factors in [(min(abs(r) for r in rc.roots), (0.5, 0.6, 0.7, 0.8, 0.9)),
                           (max(abs(r) for r in rc.roots), (2.0, 1.6, 1.4, 1.2, 1.1))]:
        assert analytic._quiet_radius(A, beta, x, scale, factors).hex() == quiet_radius_lone(A, beta, x, scale, factors).hex()
    assert _outcome(lambda: residue_integral(A, beta, x, loops)) == _outcome(lambda: residue_loops_lone(A, beta, x, loops))
    if forced is None:
        return
    circles = [analytic._circle(A, beta, x, loop) for loop in loops]

    def lone():
        values = []
        for i, circle in enumerate(circles):
            with pytest.MonkeyPatch.context() as patch:
                _loop_reporting(patch, ["phase"] if i == forced else [])
                values.append(loop_integral_lone(A, beta, x, *circle))
        return values

    want = _outcome(lone)
    with pytest.MonkeyPatch.context() as patch:
        _loop_reporting(patch, ["phase"], row=forced)
        assert _outcome(lambda: analytic._loop_integral(A, beta, x, circles)) == want


@pytest.mark.avx512_bits
def test_batched_loops_raise_the_first_failing_circle(monkeypatch):
    # f = 1e-280 (1 + z): the circle |z| = 1 meets the root -1 at 64 nodes,
    # where |f| ~ 1e-296, and a circle of radius 1e-300 about 1e-300 passes
    # through the origin; with a negative tolerance the circle |z| = 0.5
    # runs to 2^18 nodes.  A batch raises what the first failing circle
    # raises alone, and stops as soon as no earlier circle is open
    x, beta = (1e-280, 1e-280), (-1, 0)
    slow, root, origin = (0.0, 0.5, 1), (0.0, 1.0, 1), (1e-300, 1e-300, 1)
    monkeypatch.setattr(analytic, "_TOL", -1.0)
    for circles in ([slow, root], [root, slow], [origin, slow, root], [slow, origin], [root, origin]):
        want = _outcome(lambda: [loop_integral_lone(A01, beta, x, *c) for c in circles])
        shapes = _loop_reporting(monkeypatch, [])
        assert _outcome(lambda: analytic._loop_integral(A01, beta, x, circles)) == want
        assert want[1].startswith({slow: "loop quadrature failed to converge: center = 0, radius = 0.5, nodes = 262144, "
                                         "last values 3.1656e+264+6.28319e+280j and ",
                                   root: "curve root on the loop", origin: "loop passes through the origin"}[circles[0]])
        # a failing first circle ends the batch at 64 nodes
        assert len(shapes) == (13 if circles[0] == slow else 1)
    monkeypatch.undo()
    # at (10, -7) on 0,2,5,7 the loop about the first root, 0 since f^10 is
    # a polynomial, does not converge against its integrand's scale: the sum
    # rule of verify raises what the lone loops raise
    A = CurveMatrix([0, 2, 5, 7])
    loops = ["zero", *range(7), "infinity"]
    want = _outcome(lambda: residue_loops_lone(A, (10, -7), sample_structured_point(A, 0), loops))
    assert want[1].startswith("loop quadrature failed to converge: center = 0.998534+0.0294725j, ")
    with pytest.raises(QuadratureError) as err:
        verify_report(A, (10, -7))
    assert (type(err.value), str(err.value)) == want


def test_sum_rule_loops_take_one_pass_per_node_count(monkeypatch):
    # at (8, 30) on 0,2,5,7 the nine loops of the sum rule track log f 42
    # times alone: five candidate circles each about the origin and
    # infinity, then every node count of every circle.  The batch scores
    # each set of candidates in one pass and every node count in one more
    A = CurveMatrix([0, 2, 5, 7])
    x = sample_structured_point(A, 0)
    loops = ["zero", *range(7), "infinity"]
    shapes = _loop_reporting(monkeypatch, [])
    residue_loops_lone(A, (8, 30), x, loops)
    assert len(shapes) == 42
    shapes = _loop_reporting(monkeypatch, [])
    residue_integral(A, (8, 30), x, loops)
    assert shapes == [(5, 64), (5, 64), (9, 64), (9, 128), (7, 256), (5, 512), (2, 1024)]


def test_loop_blocks_stay_small(monkeypatch):
    # with a negative tolerance no loop converges and the three circles of
    # f = x1 + x2 z run to 2^18 nodes; no pass holds more than 2^14 values,
    # or one circle's nodes where those are more
    x = sample_structured_point(A01, 0)
    monkeypatch.setattr(analytic, "_TOL", -1.0)
    loops = ["zero", 0, "infinity"]
    want = _outcome(lambda: residue_loops_lone(A01, (2, 1), x, loops))
    shapes = _loop_reporting(monkeypatch, [])
    assert _outcome(lambda: residue_integral(A01, (2, 1), x, loops)) == want
    assert "nodes = 262144" in want[1]
    assert all(rows * m <= max(1 << 14, m) for rows, m in shapes)
    # from 2^12 nodes on a pass holds 16384 // m circles: all three at 2^12,
    # the first two at 2^13, then one; the first runs on and fails at 2^18,
    # and the batch ends with it
    assert [(rows, m) for rows, m in shapes if m >= 1 << 12] == [
        (3, 1 << 12), (2, 1 << 13), *((1, 1 << j) for j in range(14, 19))
    ]


def test_power_series_coefficient_vs_mpmath():
    x = (1.1 + 0.2j, 0.04 - 0.01j, 0.03j, 0.9 - 0.3j)
    b1 = -1.7

    def h(z):
        return (x[0] + x[1] * z + x[2] * z ** 3 + x[3] * z ** 4) ** b1

    coeffs = mpmath.taylor(h, 0, 6)
    for N in range(7):
        got = power_series_coefficient(A0134, b1, N, x)
        want = complex(coeffs[N])
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), N
    assert power_series_coefficient(A0134, b1, -2, x) == 0


def test_polar_residue_match_and_taylor_route():
    x = sample_structured_point(A0134, 3)
    lam = -1.0
    res = polar_line_match_check(A0134, FACET_0, 1, lam, x)
    assert res.rel_error <= 1e-6
    # independent route: across the facet-0 line at level N the residue is
    # minus the z^N Taylor coefficient of f^lam
    taylor = -power_series_coefficient(A0134, lam, 1, x)
    assert abs(res.contour_value - taylor) <= 1e-6 * abs(taylor)
    # the contour does not care which angular component the ray sits in
    theta1 = roots_and_components(A0134, x).ray_angles[1]
    res_other = polar_line_match_check(A0134, FACET_0, 1, lam, x, theta=theta1)
    assert abs(res_other.contour_value - res.contour_value) <= 1e-6 * abs(res.contour_value)


def test_polar_residue_contour_is_one_batch(monkeypatch):
    # the 24 continuations of the contour share one quadrature call, and the
    # contour value is the one their lone continuations give, bit for bit.
    # At lam = -1 the facet-k level -5 is no polar level, so the radius is 1/4
    x = sample_structured_point(A0134, 3)
    theta = roots_and_components(A0134, x).ray_angles[0]
    acc = 0.0 + 0.0j
    for j in range(24):
        phi = 2 * math.pi * j / 24
        beta = (complex(-1.0), 1 + 0.25 * cmath.exp(1j * phi))
        acc += extension_shift(A0134, beta, x, theta) * cmath.exp(1j * phi)
    batches = _record_batches(monkeypatch)
    res = polar_line_match_check(A0134, FACET_0, 1, -1.0, x, theta=theta)
    assert res.contour_value == 0.25 / 24 * acc
    assert len(batches) == 1


def test_polar_residue_match_facet_k():
    x = sample_structured_point(A0134, 3)
    res = polar_line_match_check(A0134, FACET_K, 3, -1.0, x)
    assert res.rel_error <= 1e-6


@pytest.mark.parametrize(
    "exps, level, lam",
    [((0, 2, 3), 8, Fraction(7, 2)), ((0, 2, 5, 7), 30, Fraction(17, 2))],
)
def test_polar_residue_near_a_pole_of_the_other_facet(exps, level, lam):
    # the other facet's level is half-integral here, half a unit from one of
    # its polar levels, so the contour must shrink to keep clear of that pole
    A = CurveMatrix(list(exps))
    res = polar_line_match_check(A, FACET_0, level, lam, sample_structured_point(A, 0))
    assert res.rel_error <= 1e-9, res
