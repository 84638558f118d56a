"""Numerical engine: ray integrals with branch tracking, shift recursions
out of the convergence wedge, loop integrals around curve roots, and polar
residue matching against the finite solutions.

All quadratures work on the dehomogenized curve polynomial
f(z) = sum_i x_i z^(k_i) and evaluate powers through a continuously tracked
logarithm, so non-integral parameters are supported wherever the contour
allows a consistent branch.  Ray and loop quadratures batch their
parameters or circles into 2-D numpy passes of bounded size, each row
computed as it would be alone, so a batch changes no value in any bit.

numpy is imported inside the functions that use it, not by the module:
the exact commands of the CLI import this module through the package but
never call it, and a cold process should not pay for numpy.  Nothing here
imports numpy's random module, which loads secrets, hashlib and OpenSSL:
the sample points are drawn from a copy of its PCG64 stream in integer
arithmetic.
"""

import cmath
import math
import operator
from collections import namedtuple
from functools import lru_cache

from .curve import FACET_0, FACET_K, FACETS, facet_level, facet_parts
from .curve import _polar_level_semigroup
from .errors import PolarLineError, QuadratureError
from .series import polar_line_solution

_TWO_PI = 2.0 * math.pi
# a shift continuation lowers the parameters until both facet levels lie
# this far inside the convergence wedge
_SHIFT_MARGIN = 0.25
# a batched ray or loop quadrature integrates at most this many integrand
# values in one block of rows (a row of more nodes is a block of its own),
# so a fine level of many parameters stays small in memory
# (each block carries about 1 MB of complex temporaries); the values do not
# depend on it, and the 72 wedge lists of the beta scan's seeds 0-1 took as
# long at 2^16, 4% longer at 2^13 and 17% longer at 2^12
_BLOCK_VALUES = 1 << 14
# a shift plan may hold this many shifts (about 6 b1^2 on 0,1,3,4), seconds of work
_PLAN_BUDGET = 10**6
# bounds of the caches of sample points and root sets, and of ray levels (a
# few hundred nodes each, up to 72,000 or 3.4 MB where h keeps halving)
_POINT_CACHE_SIZE = 64
_NODE_CACHE_SIZE = 32
# the 128-bit multiplier of PCG64, and masks of 32, 64 and 128 bits
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# a ray or loop quadrature stops when two successive refinements agree to
# this, relative to max(1, |value|); a converged integral does not depend
# on it, so no caller sets another
_TOL = 1e-10


def _coeff_array(A, x):
    """Coefficients of f in descending powers, ready for numpy.roots."""
    import numpy as np
    c = np.zeros(A.k + 1, dtype=complex)
    for i, ki in enumerate(A.exponents):
        c[A.k - ki] += complex(x[i])
    return c


class RootData(namedtuple("RootData", "roots angles components ray_angles scale")):
    """Roots of the curve polynomial sorted by argument, together with the
    angular components they cut out of the punctured plane.

    components[i] is the open angular interval (lo, hi); ray_angles[i] is its
    midpoint, a safe direction for the ray integral of that component.  A
    named tuple of tuples: roots_and_components caches and shares it.
    """

    __slots__ = ()

    def __repr__(self):
        return f"RootData({len(self.roots)} roots, scale={self.scale:.3g})"


def roots_and_components(A, x):
    """The RootData of the point x, any sequence, cached by (A, tuple(x))."""
    return _roots_and_components(A, tuple(x))


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _roots_and_components(A, x):
    import numpy as np
    if x[0] == 0 or x[-1] == 0:
        raise QuadratureError("boundary coefficients x_1, x_n must not vanish")
    c = _coeff_array(A, x)
    r = np.roots(c)
    dc = np.polyder(c)
    for _ in range(3):
        den = np.polyval(dc, r)
        # a vanishing derivative means a (near-)multiple root; skip the
        # update there and let the separation check below reject the point
        safe = np.abs(den) > 1e-300
        step = np.where(safe, np.polyval(c, r) / np.where(safe, den, 1.0), 0.0)
        r = r - step
    if not np.all(np.isfinite(r)):
        raise QuadratureError("root finding did not return finite values")
    scale = float(np.max(np.abs(r)))
    if scale == 0.0:
        raise QuadratureError("all roots at the origin")
    # an actual multiple root never separates below sqrt(eps) * scale in
    # floating point, so the guard must sit above that floor to fire
    for i in range(len(r)):
        if abs(r[i]) < 1e-6 * scale:
            raise QuadratureError("root too close to the origin")
        for j in range(i):
            if abs(r[i] - r[j]) < 1e-6 * scale:
                raise QuadratureError("repeated root: the point is too close to the discriminant")
    order = np.argsort(np.mod(np.angle(r), _TWO_PI))
    roots = tuple(complex(r[i]) for i in order)
    angles = tuple(float(np.mod(np.angle(v), _TWO_PI)) for v in roots)
    components = tuple((angles[i - 1] - (_TWO_PI if i == 0 else 0.0), angles[i]) for i in range(len(roots)))
    ray_angles = tuple(0.5 * (lo + hi) for lo, hi in components)
    return RootData(roots, angles, components, ray_angles, scale)


def _pcg64_uniform(seed):
    """The draws uniform(lo, hi) of numpy's Generator(PCG64(seed)), bit
    for bit, for an integer seed >= 0: numpy's SeedSequence hashes the seed's
    32-bit words into a pool of four and the pool into two 128-bit words,
    the initial state and the increment of the LCG; each draw steps the LCG,
    folds its state to 64 bits by XSL-RR and scales the top 53 of them."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(a, b):
        value = (0xCA01F9DD * a - 0x4973F715 * b) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, uint64): eight words off the pool,
    # read in little-endian pairs
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    s0, s1, i0, i1 = (out[2 * j] | out[2 * j + 1] << 32 for j in range(4))
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def uniform(lo, hi):
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        return lo + (hi - lo) * ((word >> 11) * 2.0**-53)

    return uniform


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def sample_structured_point(A, seed):
    """Random coefficient point with dominant boundary coordinates and small
    middle coordinates, rejecting near-discriminant draws.  Points of this
    shape keep the k roots in distinct angular components.  The point is a
    function of (A, seed), an integer >= 0, and is cached by it.

    The draws are those of numpy's Generator(PCG64(seed)).uniform, bit for
    bit (_pcg64_uniform), without loading numpy's random module."""
    if not hasattr(seed, "__index__"):
        raise TypeError(f"the seed must be an integer, got {seed!r}: points are cached by their seed")
    uniform = _pcg64_uniform(seed)
    for _ in range(64):
        x = []
        for i in range(A.n):
            if i == 0 or i == A.n - 1:
                mag = uniform(0.8, 1.2)
            else:
                mag = uniform(0.01, 0.05)
            x.append(mag * cmath.exp(1j * uniform(0.0, _TWO_PI)))
        x = tuple(x)
        try:
            rc = roots_and_components(A, x)
        except QuadratureError:
            continue
        gaps = [hi - lo for lo, hi in rc.components]
        if min(gaps) > 0.05:
            return x
    raise QuadratureError("could not sample a well-separated point")


def _tracked_log_f(A, x, logz):
    """Continuous log of f along an ordered path given by exact logs of z,
    or along each row of a 2-D array of them, a path of its own.

    Large |z| is handled by factoring out z^k, so no overflow occurs.  The
    branch is anchored at the first node's principal argument and unwrapped
    along the path.  A path fails with "zero" where f nearly vanishes at a
    node, else with "phase" where adjacent nodes jump too much in phase for
    the tracking to be trusted.  Returns log f and the failure or None: for
    one path log f is None when it fails, for rows the failures are a list
    and a failed row's log f is finite and meaningless.
    """
    import numpy as np
    logz = np.asarray(logz)
    big = logz.real > 0.0
    shift = np.where(big, A.k, 0)
    w = np.zeros(logz.shape, dtype=complex)
    for i, ki in enumerate(A.exponents):
        # x_i first at every size: on a temporary of 2^14 values or more numpy
        # runs x_i * exp(...) in place with the operands swapped, rounding otherwise
        term = np.exp((ki - shift) * logz)
        w += np.multiply(complex(x[i]), term, out=term)
    mag = np.abs(w)
    zero = np.any(mag < 1e-290, axis=-1)
    if zero.any():
        if logz.ndim == 1:
            return None, "zero"
        mag[zero] = 1.0
    raw = np.angle(w) + shift * logz.imag
    wrapped = np.mod(raw + math.pi, _TWO_PI) - math.pi
    phase = np.unwrap(wrapped)
    jump = np.max(np.abs(np.diff(phase)), axis=-1, initial=0.0) > 0.5 * math.pi
    logf = shift * logz.real + np.log(mag) + 1j * phase
    if logz.ndim == 1:
        return (None, "phase") if jump else (logf, None)
    return logf, ["zero" if z else "phase" if j else None for z, j in zip(zero.tolist(), jump.tolist())]


def _state(pair, S, h):
    return f": beta = {pair}, S = {S}, h = {h:.3g}"


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _ray_nodes(A, x, theta, S, h):
    """A level of the ray arg z = theta, cached by (A, x, theta, S, h): s = -S,
    -S + h, ..., S, sinh s + i theta, its _tracked_log_f and cosh s, read-only."""
    import numpy as np
    s = np.arange(-S, S + 0.5 * h, h)
    logz = np.sinh(s) + 1j * theta
    logf, why = _tracked_log_f(A, x, logz)
    cosh_s = np.cosh(s)
    for table in [s, logz, cosh_s] + ([] if logf is None else [logf]):
        table.flags.writeable = False
    return s, logz, (logf, why), cosh_s


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _odd_nodes(A, x, theta, S, h):
    """log f, log z and cosh s at the odd nodes of the level (S, h), the
    nodes it adds to the level (S, 2h), as read-only arrays, cached like
    _ray_nodes.  None unless its even nodes repeat that level bit for bit
    in every table, node count included: np.arange rounds the node
    positions of the two levels apart at some S and h, and the phase
    tracking may unwrap differently."""
    import numpy as np
    s, logz, (logf, _), cosh_s = _ray_nodes(A, x, theta, S, h)
    coarse_s, coarse_logz, (coarse_logf, _), coarse_cosh_s = _ray_nodes(A, x, theta, S, 2.0 * h)
    if logf is None or coarse_logf is None:
        return None
    fine, coarse = (s, logz, logf, cosh_s), (coarse_s, coarse_logz, coarse_logf, coarse_cosh_s)
    if any(f[::2].tobytes() != c.tobytes() for f, c in zip(fine, coarse)):
        return None
    odd = tuple(np.ascontiguousarray(table[1::2]) for table in (logf, logz, cosh_s))
    for table in odd:
        table.flags.writeable = False
    return odd


def _integrand(b1, b2, logf, logz, cosh_s):
    """The rows exp(b1 log f - b2 log z) cosh s for the columns b1, b2 of
    parameters at the given nodes, built in one buffer in place, and the
    largest real part of each row's exponent before its clip at +-700.

    The real part is clipped in place of the sum clip(Re) + 1j Im, whose
    real part differs from the clip at most in the sign of a zero and whose
    imaginary part at most in the sign of a zero; the factor cosh s >= 1
    makes both zeros +0 in the product, so every value is the same bit for
    bit.  np.fmax ignores NaN, so a row's maximum exceeds a bound exactly
    when one of its real parts does."""
    import numpy as np
    g = b1 * logf
    g -= b2 * logz
    peak = np.fmax.reduce(g.real, axis=1)
    np.clip(g.real, -700.0, 700.0, out=g.real)
    np.exp(g, out=g)
    g *= cosh_s
    return g, peak


def euler_mellin(A, beta, x, theta):
    """Ray integral of f^(b1) z^(-b2) dz/z along arg z = theta, by
    double-exponential substitution t = exp(sinh s).

    Requires the convergence wedge (negative real pairings on both facets);
    outside it use extension_shift.  The branch of f^(b1) is fixed by the
    principal logarithm of x_1 at the small end of the ray.

    ``beta`` is one pair, or a list of pairs that gives the list of their
    values in one batched pass.  Each pair keeps its own schedule: the
    half-width S of the node range grows while the integrand's tail has not
    decayed, and the step h halves where the phase tracking fails and until
    two successive values agree.  At each round the pairs that sit at the
    same (S, h) read the nodes of that level from _ray_nodes, built once per
    (A, x, theta, S, h), and a round moves every pair one step, S up or h
    down, so a level comes up in one round only.  A row goes through exactly
    the steps of a lone pair, and numpy sums it along its contiguous nodes
    as it sums a lone pair's array, so every value equals, bit for bit, the
    value its pair gives alone.

    The rows of a level arrive in pieces, in the order they are sent there:
    their indices, in pair order, and, for rows that halved h after a
    value, those values and, where the new level nests (below), the
    integrand rows kept from it.  A level takes
    its pieces one at a time and cuts each into blocks of at most
    _BLOCK_VALUES integrand values.  Every decision of a block is read off
    its arrays with the operations a lone pair makes on Python numbers
    (np.hypot is the hypot of Python's complex abs), and the wedge guard
    reads the real parts of b2 and k b1 - b2 off the arrays of all pairs.

    Rows that halve h keep their integrand rows only when _odd_nodes finds
    the even nodes of the new level equal to the nodes of theirs bit for
    bit, in every table: that piece evaluates only the odd nodes, and the
    kept rows fill the even ones.  Each integrand value is computed
    elementwise from the same table entries by the same operations
    (_integrand), so it is the same bit for bit wherever it is computed,
    and the row that numpy sums is the one the pair builds alone.  A row's
    overflow is read off its new nodes: the kept ones passed it.  A piece
    of rows that halve h to a level that does not nest, from (S - 1.5, h)
    or from a phase failure keeps no integrand rows and evaluates every
    node.

    A failure raises where it is found: first a pair outside the wedge, in
    list order, then the first failure in level order.  A round visits its
    levels in the order they were first reached, a level its pieces in the
    order they arrived, a piece its rows in pair order, block by block, and
    a row fails on overflow, then on a tail that does not decay at S = 7,
    then on no convergence.  A phase tracking failure at the finest h names
    the first row of the level's first piece.  Each error names its level,
    so it is the error that its pair raises alone.
    """
    import numpy as np
    x = tuple(x)
    pairs = beta if isinstance(beta, list) else [beta]
    b1s, b2s = np.array([(complex(b1), complex(b2)) for b1, b2 in pairs], dtype=complex).reshape(-1, 2).T
    # the convergence wedge of every pair at once: the real parts of the
    # facet levels b2 and k b1 - b2 are both negative
    inside = (b2s.real < 0) & ((A.k * b1s - b2s).real < 0)
    if not inside.all():
        raise QuadratureError(f"parameters {pairs[int(np.argmin(inside))]} outside the convergence wedge")
    # the pieces of rows at each level (S, h) of the next round, in arrival
    # order: their pair indices, in pair order, and, for rows that halved h
    # after a value, that value and their integrand rows (else None and None)
    todo = {(4.0, 0.2): [(np.arange(len(pairs)), None, None)]} if pairs else {}
    values = [None] * len(pairs)
    while todo:
        levels, todo = todo, {}
        for (S, h), pieces in levels.items():
            _, logz, (logf, why), cosh_s = _ray_nodes(A, x, theta, S, h)
            if logf is None:
                if why == "zero":
                    raise QuadratureError(
                        f"curve root on or near the integration ray: theta = {theta:.6g}, S = {S}, h = {h:.3g}"
                    )
                if 0.5 * h < 1e-4:
                    first = pairs[int(pieces[0][0][0])]
                    raise QuadratureError("phase tracking failed to stabilize" + _state(first, S, h))
                todo.setdefault((S, 0.5 * h), []).extend((idx, None, None) for idx, _, _ in pieces)
                continue
            per_block = max(1, _BLOCK_VALUES // logz.size)
            for idx, prev, kept in pieces:
                # kept rows come only to a level that nests and evaluate its
                # odd nodes; every other row evaluates every node
                odd = None if kept is None else _odd_nodes(A, x, theta, S, h)
                for lo in range(0, len(idx), per_block):
                    rows = idx[lo:lo + per_block]
                    b1, b2 = b1s[rows][:, None], b2s[rows][:, None]
                    if kept is None:
                        g, peak = _integrand(b1, b2, logf, logz, cosh_s)
                    else:
                        g = np.empty((len(rows), logz.size), dtype=complex)
                        g[:, 1::2], peak = _integrand(b1, b2, *odd)
                        g[:, ::2] = kept[lo:lo + per_block]
                    # the decisions a lone pair makes on Python numbers:
                    # np.hypot is the hypot of Python's complex abs bit for bit
                    # (np.abs of a complex array need not be), max(a, b) is b
                    # only where b > a, and max(1.0, a) is 1.0 where a is NaN,
                    # as np.fmax
                    head, end = (np.hypot(c.real, c.imag) for c in (g[:, 0], g[:, -1]))
                    tail = np.where(end > head, end, head) > 1e-16 * np.max(np.abs(g), axis=1)
                    val = h * np.sum(g, axis=1)
                    # a row without a value at the last h has a NaN there and
                    # never converges
                    step = val - (np.nan if prev is None else prev[lo:lo + per_block])
                    done = ~tail & (np.hypot(step.real, step.imag) <= _TOL * np.fmax(1.0, np.hypot(val.real, val.imag)))
                    halve = ~tail & ~done
                    overflow = peak > 690.0
                    fail = overflow | (tail & (S >= 7.0)) | (halve & (0.5 * h < 1e-4))
                    if fail.any():
                        r = int(np.argmax(fail))
                        state = _state(pairs[rows[r]], S, h)
                        if overflow[r]:
                            raise QuadratureError("integrand overflow: parameters too deep outside the wedge" + state)
                        if tail[r]:
                            raise QuadratureError("integrand tail does not decay" + state)
                        val_r = complex(val[r])
                        last = (f"value {val_r:.6g}" if prev is None
                                else f"values {complex(prev[lo + r]):.6g} and {val_r:.6g}")
                        raise QuadratureError(f"ray quadrature failed to converge{state}, last {last}")
                    if tail.any():
                        todo.setdefault((S + 1.5, h), []).append((rows[tail], None, None))
                    for i, v in zip(rows[done].tolist(), val[done].tolist()):
                        values[i] = v
                    if halve.any():
                        # the rows keep their integrand only for a level that nests
                        keep = None
                        if _odd_nodes(A, x, theta, S, 0.5 * h) is not None:
                            keep = g if halve.all() else g[halve]
                        todo.setdefault((S, 0.5 * h), []).append((rows[halve], val[halve], keep))
    return values if isinstance(beta, list) else values[0]


def _shift_plan(A, beta, x, order, shared=None, top=None):
    """The steps of both facets, and levels[m] mapping w to None when the
    shift (m, w) lies inside the wedge, else to its facet and prefactor.

    The plan goes breadth first: level m + 1 holds the children of the
    shifts of level m outside the wedge, in the order they are reached.  A
    vanishing denominator raises at once, so PolarLineError names the first
    one of the lowest level that has one.

    ``shared`` is the list of levels of an earlier plan of the same pair,
    and ``top`` its level m* (see extension_shift).  The plan owns its
    levels below m* only.  Level m* and every level after it is the shared
    one, grown by the shifts of this plan that it lacks: those are planned
    here, in the order this plan reaches them, and their children that the
    next shared level lacks are the next to plan.  A child of a shift that
    the shared level holds is in the next shared level already, so no other
    shift of the plan is walked, and the first vanishing denominator is the
    one the plan meets alone.  Each shared level counts whole against
    _PLAN_BUDGET: with the levels below m*, at least the shifts the plan
    counts alone, so it is refused wherever a lone plan is.
    """
    if order not in ("facet-0-first", "facet-k-first"):
        raise ValueError(f"unknown order {order!r}")
    b1 = complex(beta[0])
    b2 = complex(beta[1])
    k = A.k
    # a step of either facet goes from (m, w) to (m + 1, w + k_i) over a
    # column i off the facet, with the weight (facet level of a_i) * x_i
    steps = {
        facet: [(A.exponents[i], level * complex(x[i])) for i, level in facet_parts(A, facet)]
        for facet in FACETS
    }
    children = {facet: [ki for ki, _ in steps[facet]] for facet in FACETS}
    b1_re, b2_re = b1.real, b2.real
    facet_0_first = order == "facet-0-first"
    levels = []
    # the shifts of the next level that this plan plans
    fresh = {0: None}
    size = 0
    while fresh or top is not None and top < len(levels) < len(shared):
        m = len(levels)
        if top is not None and m >= top:
            while len(shared) <= m:
                shared.append({})
            level = shared[m]
            fresh = {w: None for w in fresh if w not in level}
            level.update(fresh)
        else:
            level = fresh
        size += len(level)
        if size > _PLAN_BUDGET:
            raise QuadratureError(
                f"the shift plan at beta = {beta} ({order}) holds more than {_PLAN_BUDGET} shifts"
            )
        levels.append(level)
        p1 = b1 - m
        # the real parts of the facet levels p2 and k*p1 - p2 of
        # facet_level, inline and in floats on this hot path
        sum_levels = k * (b1_re - m)
        scale = 1.0 + abs(p1) * k
        below = {}
        for w in fresh:
            level_0 = b2_re - w
            level_k = sum_levels - level_0
            if level_0 <= -_SHIFT_MARGIN and level_k <= -_SHIFT_MARGIN:
                continue
            if facet_0_first:
                facet = FACET_0 if level_0 > -_SHIFT_MARGIN else FACET_K
            else:
                facet = FACET_K if level_k > -_SHIFT_MARGIN else FACET_0
            p2 = b2 - w
            den = p2 if facet == FACET_0 else k * p1 - p2
            if abs(den) < 1e-12 * (scale + abs(p2)):
                raise PolarLineError(f"{facet} denominator vanishes at shift {(m, w)}")
            level[w] = (facet, p1 / den)
            for ki in children[facet]:
                below[w + ki] = None
        fresh = below
    return steps, levels


def extension_shift(A, beta, x, theta, order="facet-0-first"):
    """Value of the ray integral at arbitrary parameters, by contiguity
    relations that lower the parameters into the convergence wedge.

    One facet-0 step rewrites the value through the n-1 shifts beta - a_i
    with weights k_i x_i and prefactor b1/b2; one facet-k step uses the
    complementary weights (k - k_i) x_i and prefactor b1/(k b1 - b2).  The
    ``order`` parameter chooses which pairing is repaired first; both give
    the same value, which makes for a useful consistency check.

    ``beta`` is one pair, or a list of pairs with a list ``order`` of the
    same length, which gives the list of their values.  The work goes in
    three stages, and each raises its first error: every entry's shifts are
    planned level by level, in list order; the wedge shifts of all entries
    go once each into one batched euler_mellin call; and each entry, in list
    order, combines every other shift from the level below it, from its
    deepest level up.  Each value equals, bit for bit, the one its entry
    gives alone.

    A later entry with an earlier one's pair shares that entry's levels
    m >= m* = max(0, floor(Re b1 + 2 margin / k) + 2), margin =
    _SHIFT_MARGIN.  The real facet levels of (m, w), l0 = Re b2 - w and
    lk = k (Re b1 - m) - l0, sum to at most -2 margin - k from m* on (the
    extra level absorbs rounding), so a shift outside the wedge has one
    facet outside, which both orders take: its plan entry and value are the
    same operations in every entry.  The later entry plans its own levels
    below m* and, from m* on, only the shifts the shared levels lack
    (_shift_plan); the earlier entry combines the shared levels, the later
    one's shifts included, and the later entry combines only its levels
    below m*, from the values of level m*.  An entry that shares levels
    stops at the first level whose values are not all finite and is
    continued alone, which raises the error it raises alone or returns its
    lone value.  That continuation repeats its plan, which the list counted
    whole, and integrates only wedge shifts the batch already integrated.

    Raises PolarLineError when a needed denominator sits on a polar line,
    and QuadratureError when a plan holds more than _PLAN_BUDGET shifts,
    when a wedge quadrature fails, or at the first level whose values are
    not finite.
    """
    if not isinstance(beta, list):
        return extension_shift(A, [beta], x, theta, [order])[0]
    if isinstance(order, str) or len(order) != len(beta):
        raise ValueError("a list of pairs needs a list of orders of the same length")
    pairs = [(complex(b1), complex(b2)) for b1, b2 in beta]
    # the first entry of each pair; tops[j] is m* where entry j joined the
    # levels of that entry, and shares[i] where a later entry joined entry i's
    first = {}
    plans, tops, shares = [], [], {}
    for j, (pair, pair_order) in enumerate(zip(beta, order)):
        i = first.setdefault(pairs[j], j)
        b1_re = pairs[j][0].real
        top = max(math.floor(b1_re + 2 * _SHIFT_MARGIN / A.k) + 2, 0) if i < j and math.isfinite(b1_re) else None
        steps, levels = _shift_plan(A, pair, x, pair_order, None if top is None else plans[i][1], top)
        if top is not None and len(levels) > top:
            shares[i] = top
        else:
            # no earlier entry, or the plan ends below m*, alone
            top = None
        plans.append((steps, levels))
        tops.append(top)
    wedge = {}
    for (b1, b2), (_, levels), top in zip(pairs, plans, tops):
        for m, level in enumerate(levels[:top]):
            wedge.update(((b1 - m, b2 - w), None) for w, plan in level.items() if plan is None)
    wedge_values = dict(zip(wedge, euler_mellin(A, list(wedge), x, theta)))
    results = []
    # by entry that a later one joined: the values of its level m*, absent
    # or None where it stopped at a level m >= m*
    tails = {}
    for j, (pair, pair_order, (b1, b2), (steps, levels), top) in enumerate(zip(beta, order, pairs, plans, tops)):
        below, m = ({}, len(levels)) if top is None else (tails.get(first[pairs[j]]), top)
        while below is not None and m > 0:
            m -= 1
            values = {}
            for w, plan in levels[m].items():
                if plan is None:
                    values[w] = wedge_values[(b1 - m, b2 - w)]
                else:
                    facet, prefactor = plan
                    total = 0.0 + 0.0j
                    for ki, weight in steps[facet]:
                        total += weight * below[w + ki]
                    values[w] = prefactor * total
            # every shift of a plan feeds (0, 0), and a value that is not
            # finite stays so through the weighted sums above it
            if not all(map(cmath.isfinite, values.values())):
                if top is None and j not in shares:
                    raise QuadratureError(
                        f"shift continuation over {len(levels)} levels overflowed at {pair}: "
                        f"the values of level {m} are not finite"
                    )
                values = None
            if shares.get(j) == m:
                tails[j] = values
            below = values
        results.append(extension_shift(A, pair, x, theta, pair_order) if below is None else below[0])
    return results


def _loop_integral(A, beta, x, circles):
    """Loop integrals of f^(b1) z^(-b2) dz/z on a list of circles (center,
    radius, orientation), with the branch tracked continuously from each
    circle's starting node (angle 0 on it).

    When the total phase does not return to its start the value depends on
    that convention; callers needing single-valuedness restrict the
    parameters accordingly.

    Each circle takes m = 64, 128, ..., 2^18 nodes until two successive
    values agree; a phase tracking failure forgets its values.  A pass
    refines the open circles at the first one's node count, a row each, as
    many as a block of _BLOCK_VALUES values holds: together while several
    fit, one after another past that.  A row takes a lone circle's
    operations elementwise and numpy sums it along its contiguous nodes, so
    each value is its circle's alone, bit for bit.  The first
    failing circle in list order raises what it raises alone (through the
    origin, a curve root on it, no convergence at 2^18 nodes), and no later
    circle is refined after it fails.
    """
    import numpy as np
    b1 = complex(beta[0])
    b2 = complex(beta[1])
    values = [None] * len(circles)
    # the node count of each open circle, in list order, the values of its
    # last two node counts since its last phase failure, and the error of
    # the first circle that failed
    nodes = dict.fromkeys(range(len(circles)), 64)
    older, prev = [None] * len(circles), [None] * len(circles)
    error = None
    while nodes:
        m = next(iter(nodes.values()))
        rows = [i for i, n in nodes.items() if n == m][:max(1, _BLOCK_VALUES // m)]
        phi = _TWO_PI * np.arange(m) / m
        turns = {o: np.exp(1j * o * phi) for o in {circles[i][2] for i in rows}}
        center, radius, turn = (np.array(column, dtype=complex)[:, None] for column in zip(
            *((c, r, 1j * o * r) for c, r, o in (circles[i] for i in rows))))
        e = np.array([turns[circles[i][2]] for i in rows])
        z = center + radius * e
        mag = np.abs(z)
        # a row through the origin fails; its nodes move off it
        near = np.any(mag < 1e-300, axis=1)
        z[near] = mag[near] = 1.0
        logz = np.log(mag) + 1j * np.unwrap(np.angle(z))
        logf, whys = _tracked_log_f(A, x, logz)
        sums = np.sum(np.exp(b1 * logf - b2 * logz) * (turn * e / z), axis=1)
        for r, i in enumerate(rows):
            if near[r] or whys[r] == "zero":
                error = "loop passes through the origin" if near[r] else "curve root on the loop"
            else:
                if whys[r] == "phase":
                    older[i] = prev[i] = None
                else:
                    val = complex(_TWO_PI / m * sums[r])
                    if prev[i] is not None and abs(val - prev[i]) <= _TOL * max(1.0, abs(val)):
                        values[i] = val
                        del nodes[i]
                        continue
                    older[i], prev[i] = prev[i], val
                if m < 1 << 18:
                    nodes[i] = 2 * m
                    continue
                last = " and ".join(f"{v:.6g}" for v in (older[i], prev[i]) if v is not None) or "none"
                error = (f"loop quadrature failed to converge: center = {circles[i][0]:.6g}, "
                         f"radius = {circles[i][1]:.6g}, nodes = {m}, last values {last}")
            nodes = {j: n for j, n in nodes.items() if j < i}
            break
    if error is not None:
        raise QuadratureError(error)
    return values


def residue_integral(A, beta, x, root_index):
    """Counterclockwise loop integral around one root of f (no 1/(2 pi i)
    normalization).  With integral b1 the branch closes up and the value is
    the honest contour integral; the difference of the two adjacent
    component ray integrals equals this value.

    ``root_index`` may be a list of root indices, "zero" and "infinity" (the
    loops of residue_at_zero and residue_at_infinity): their values in one
    call of _loop_integral.  A loop its parameters do not close up raises
    first, in list order."""
    loops = root_index if isinstance(root_index, list) else [root_index]
    values = _loop_integral(A, beta, x, [_circle(A, beta, x, loop) for loop in loops])
    return values if isinstance(root_index, list) else values[0]


def _integral_level(A, facet, beta):
    level = facet_level(A.k, facet, (complex(beta[0]), complex(beta[1])))
    return abs(level.imag) <= 1e-9 and abs(level.real - round(level.real)) <= 1e-9


def _quiet_radius(A, beta, x, scale, factors):
    """The first radius factor * scale around the origin whose circle has
    the least peak of Re(b1 log f - b2 log z) over 64 nodes, all candidates
    in one pass.  The trapezoid rule on a circle loses about the digits by
    which the integrand's peak exceeds the value (Bornemann 2011;
    Trefethen-Weideman 2014)."""
    import numpy as np
    phi = _TWO_PI * np.arange(64) / 64
    logz = np.array([math.log(factor * scale) for factor in factors], dtype=complex)[:, None] + 1j * phi
    logf, whys = _tracked_log_f(A, x, logz)
    peaks = np.max((complex(beta[0]) * logf - complex(beta[1]) * logz).real, axis=1).tolist()
    peaks = [math.inf if why else peak for why, peak in zip(whys, peaks)]
    return factors[peaks.index(min(peaks))] * scale


def _circle(A, beta, x, loop):
    """The circle (center, radius, orientation) of the loop about a root
    index, "zero" or "infinity"; the last two need an integral facet level."""
    if loop == "zero" and not _integral_level(A, FACET_0, beta):
        raise QuadratureError("origin loop needs an integral second parameter")
    if loop == "infinity" and not _integral_level(A, FACET_K, beta):
        raise QuadratureError("infinity loop needs an integral facet-k pairing")
    roots = roots_and_components(A, x).roots
    if loop == "zero":
        return 0.0, _quiet_radius(A, beta, x, min(map(abs, roots)), (0.5, 0.6, 0.7, 0.8, 0.9)), 1
    if loop == "infinity":
        return 0.0, _quiet_radius(A, beta, x, max(map(abs, roots)), (2.0, 1.6, 1.4, 1.2, 1.1)), -1
    rho = roots[loop]
    return rho, 0.4 * min([abs(rho)] + [abs(rho - r) for i, r in enumerate(roots) if i != loop]), 1


def residue_at_zero(A, beta, x):
    """Counterclockwise loop around the origin inside all roots.  Requires
    integral b2 so that z^(-b2) closes up around the origin."""
    return _loop_integral(A, beta, x, [_circle(A, beta, x, "zero")])[0]


def residue_at_infinity(A, beta, x):
    """Clockwise loop outside all roots.  Requires integral k b1 - b2 for
    single-valuedness; together with the other loops it satisfies the sum
    rule  origin + all roots + infinity = 0."""
    return _loop_integral(A, beta, x, [_circle(A, beta, x, "infinity")])[0]


def power_series_coefficient(A, b1, N, x):
    """Coefficient of z^N in f^(b1) around z = 0, principal branch of
    x_1^(b1).  Satisfies f h' = b1 f' h, which gives a stable linear
    recurrence in the coefficients."""
    b1 = complex(b1)
    N = int(N)
    if N < 0:
        return 0.0 + 0.0j
    c = [0.0 + 0.0j] * (A.k + 1)
    for i, ki in enumerate(A.exponents):
        c[ki] += complex(x[i])
    a = [0.0 + 0.0j] * (N + 1)
    a[0] = cmath.exp(b1 * cmath.log(c[0]))
    for M in range(N):
        acc = 0.0 + 0.0j
        for d in range(1, min(A.k, M + 1) + 1):
            acc += c[d] * (b1 * d - (M + 1 - d)) * a[M + 1 - d]
        a[M + 1] = acc / (c[0] * (M + 1))
    return a[N]


class PolarMatchResult:
    """Comparison of a contour residue in the parameter plane against the
    finite solution on the polar line."""

    def __init__(self, facet, level, lam, contour_value, series_value):
        self.facet = facet
        self.level = level
        self.lam = lam
        self.contour_value = contour_value
        self.series_value = series_value
        self.abs_error = abs(contour_value - series_value)
        scale = max(abs(contour_value), abs(series_value))
        self.rel_error = self.abs_error / scale if scale > 0 else 0.0

    def __repr__(self):
        return (
            f"PolarMatchResult({self.facet}, level={self.level}, "
            f"rel_error={self.rel_error:.2e})"
        )


def polar_line_match_check(A, facet, level, lam, x, theta=None):
    """Residue of the analytically continued ray integral across a polar
    line, computed by a small parameter-plane contour, against its predicted
    value -(lam/N) times the finite solution (minus the bare base monomial
    at level 0).

    The residue does not depend on which angular component the ray sits in,
    so any theta gives the same value.  The line point lam is real (a
    rational, or a float taken exactly), so the finite solution's exact
    monomials are evaluated there.

    The contour is a circle of 24 nodes around the level.  Its radius is a
    quarter of min(1, d), where d is the distance from the other facet's
    level at the point to that facet's nearest polar level: the trapezoid
    error falls like (radius / d)^24.  On a crossing with a polar line of
    the other facet d is 0, the pole is not simple and the check fails.
    """
    level = int(level)
    if theta is None:
        theta = roots_and_components(A, x).ray_angles[0]
    other = FACET_K if facet == FACET_0 else FACET_0
    t = facet_level(A.k, other, (lam, facet_level(A.k, facet, (lam, level))))
    polar = _polar_level_semigroup(A, other)
    d = min((abs(t - m) for m in (math.floor(t), math.ceil(t)) if m in polar), default=1)
    radius = float(min(1, d)) / 4
    nodes = 24
    lam_c = complex(lam)
    turns = [cmath.exp(1j * (_TWO_PI * j / nodes)) for j in range(nodes)]
    # the points over lam_c of the facet line at the levels N + eps, all
    # continued in one call; the continued value does not depend on the order
    betas = [(lam_c, facet_level(A.k, facet, (lam_c, level + radius * turn))) for turn in turns]
    acc = 0.0 + 0.0j
    for val, turn in zip(extension_shift(A, betas, x, theta, ["facet-0-first"] * nodes), turns):
        acc += val * turn
    contour = radius / nodes * acc
    finite = polar_line_solution(A, facet, level)
    series_val = finite.evaluate(lam, x)
    if level == 0:
        expected = -series_val
    else:
        expected = -(lam_c / level) * series_val
    return PolarMatchResult(facet, level, lam, contour, expected)
