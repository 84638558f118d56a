"""Slow, independent routes to what the fast paths of curvegkz compute.

The library counts parts from both ends of one staircase per semigroup,
the minimal pairs (m, |g*p - m|) of each residue class mod an end
generator g over the sums m of p other generators, built one layer of
parts at a time.  About the largest generator it decides "(b1, b2) in
NA", the rank jumps and the search box of analyze; about the least one it
gives the decompositions with the most parts that the cocycle generators
use, and its first entries, the Apery set of the least generator, decide
membership and the Frobenius number.  The searches below answer the same
questions without them, so the tests can compare two routes instead of
one formula with itself: the least and the most parts come from tables
over every m, and so does a decomposition with the most parts, the
staircase about either end from all sums of up to P other generators,
the Apery set of any member by shortest paths over its residues, the
Frobenius number from a search for a run of members, the rank jumps from
a sweep over every candidate b1 of each row, and the search box from the
least parts of every member of its window.

The exact series path has its plain versions here as well: the kernel
steps by a search of the whole box, the series coefficients by one
Fraction per factor or by integer products built afresh for every step,
the operator residuals by one Fraction per factor or by a table of
steps that every contribution fills, and the residuals on a polar line by
one PolyQ in lam per factor.  PolyQ, a dense polynomial over Q,
is defined here: the library stores each coefficient of a line solution
as a rational times a run of linear factors, and ``expand_factored``
multiplies such a series out for the oracles.  The Groebner basis, which
the library reads off the kernel vectors of A, is computed here twice: by
Buchberger's algorithm from a kernel lattice basis, saturating one
variable at a time, with an S-pair list sorted again before every pop,
and by a walk over the fibers of the grading that keeps one standard
monomial per fiber, degree by degree, and lists no kernel vector.

The closed forms of the library have their searches here too: the finite
polar-line solutions by a path sum over ordered part sequences, their
stripped factor by a Euclidean gcd of all coefficients, the two Delta
conditions by a reach table over sums of Delta columns, and the shift
continuation by its recursive memoised definition and, for a list of
pairs, by one plan and one combination per entry, shared with no other.
Whether two exact solutions are proportional is decided by the rank of
their zero-filled coefficient rows.  The ray quadrature is here as one
loop per parameter pair: nodes and log f built at every refinement level
of every call, and one 1-D array per level.  The sample points are drawn
here from numpy.random itself, the stream the library copies in integer
arithmetic.

The JSON text of a report, which the library writes in one pass, is here
as ``json.dumps`` with sorted keys and 2-space indentation, run on a copy
of the report with string keys, Fractions as strings and complex values
as pairs.
"""

import cmath
import heapq
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from curvegkz import analytic, toric
from curvegkz.analytic import _TWO_PI, _tracked_log_f
from curvegkz.curve import FACET_0, FACET_K, facet_parts, facet_semigroup
from curvegkz.errors import LogObstructionError, PolarLineError, QuadratureError, SeriesDenominatorError
from curvegkz.series import AnnihilationReport


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact number, got {type(x).__name__}")


class PolyQ:
    """Dense univariate polynomial over Q, coefficients ascending.

    >>> p = PolyQ([1, -2, 1])          # 1 - 2 t + t^2
    >>> p(Fraction(1))
    Fraction(0, 1)
    >>> p.root_multiplicity(Fraction(1))
    2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def variable():
        return PolyQ([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise AssertionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyQ([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, PolyQ) else PolyQ([-_as_fraction(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        if not isinstance(other, PolyQ):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, PolyQ) or other.is_zero():
            raise AssertionError(f"cannot divide by {other!r}")
        rem = list(self.coeffs)
        den = other.coeffs
        if len(rem) < len(den):
            return PolyQ(), self
        quot = [Fraction(0)] * (len(rem) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(den) - 1] / den[-1]
            quot[i] = c
            if c:
                for j, d in enumerate(den):
                    rem[i + j] -= c * d
        return PolyQ(quot), PolyQ(rem)

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise AssertionError("division was not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return PolyQ([c / lead for c in self.coeffs])

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def derivative(self, times=1):
        p = self
        for _ in range(times):
            p = PolyQ([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    def root_multiplicity(self, a):
        """Multiplicity of ``a`` as a root (0 when not a root)."""
        a = _as_fraction(a)
        if self.is_zero():
            raise ValueError("zero polynomial vanishes to infinite order")
        mult = 0
        p = self
        lin = PolyQ([-a, 1])
        while p(a) == 0:
            p = p.divexact(lin)
            mult += 1
        return mult

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(float(c))
        return acc

    def text(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                mono = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                mono = f"{head}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(("- " if c < 0 else "+ ") + mono)
        return " ".join(parts)

    def __repr__(self):
        return f"PolyQ({self.text()})"


def factor_run(start, stop):
    """(lam - start)(lam - start - 1)...(lam - stop + 1) as a PolyQ in lam;
    1 when stop <= start."""
    run = PolyQ([1])
    for j in range(start, stop):
        run = run * PolyQ([-j, 1])
    return run


def expand_factored(series):
    """The coefficients of a FiniteSeries multiplied out, {offset: PolyQ in
    lam}: the rational of each term times its run of factors from the
    series' start up to its number of parts c = -o_base."""
    return {o: factor_run(series.start, -o[series.base]) * r for o, r in series.terms.items()}


def min_parts_table(gens, upto):
    """Least number of generators summing to each m <= upto (None on gaps),
    by a table over every m."""
    table = [0]
    for t in range(1, upto + 1):
        prev = [table[t - g] for g in gens if g <= t and table[t - g] is not None]
        table.append(min(prev) + 1 if prev else None)
    return table


def max_parts_table(gens, upto):
    """Largest number of generators summing to each m <= upto (None on
    gaps), by a table over every m."""
    table = [0]
    for t in range(1, upto + 1):
        prev = [table[t - g] for g in gens if g <= t and table[t - g] is not None]
        table.append(max(prev) + 1 if prev else None)
    return table


def max_parts_decomposition_by_table(N, gens):
    """Decomposition of N in the semigroup with the largest number of
    parts, preferring small generators; None when N is not a member."""
    N = int(N)
    if N < 0:
        return None
    gens = sorted(set(int(g) for g in gens))
    NEG = -1
    mp = [NEG] * (N + 1)
    mp[0] = 0
    for v in range(1, N + 1):
        best = NEG
        for g in gens:
            if g <= v and mp[v - g] != NEG:
                best = max(best, mp[v - g] + 1)
        mp[v] = best
    if mp[N] == NEG:
        return None
    counts = {g: 0 for g in gens}
    r = N
    while r > 0:
        for g in gens:
            if g <= r and mp[r - g] == mp[r] - 1:
                counts[g] += 1
                r -= g
                break
        else:
            raise AssertionError("decomposition reconstruction failed")
    return counts


def staircase_by_sums(gens, P, pivot=None):
    """The minimal pairs (m, |g*p - m|) of each residue class mod the pivot
    g, an end generator (the largest by default), over every sum m of p <= P
    other generators: those no other pair of the class is at most in both
    entries, sorted by m."""
    g = max(gens) if pivot is None else pivot
    others = sorted(set(gens) - {g})
    pairs = {
        (sum(parts), abs(g * p - sum(parts)))
        for p in range(P + 1)
        for parts in itertools.combinations_with_replacement(others, p)
    }
    classes = [[] for _ in range(g)]
    for x, y in sorted(pairs):
        classes[x % g].append((x, y))
    return [[a for a in c if not any(b[0] <= a[0] and b[1] <= a[1] and b != a for b in c)] for c in classes]


def apery_by_shortest_paths(gens, m):
    """Least member of each residue class r mod a member ``m``, by shortest
    paths over the residues, one edge per generator (Nijenhuis 1979)."""
    least, heap = [None] * m, [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if least[r] is None:
            least[r] = d
            for g in gens:
                heapq.heappush(heap, (d + g, (r + g) % m))
    return least


def frobenius_by_run(gens):
    """Largest gap of the semigroup (-1 without gaps): once min(gens)
    consecutive members appear, everything larger is a member."""
    m0 = min(gens)
    table = min_parts_table(gens, m0 * max(gens) + m0 + 1)
    run = 0
    for m, parts in enumerate(table):
        run = run + 1 if parts is not None else 0
        if run == m0:
            return max((t for t in range(m) if table[t] is None), default=-1)
    raise AssertionError(f"no full run of {m0} members in {gens}")


def rank_jumps_by_candidates(A):
    """The rank jumps by a sweep over every b1 of each row: b2 a member of
    the facet-k semigroup, up to T + 2k with T the larger of its period
    start and Frobenius number, and ceil(b2/k) <= b1 < min_parts(b2), kept
    when the facet-0 level k*b1 - b2 is a member of the facet-0 semigroup.
    Both memberships come from least-parts tables over every m."""
    k = A.k
    gk = facet_semigroup(A, FACET_K).gens
    top = max((gk[-1] - 1) * (gk[-2] if len(gk) > 1 else 0), frobenius_by_run(gk)) + 2 * k
    rows = min_parts_table(gk, top)
    candidates = [(b1, b2) for b2, parts in enumerate(rows) if parts is not None for b1 in range(-(-b2 // k), parts)]
    levels = min_parts_table(facet_semigroup(A, FACET_0).gens, max((k * b1 - b2 for b1, b2 in candidates), default=0))
    return sorted((b1, b2) for b1, b2 in candidates if levels[k * b1 - b2] is not None)


def jump_box_by_window(A):
    """The search box of analyze, (0, k*C, 0, k^2*C) with C at least 1 and
    at least the least parts of every member of [0, F + k + 1] in the
    facet-k semigroup, from a least-parts table over that window."""
    gens = facet_semigroup(A, FACET_K).gens
    window = frobenius_by_run(gens) + A.k + 1
    C = max(1, max(parts for parts in min_parts_table(gens, window) if parts is not None))
    return (0, A.k * C, 0, A.k * A.k * C)


def in_NA_brute(A, b1, b2):
    """(b1, b2) in NA by enumerating the weak compositions of b1 over the
    columns."""
    if b1 < 0 or b1 != int(b1):
        return False
    b1 = int(b1)
    for cs in itertools.product(range(b1 + 1), repeat=A.n):
        if sum(cs) == b1 and sum(c * e for c, e in zip(cs, A.exponents)) == b2:
            return True
    return False


_COLUMN_SUM_LEVELS = {}


def in_NA_bfs(A, b1, b2):
    """(b1, b2) in NA by breadth-first search over sums of columns: level r
    holds the second coordinates of all sums of r columns.  The levels are
    kept per matrix, so a sweep builds each one once."""
    if b1 < 0:
        return False
    levels = _COLUMN_SUM_LEVELS.setdefault(A, [{0}])
    while len(levels) <= b1:
        levels.append({s + e for s in levels[-1] for e in A.exponents})
    return b2 in levels[b1]


@lru_cache(maxsize=None)
def _ray0_by_shift(A, a2):
    # a shift by a_1 = (1, 0) keeps a2; every part is at least 1, so a
    # witness never needs a first coordinate above a2
    return any(in_NA_bfs(A, c, a2) for c in range(0, a2 + 2))


@lru_cache(maxsize=None)
def _rayk_by_shift(A, P):
    # a shift by a_n = (1, k) keeps P = k*a1 - a2; the shifted point with
    # first coordinate m is (m, m*k - P)
    return any(in_NA_bfs(A, m, m * A.k - P) for m in range(0, P + 2) if m * A.k >= P)


def in_ray_module_by_shift(A, alpha, ray):
    """alpha in Q + Z a_1 (ray 0) or Q + Z a_n (ray k), by searching the
    integer shifts t with alpha - t * a_ray in NA."""
    a1, a2 = int(alpha[0]), int(alpha[1])
    if ray == FACET_0:
        return _ray0_by_shift(A, a2)
    if ray == FACET_K:
        return _rayk_by_shift(A, A.k * a1 - a2)
    raise ValueError(f"unknown ray {ray!r}")


def h1_support_by_search(A, box):
    """Degrees in the box that lie in both ray modules but not in NA, all
    three memberships decided by the searches above."""
    b1min, b1max, b2min, b2max = box
    return [
        (a1, a2)
        for a1 in range(b1min, b1max + 1)
        for a2 in range(b2min, b2max + 1)
        if in_ray_module_by_shift(A, (a1, a2), FACET_0)
        and in_ray_module_by_shift(A, (a1, a2), FACET_K)
        and not in_NA_bfs(A, a1, a2)
    ]


def kernel_steps_brute(A, bound, mid_lower):
    """Kernel lattice vectors with |u|_1 <= bound and middle coordinates
    bounded below by ``mid_lower``, by testing every point of the box
    [-bound, bound] of the middle coordinates in lexicographic order."""
    n, k = A.n, A.k
    mids = range(1, n - 1)
    ranges = [range(max(mid_lower.get(i, -bound), -bound), bound + 1) for i in mids]
    out = []
    for combo in itertools.product(*ranges):
        wsum = sum(A.exponents[i] * c for i, c in zip(mids, combo))
        if wsum % k:
            continue
        u_last = -wsum // k
        u_first = -sum(combo) - u_last
        u = (u_first,) + tuple(combo) + (u_last,)
        if sum(abs(c) for c in u) <= bound:
            out.append(u)
    return out


def phi_coefficient_fractions(v, u):
    """Coefficient of the step u in the canonical series at v, one Fraction
    per falling and rising factor."""
    num = Fraction(1)
    den = Fraction(1)
    for i, ui in enumerate(u):
        vi = v[i]
        if ui < 0:
            for j in range(1, -ui + 1):
                num *= vi - j + 1
        elif ui > 0:
            for j in range(1, ui + 1):
                f = vi + j
                if f == 0:
                    raise SeriesDenominatorError(u, i)
                den *= f
    return num / den


def phi_coefficient_integers(v, u):
    """Coefficient of the step u in the canonical series at v, from its
    own integer products over one common denominator D of v: the factors
    N_i - j D on top for u_i < 0 and N_i + j D below for u_i > 0, with no
    table shared between steps."""
    D = lcm(*(vi.denominator for vi in v))
    num = den = 1
    for i, (vi, ui) in enumerate(zip(v, u)):
        Ni = vi.numerator * (D // vi.denominator)
        if ui < 0:
            for j in range(-ui):
                num *= Ni - j * D
        elif ui > 0:
            for j in range(1, ui + 1):
                f = Ni + j * D
                if f == 0:
                    raise SeriesDenominatorError(u, i)
                den *= f
    return Fraction(num, den)


def series_terms_brute(A, fe, bound):
    """(step, coefficient) pairs of the canonical series at the fake
    exponent fe, in the order of the box search: the kernel steps of the
    whole box, the end coordinates outside sigma kept nonnegative, and one
    Fraction per factor; a vanishing rising factor raises as the library
    does, at the first step that has one."""
    v = tuple(Fraction(c) for c in fe.v)
    n, sigma = A.n, fe.pair.sigma
    out = []
    for u in kernel_steps_brute(A, bound, {i: -fe.pair.r[i] for i in range(1, n - 1)}):
        if (0 in sigma or v[0] + u[0] >= 0) and (n - 1 in sigma or v[n - 1] + u[n - 1] >= 0):
            c = phi_coefficient_fractions(v, u)
            if c != 0:
                out.append((u, c))
    return out


def truncated_annihilation_fractions(series, generators):
    """(checked, skipped, failures) of the binomial operators on a truncated
    series, with every exponent and residual key a Fraction."""
    v = series.v
    n = len(v)
    checked = skipped = 0
    failures = []
    for a, b in generators:
        residual = {}
        for u, c in series.terms.items():
            w = tuple(vi + ui for vi, ui in zip(v, u))
            for mono, sign in ((a, 1), (b, -1)):
                ff = Fraction(1)
                for wi, mi in zip(w, mono):
                    for j in range(mi):
                        ff *= wi - j
                if ff == 0:
                    continue
                key = tuple(wi - mi for wi, mi in zip(w, mono))
                residual[key] = residual.get(key, Fraction(0)) + sign * c * ff
        for key, val in residual.items():
            size_a = sum(abs(Fraction(key[i]) + a[i] - v[i]) for i in range(n))
            size_b = sum(abs(Fraction(key[i]) + b[i] - v[i]) for i in range(n))
            if size_a <= series.bound and size_b <= series.bound:
                checked += 1
                if val != 0:
                    failures.append(((a, b), key, val))
            else:
                skipped += 1
    return checked, skipped, failures


def residual_check_by_steps(gens, rows, D, v, bound, skip):
    """series._residual_check by a table of steps: every contribution of
    every row, in row order, fills the six slots [p_a ff_a, q_a, source
    inside, p_b ff_b, q_b, source inside] of its step, and the steps are
    decided in the order of their first contribution."""

    def inside(u):
        return bound is None or sum(map(abs, u)) <= bound

    # once per term: p and q of c, and whether u is inside the bound
    rows = [(u, w, c.numerator, c.denominator, inside(u)) for u, w, c in rows]
    checked = 0
    skipped = 0
    failures = []
    for a, b in gens:
        # step -> [p_a ff_a, q_a, source inside, p_b ff_b, q_b, source inside],
        # in first-contribution order; None: no term from that side
        sides = {}
        both = [(m, [(i, mi) for i, mi in enumerate(m) if mi and i != skip], slot) for m, slot in ((a, 0), (b, 3))]
        for u, w, p, q, in_u in rows:
            for mono, support, slot in both:
                ff = 1
                for i, mi in support:
                    wi = w[i]
                    for j in range(mi):
                        ff *= wi - j * D
                if ff == 0:
                    continue
                step = tuple([ui - mi for ui, mi in zip(u, mono)])
                entry = sides.get(step)
                if entry is None:
                    entry = sides[step] = [0, 1, None, 0, 1, None]
                entry[slot : slot + 3] = p * ff, q, in_u
        scale = D ** sum(a)
        for step, (pa, qa, in_a, pb, qb, in_b) in sides.items():
            # the source steps step + a and step + b must be inside the bound
            if in_a is None:
                in_a = inside([s + ai for s, ai in zip(step, a)])
            if in_b is None:
                in_b = inside([s + bi for s, bi in zip(step, b)])
            if in_a and in_b:
                checked += 1
                if pa * qb != pb * qa:
                    key = tuple(vi + s for vi, s in zip(v, step))
                    failures.append(((a, b), key, Fraction(pa, qa * scale) - Fraction(pb, qb * scale)))
            else:
                skipped += 1
    return AnnihilationReport(not failures, checked, skipped, failures)


def finite_annihilation_polyq(series, generators):
    """(checked, failures) of the binomial operators on a finite polar-line
    solution, multiplied out, with every falling factorial and residual a
    PolyQ in lam."""
    base = series.base
    n = series.A.n
    terms = expand_factored(series)
    checked = 0
    failures = []
    for a, b in generators:
        residual = {}
        for o, c in terms.items():
            for mono, sign in ((a, 1), (b, -1)):
                ff = PolyQ([1])
                for i in range(n):
                    for j in range(mono[i]):
                        ff = ff * (PolyQ([o[i] - j, 1]) if i == base else Fraction(o[i] - j))
                if ff.is_zero():
                    continue
                key = tuple(oi - mi for oi, mi in zip(o, mono))
                residual[key] = residual.get(key, PolyQ()) + sign * c * ff
        for key, val in residual.items():
            checked += 1
            if not val.is_zero():
                failures.append(((a, b), key, val))
    return checked, failures


def parametric_derivative_polyq(series, lam0, q):
    """series.parametric_derivative on the multiplied-out coefficients: the
    root multiplicity at lam0 by repeated division, the value by the q-th
    derivative of the PolyQ."""
    out = []
    for o, c in sorted(expand_factored(series).items()):
        mult = c.root_multiplicity(lam0) if c(lam0) == 0 else 0
        if mult < q:
            raise LogObstructionError(o, mult, q)
        val = c.derivative(q)(lam0)
        if val != 0:
            out.append((val, tuple(oi + lam0 if i == series.base else Fraction(oi) for i, oi in enumerate(o))))
    return out


def kernel_lattice_basis(A):
    """A lattice basis of the integer kernel of the matrix.

    Built from the obvious basis e_i - e_n of the kernel of the top row by a
    unimodular column reduction of the remaining weight row, so the result
    generates the full kernel lattice, not just a finite-index sublattice.
    """
    n = A.n
    if n == 2:
        return []
    weights = [A.exponents[i] - A.k for i in range(n - 1)]  # second row on e_i - e_n
    m = n - 1
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]  # columns track ops
    row = list(weights)

    def col_op(dst, src, q):
        # column dst -= q * column src
        row[dst] -= q * row[src]
        for r in range(m):
            U[r][dst] -= q * U[r][src]

    pivot = 0
    while True:
        nz = [j for j in range(m) if row[j] != 0]
        if len(nz) <= 1:
            pivot = nz[0] if nz else 0
            break
        nz.sort(key=lambda j: abs(row[j]))
        a, b = nz[0], nz[1]
        col_op(b, a, row[b] // row[a])
    basis = []
    for j in range(m):
        if j == pivot and row[pivot] != 0:
            continue
        u = [0] * n
        for i in range(m):
            c = U[i][j]
            u[i] += c
            u[n - 1] -= c
        if A.degree(u) != (0, 0):
            raise AssertionError(f"{u} is not in the kernel lattice")
        basis.append(tuple(u))
    return basis


def lattice_binomials(A):
    """The binomials x^u+ - x^u- of a kernel lattice basis."""
    return [
        (tuple(max(c, 0) for c in u), tuple(max(-c, 0) for c in u))
        for u in kernel_lattice_basis(A)
    ]


def _reduce_binomial(binom, gens, order):
    """Total reduction of a binomial by a list of binomials."""
    lead, trail = binom
    changed = True
    while changed:
        changed = False
        for (gl, gt) in gens:
            if toric._divides(gl, lead):
                lead = tuple(l - a + b for l, a, b in zip(lead, gl, gt))
                ori = toric._binomial(lead, trail, order)
                if ori is None:
                    return None
                lead, trail = ori
                changed = True
                break
    # the lead is now in normal form; push the trail down as well
    changed = True
    while changed:
        changed = False
        for (gl, gt) in gens:
            if toric._divides(gl, trail):
                trail = tuple(t - a + b for t, a, b in zip(trail, gl, gt))
                if trail == lead:
                    return None
                changed = True
                break
    if not order.greater(lead, trail):
        raise AssertionError(f"reduced binomial {lead} - {trail} is not oriented")
    return (lead, trail)


def _interreduce(G, order):
    # keep one generator per minimal lead, then tail-reduce against the rest
    uniq = sorted(set(G), key=lambda b: order.key(b[0]))
    minimal = []
    for i, g in enumerate(uniq):
        dominated = any(
            j != i and toric._divides(h[0], g[0]) and (h[0] != g[0] or j < i)
            for j, h in enumerate(uniq)
        )
        if not dominated:
            minimal.append(g)
    out = []
    for g in minimal:
        others = [h for h in minimal if h is not g]
        red = _reduce_binomial(g, others, order) if others else g
        if red is not None:
            out.append(red)
    return sorted(set(out), key=lambda b: order.key(b[0]))


def buchberger_sorted(gens, order, degree_bound):
    """Buchberger's algorithm on binomials, the S-pair list sorted by lcm
    degree, largest first, before every pop, and the result interreduced."""
    G = [ori for ori in (toric._binomial(a, b, order) for a, b in gens) if ori]
    pairs = [(i, j) for i in range(len(G)) for j in range(i)]
    while pairs:
        pairs.sort(key=lambda ij: sum(max(a, b) for a, b in zip(G[ij[0]][0], G[ij[1]][0])), reverse=True)
        i, j = pairs.pop()
        f, g = G[i], G[j]
        if all(min(a, b) == 0 for a, b in zip(f[0], g[0])):
            continue
        s = toric._spair(f, g, order)
        h = None if s is None else _reduce_binomial(s, G, order)
        if h is None:
            continue
        if sum(h[0]) > degree_bound:
            raise AssertionError(f"Groebner degree {sum(h[0])} exceeded the bound {degree_bound}")
        G.append(h)
        pairs.extend((len(G) - 1, t) for t in range(len(G) - 1))
    return _interreduce(G, order)


def toric_ideal_groebner_sorted(A, order_name):
    """Generators of the reduced Groebner basis of the toric ideal by
    saturation: from a kernel lattice basis, one Buchberger run per
    variable with that variable cheapest, dividing it out after each run,
    then a last run under the target order.  For a lattice ideal this
    yields the full saturation."""
    n = A.n
    degree_bound = max(2 * A.k * A.k, 8)
    gens = lattice_binomials(A)
    for var in range(n):
        cheap = (var,) + tuple(i for i in range(n) if i != var)
        gens = [
            tuple(m[:var] + (m[var] - min(a[var], b[var]),) + m[var + 1 :] for m in (a, b))
            for a, b in buchberger_sorted(gens, toric.TermOrder(n, cheap), degree_bound)
        ]
    return tuple(buchberger_sorted(gens, toric.term_order(order_name, n), degree_bound))


def toric_ideal_groebner_by_fibers(A, order_name):
    """Generators of the reduced Groebner basis read off the fibers of the
    grading one degree at a time.

    The first row of A is all ones and every term order here is graded, so
    the monomials of degree d split into fibers by their weight
    sum(k_i u_i), and I_A is spanned in degree d by the differences inside
    each fiber.  The least monomial of a fiber is standard, and every other
    member lies in the initial ideal.  Standard monomials form an order
    ideal, so the candidates of degree d are x_i times the standard
    monomials of degree d - 1, minus those that a lead found so far
    divides.  In each fiber the least candidate is the new standard
    monomial, and every other one is a minimal generator of the initial
    ideal with that least monomial as its tail.  From degree k - n + 3 on,
    the walk stops at the first degree where every S-pair reduces to zero.
    Degree d has up to k d + 1 fibers, so the walk to degree k - n + 3
    grows like k^3, however small the basis.
    """
    n = A.n
    order = toric.term_order(order_name, n)
    standard = {0: (0,) * n}  # weight -> the standard monomial of that fiber
    gens = []
    for d in itertools.count(1):
        # base is standard, so a lead that divides x_i base contains x_i
        with_i = [[lead for lead, _ in gens if lead[i]] for i in range(n)]
        fibers = {}
        for w, base in standard.items():
            for i, ki in enumerate(A.exponents):
                m = base[:i] + (base[i] + 1,) + base[i + 1 :]
                if not any(toric._divides(lead, m) for lead in with_i[i]):
                    fibers.setdefault(w + ki, set()).add(m)
        standard = {}
        for w, members in fibers.items():
            least = standard[w] = min(members, key=order.key)
            gens.extend((m, least) for m in members - {least})
        if d < A.k - n + 3:
            continue
        gb = toric.GroebnerBasis(A, order, sorted(gens, key=lambda g: order.key(g[0])))
        spairs = (
            toric._spair(f, g, order)
            for f, g in itertools.combinations(gb.generators, 2)
            if any(min(a, b) for a, b in zip(f[0], g[0]))
        )
        if all(s is None or gb.reduces_to_zero(*s) for s in spairs):
            return gb.generators


def ordered_partitions(A, facet, N):
    """All ordered sequences of facet parts summing to N, sorted.  Groups of
    reorderings enter the finite solutions with different denominators, so
    the order of the parts matters to the path sum."""
    values = sorted(v for _, v in facet_parts(A, facet))
    out = []

    def rec(remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in values:
            if v <= remaining:
                rec(remaining - v, prefix + [v])

    if N >= 0:
        rec(int(N), [])
    return sorted(out)


def polar_line_solution_by_paths(A, facet, N):
    """The coefficients {offset: PolyQ in lam} of the finite solution on the
    level-N line of a facet, by dynamic programming over part multisets: one
    PolyQ per partial multiset, summing the per-prefix factors
    (lam - j)/(N - s) path by path."""
    N = int(N)
    parts = facet_parts(A, facet)
    lam = PolyQ.variable()
    one = PolyQ([1])
    base = 0 if facet == FACET_0 else A.n - 1
    terms = {}
    if N >= 0:
        frontier = {(0,) * len(parts): one}
        count = 0
        while frontier:
            new = {}
            for m, w in frontier.items():
                s = sum(mi * parts[p][1] for p, mi in enumerate(m))
                if s == N:
                    o = [0] * A.n
                    o[base] = -count
                    factor = 1
                    for p, mi in enumerate(m):
                        idx, value = parts[p]
                        o[idx] += mi
                        factor *= value**mi
                    key = tuple(o)
                    terms[key] = terms.get(key, PolyQ()) + w * factor
                    continue
                for p, (_, val) in enumerate(parts):
                    if s + val <= N:
                        mult = w if count == 0 else w * (lam - count) * Fraction(1, N - s)
                        m2 = m[:p] + (m[p] + 1,) + m[p + 1 :]
                        new[m2] = new.get(m2, PolyQ()) + mult
            frontier = new
            count += 1
    return {o: c for o, c in terms.items() if not c.is_zero()}


def stripped_by_gcd(series):
    """FiniteSeries.stripped by the Euclidean gcd of all coefficients,
    multiplied out: the quotients {offset: PolyQ in lam} and the gcd."""
    terms = expand_factored(series)
    g = PolyQ()
    for c in terms.values():
        g = g.gcd(c)
    if g.is_constant():
        return terms, PolyQ([1])
    return {o: c.divexact(g) for o, c in terms.items()}, g


def proportional_by_rank(m1, m2):
    """Whether two (coefficient, exponent) lists are proportional, by the
    exact rank of their coefficient rows over the union of the exponents."""
    exponents = sorted({e for _, e in m1} | {e for _, e in m2})
    index = {e: i for i, e in enumerate(exponents)}
    rows = [[Fraction(0)] * len(exponents) for _ in range(2)]
    for row, mono in zip(rows, (m1, m2)):
        for c, e in mono:
            row[index[e]] = c
    import sympy

    return sympy.Matrix(rows).rank() == 1


def delta_conditions_by_reach(A, beta):
    """The two Delta conditions of curve.delta_conditions, from a table of
    the points (x, y) <= (k b1 - b2, b2) reachable by sums of the columns
    (k - k_i, k_i)."""
    b1, b2 = beta
    if Fraction(b1).denominator != 1 or Fraction(b2).denominator != 1:
        return (False, False)
    b1, b2 = int(b1), int(b2)
    g1 = A.k * b1 - b2
    g2 = b2
    if g1 < 0 or g2 < 0:
        return (False, False)
    cols = [(A.k - e, e) for e in A.exponents]
    reach = [[False] * (g2 + 1) for _ in range(g1 + 1)]
    reach[0][0] = True
    for x in range(g1 + 1):
        for y in range(g2 + 1):
            if not reach[x][y]:
                continue
            for dx, dy in cols:
                if x + dx <= g1 and y + dy <= g2:
                    reach[x + dx][y + dy] = True
    Gk = facet_semigroup(A, FACET_K)
    G0 = facet_semigroup(A, FACET_0)
    cond1 = any(reach[g1][y] and (g2 - y) in Gk for y in range(g2 + 1))
    cond2 = any(reach[x][g2] and (g1 - x) in G0 for x in range(g1 + 1))
    return (cond1, cond2)


def sample_structured_point_by_numpy(A, seed):
    """analytic.sample_structured_point with its draws from
    numpy.random.Generator(PCG64(seed)), named in full: default_rng may
    take another bit generator in a later numpy."""
    uniform = np.random.Generator(np.random.PCG64(seed)).uniform
    for _ in range(64):
        x = []
        for i in range(A.n):
            if i == 0 or i == A.n - 1:
                mag = uniform(0.8, 1.2)
            else:
                mag = uniform(0.01, 0.05)
            x.append(mag * cmath.exp(1j * uniform(0.0, 2.0 * np.pi)))
        x = tuple(x)
        try:
            rc = analytic.roots_and_components(A, x)
        except QuadratureError:
            continue
        if min(hi - lo for lo, hi in rc.components) > 0.05:
            return x
    raise QuadratureError("could not sample a well-separated point")


def euler_mellin_untabled(A, beta, x, theta):
    """analytic.euler_mellin for one pair, in a loop of its own: the nodes
    and log f built at every refinement level, and one 1-D array a level."""
    b1 = complex(beta[0])
    b2 = complex(beta[1])
    # the wedge: both facet levels, b2 and k b1 - b2, have negative real part
    if not (b2.real < 0 and (A.k * b1 - b2).real < 0):
        raise QuadratureError(f"parameters {beta} outside the convergence wedge")
    S = 4.0
    h = 0.2
    prev = None
    while True:
        s = np.arange(-S, S + 0.5 * h, h)
        logz = np.sinh(s) + 1j * theta
        logf, why = _tracked_log_f(A, x, logz)
        if logf is None:
            if why == "zero":
                raise QuadratureError("curve root on or near the integration ray")
            h *= 0.5
            prev = None
            if h < 1e-4:
                raise QuadratureError("phase tracking failed to stabilize")
            continue
        expo = b1 * logf - b2 * logz
        expo_re = np.clip(expo.real, -700.0, 700.0)
        g = np.exp(expo_re + 1j * expo.imag) * np.cosh(s)
        if np.any(expo.real > 690.0):
            raise QuadratureError("integrand overflow: parameters too deep outside the wedge")
        gmax = float(np.max(np.abs(g)))
        if gmax == 0.0:
            return 0.0 + 0.0j
        tail = max(abs(complex(g[0])), abs(complex(g[-1])))
        if tail > 1e-16 * gmax:
            if S >= 7.0:
                raise QuadratureError("integrand tail does not decay")
            S += 1.5
            prev = None
            continue
        val = complex(h * np.sum(g))
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            return val
        prev = val
        h *= 0.5
        if h < 1e-4:
            raise QuadratureError("ray quadrature failed to converge")


def loop_integral_lone(A, beta, x, center, radius, orientation=1):
    """analytic._loop_integral for one circle, in a loop of its own: one
    1-D array of nodes per node count, log f tracked on each."""
    b1 = complex(beta[0])
    b2 = complex(beta[1])
    m = 64
    # the values of the last two node counts since the last phase failure
    older = prev = None
    while m <= 1 << 18:
        phi = _TWO_PI * np.arange(m) / m
        e = np.exp(1j * orientation * phi)
        z = center + radius * e
        if np.any(np.abs(z) < 1e-300):
            raise QuadratureError("loop passes through the origin")
        logz = np.log(np.abs(z)) + 1j * np.unwrap(np.angle(z))
        logf, why = analytic._tracked_log_f(A, x, logz)
        if logf is None:
            if why == "zero":
                raise QuadratureError("curve root on the loop")
            older = prev = None
            m *= 2
            continue
        dz_over_z = 1j * orientation * radius * e / z
        g = np.exp(b1 * logf - b2 * logz) * dz_over_z
        val = complex(_TWO_PI / m * np.sum(g))
        if prev is not None and abs(val - prev) <= analytic._TOL * max(1.0, abs(val)):
            return val
        older, prev = prev, val
        m *= 2
    last = " and ".join(f"{v:.6g}" for v in (older, prev) if v is not None) or "none"
    raise QuadratureError(
        f"loop quadrature failed to converge: center = {center:.6g}, radius = {radius:.6g}, "
        f"nodes = {m // 2}, last values {last}"
    )


def quiet_radius_lone(A, beta, x, scale, factors):
    """analytic._quiet_radius with one 64-node pass per candidate circle."""
    phi = _TWO_PI * np.arange(64) / 64
    peaks = []
    for factor in factors:
        logz = math.log(factor * scale) + 1j * phi
        logf, _ = analytic._tracked_log_f(A, x, logz)
        peaks.append(math.inf if logf is None else np.max((complex(beta[0]) * logf - complex(beta[1]) * logz).real))
    return factors[peaks.index(min(peaks))] * scale


def residue_loops_lone(A, beta, x, loops):
    """analytic.residue_integral on a list of loops, one lone circle after
    another: root indices, and "zero" and "infinity" as residue_at_zero and
    residue_at_infinity pick their circles, each raising where it fails."""
    rc = analytic.roots_and_components(A, x)
    values = []
    for loop in loops:
        if loop == "zero":
            if not analytic._integral_level(A, FACET_0, beta):
                raise QuadratureError("origin loop needs an integral second parameter")
            radius = quiet_radius_lone(A, beta, x, min(abs(r) for r in rc.roots), (0.5, 0.6, 0.7, 0.8, 0.9))
            values.append(loop_integral_lone(A, beta, x, 0.0, radius))
        elif loop == "infinity":
            if not analytic._integral_level(A, FACET_K, beta):
                raise QuadratureError("infinity loop needs an integral facet-k pairing")
            radius = quiet_radius_lone(A, beta, x, max(abs(r) for r in rc.roots), (2.0, 1.6, 1.4, 1.2, 1.1))
            values.append(loop_integral_lone(A, beta, x, 0.0, radius, orientation=-1))
        else:
            rho = rc.roots[loop]
            dist = min([abs(rho)] + [abs(rho - r) for i, r in enumerate(rc.roots) if i != loop])
            values.append(loop_integral_lone(A, beta, x, rho, 0.4 * dist))
    return values


def extension_shift_recursive(A, beta, x, theta, order="facet-0-first"):
    """analytic.extension_shift as a recursive memoised get(m, w): each node
    evaluates its children depth first, in the order of the columns, and
    each wedge shift is its own euler_mellin_untabled quadrature, so no
    quadrature code is shared with the batched pass of the library."""
    b1 = complex(beta[0])
    b2 = complex(beta[1])
    k = A.k
    margin = 0.25
    memo = {}

    def get(m, w):
        key = (m, w)
        if key in memo:
            return memo[key]
        p1 = b1 - m
        p2 = b2 - w
        if p2.real <= -margin and (k * p1 - p2).real <= -margin:
            memo[key] = euler_mellin_untabled(A, (p1, p2), x, theta)
            return memo[key]
        if order == "facet-0-first":
            facet = FACET_0 if p2.real > -margin else FACET_K
        else:
            facet = FACET_K if (k * p1 - p2).real > -margin else FACET_0
        guard = 1e-12 * (1.0 + abs(p1) * k + abs(p2))
        if facet == FACET_0:
            den = p2
            if abs(den) < guard:
                raise PolarLineError(f"facet-0 denominator vanishes at shift {key}")
            total = 0.0 + 0.0j
            for i in range(1, A.n):
                ki = A.exponents[i]
                total += ki * complex(x[i]) * get(m + 1, w + ki)
        else:
            den = k * p1 - p2
            if abs(den) < guard:
                raise PolarLineError(f"facet-k denominator vanishes at shift {key}")
            total = 0.0 + 0.0j
            for i in range(A.n - 1):
                ki = A.exponents[i]
                total += (k - ki) * complex(x[i]) * get(m + 1, w + ki)
        memo[key] = (p1 / den) * total
        return memo[key]

    return get(0, 0)


def _shift_plan_per_order(A, beta, x, order):
    """analytic._shift_plan of one pair and order, planned on its own: the
    steps of both facets and levels[m] mapping w to None inside the wedge,
    else to the facet and prefactor of the shift (m, w)."""
    b1 = complex(beta[0])
    b2 = complex(beta[1])
    k = A.k
    margin = analytic._SHIFT_MARGIN
    steps = {
        facet: [(A.exponents[i], level * complex(x[i])) for i, level in facet_parts(A, facet)]
        for facet in (FACET_0, FACET_K)
    }
    levels = []
    level = {0: None}
    size = 0
    while level:
        size += len(level)
        if size > analytic._PLAN_BUDGET:
            raise QuadratureError(
                f"the shift plan at beta = {beta} ({order}) holds more than {analytic._PLAN_BUDGET} shifts"
            )
        m = len(levels)
        levels.append(level)
        p1 = b1 - m
        below = {}
        for w in level:
            level_0 = b2.real - w
            level_k = k * (b1.real - m) - level_0
            if level_0 <= -margin and level_k <= -margin:
                continue
            if order == "facet-0-first":
                facet = FACET_0 if level_0 > -margin else FACET_K
            else:
                facet = FACET_K if level_k > -margin else FACET_0
            p2 = b2 - w
            den = p2 if facet == FACET_0 else k * p1 - p2
            if abs(den) < 1e-12 * (1.0 + abs(p1) * k + abs(p2)):
                raise PolarLineError(f"{facet} denominator vanishes at shift {(m, w)}")
            level[w] = (facet, p1 / den)
            for ki, _ in steps[facet]:
                below[w + ki] = None
        level = below
    return steps, levels


def extension_shift_per_order(A, beta, x, theta, order):
    """analytic.extension_shift on a list of pairs and orders with every
    entry planned and combined on its own, so that no entry takes a plan
    entry or value from another with the same pair.  The stages and their
    errors are the library's: all plans in list order, one batched
    euler_mellin call over the distinct wedge shifts, then each entry's
    combination from its deepest level up."""
    plans = [_shift_plan_per_order(A, pair, x, pair_order) for pair, pair_order in zip(beta, order)]
    wedge = {}
    for pair, (_, levels) in zip(beta, plans):
        b1, b2 = complex(pair[0]), complex(pair[1])
        for m, level in enumerate(levels):
            wedge.update(((b1 - m, b2 - w), None) for w, plan in level.items() if plan is None)
    wedge_values = dict(zip(wedge, analytic.euler_mellin(A, list(wedge), x, theta)))
    results = []
    for pair, (steps, levels) in zip(beta, plans):
        b1, b2 = complex(pair[0]), complex(pair[1])
        below = {}
        for m in range(len(levels) - 1, -1, -1):
            values = {}
            for w, plan in levels[m].items():
                if plan is None:
                    values[w] = wedge_values[(b1 - m, b2 - w)]
                    continue
                facet, prefactor = plan
                total = 0.0 + 0.0j
                for ki, weight in steps[facet]:
                    total += weight * below[w + ki]
                values[w] = prefactor * total
            if not all(map(cmath.isfinite, values.values())):
                raise QuadratureError(
                    f"shift continuation over {len(levels)} levels overflowed at {pair}: "
                    f"the values of level {m} are not finite"
                )
            below = values
        results.append(below[0])
    return results


def _encode(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def to_json_by_dumps(report):
    """report.to_json by the standard encoder: a copy with the rationals
    and complex values spelled out, then json.dumps."""
    return json.dumps(_encode(report), sort_keys=True, indent=2) + "\n"
