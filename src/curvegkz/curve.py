"""Combinatorics of the exponent matrix of a projective monomial curve.

The matrix has rows (1,...,1) and (k_1,...,k_n) with 0 = k_1 < ... < k_n = k
and gcd(k_2,...,k_n) = 1.  Parameters live in the column span; the two facets
of the cone are spanned by the first and last column, and each facet carries a
numerical semigroup that controls where the associated analytic continuation
has poles.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .errors import MatrixValidationError

FACET_0 = "facet-0"
FACET_K = "facet-k"
FACETS = (FACET_0, FACET_K)
# the adapted term orders of toric, named for the end column each makes cheapest
ORDER_NAMES = ("d1-first", "dn-first", "d1-mirror")


def facet_level(k, facet, beta):
    """Level of a parameter in the line family of a facet: b2 on facet-0 and
    k*b1 - b2 on facet-k, in the number type of ``beta``.

    At fixed b1 the map is an involution in b2, so (lam, facet_level(k,
    facet, (lam, N))) is the point over lam of the level-N line.

    >>> facet_level(4, FACET_K, (1, 3))
    1
    """
    if facet == FACET_0:
        return beta[1]
    if facet == FACET_K:
        return k * beta[0] - beta[1]
    raise ValueError(f"unknown facet {facet!r}")


def facet_base(A, facet):
    """The column spanning a facet: 0 for facet-0 and n-1 for facet-k."""
    if facet == FACET_0:
        return 0
    if facet == FACET_K:
        return A.n - 1
    raise ValueError(f"unknown facet {facet!r}")


def facet_parts(A, facet):
    """(column, level) for each column off a facet: k_i on facet-0 and
    k - k_i on facet-k.  Their sums are the polar levels of the facet's
    lines.

    >>> facet_parts(CurveMatrix([0, 1, 3, 4]), FACET_K)
    [(0, 4), (1, 3), (2, 1)]
    """
    base = facet_base(A, facet)
    return [(i, facet_level(A.k, facet, a)) for i, a in enumerate(A.columns) if i != base]


class CurveMatrix:
    """Immutable admissible exponent matrix.

    >>> A = CurveMatrix([0, 1, 3, 4])
    >>> A.n, A.k
    (4, 4)
    >>> A.columns[2]
    (1, 3)
    """

    __slots__ = ("exponents", "n", "k")

    def __init__(self, exponents):
        exps = tuple(exponents)
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in exps):
            raise TypeError("exponents must be integers")
        if len(exps) < 2:
            raise MatrixValidationError("too-short", "need at least two columns")
        if exps[0] != 0:
            raise MatrixValidationError("first-not-zero", f"first exponent must be 0, got {exps[0]}")
        if any(a >= b for a, b in zip(exps, exps[1:])):
            raise MatrixValidationError("non-monotone", f"exponents must strictly increase: {exps}")
        if gcd(*exps[1:]) != 1:
            raise MatrixValidationError("gcd", f"nonzero exponents must have gcd 1: {exps[1:]}")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "n", len(exps))
        object.__setattr__(self, "k", exps[-1])

    def __setattr__(self, name, value):
        raise AttributeError("CurveMatrix is immutable")

    @property
    def columns(self):
        return tuple((1, e) for e in self.exponents)

    def degree(self, v):
        """Column-weighted degree A.v of an exponent vector (both rows)."""
        if len(v) != self.n:
            raise ValueError(f"exponent vector has length {len(v)}, expected {self.n}")
        d1 = sum(v)
        d2 = sum(e * c for e, c in zip(self.exponents, v))
        return (d1, d2)

    def __eq__(self, other):
        return isinstance(other, CurveMatrix) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"CurveMatrix({list(self.exponents)})"


def b_matrix(A):
    """Primitive relation data for each middle column.

    For 0 < i < n-1 the triple (b_first, b_diag, b_last) gives the primitive
    relation  b_diag * a_i = b_first * a_first + b_last * a_last, scaled by
    g = gcd(k_i, k).

    >>> b_matrix(CurveMatrix([0, 1, 3, 4]))
    {1: (3, 4, 1), 2: (1, 4, 3)}
    """
    out = {}
    for i in range(1, A.n - 1):
        ki = A.exponents[i]
        g = gcd(ki, A.k)
        triple = ((A.k - ki) // g, A.k // g, ki // g)
        if triple[0] + triple[2] != triple[1] or ki * triple[1] != A.k * triple[2]:
            raise AssertionError(f"column {i}: {triple} is not a relation")
        if gcd(*triple) != 1:
            raise AssertionError(f"column {i}: relation {triple} is not primitive")
        out[i] = triple
    return out


def _kernel_steps(A, bound, mid_lower):
    """Kernel lattice vectors with |u|_1 <= bound and middle coordinates
    bounded below by ``mid_lower`` (coordinate-indexed dict).

    The middle coordinates are chosen one at a time, in lexicographic order,
    each within what is left of the l1 budget.  The last one runs only over
    the residue class that makes the weighted sum divisible by k, and the
    end coordinates then follow from the two degree equations.

    A middle coordinate c is skipped when s + max(|T|, ceil(|W| / k)) >
    bound, where s, W and T are the l1 norm, the weighted sum and the plain
    sum of the prefix up to c: the later coordinates, of weights in [0, k],
    must cancel T and W, so their l1 norm is at least |T| and |W| / k.
    Only prefixes with no vector inside the bound are cut, so the list and
    its order stay those of the unpruned walk.  A prefix walked on has
    |T| <= left, what its norm leaves of the bound, so the next c with
    |c| + |T + c| <= left are the range [-(left + T) / 2, (left - T) / 2].
    """
    n, k = A.n, A.k
    lows = [mid_lower.get(i, -bound) for i in range(1, n - 1)]
    weights = A.exponents[1 : n - 1]
    out = []

    def keep(prefix, norm, wsum, total):
        u_last = -wsum // k
        u_first = -total - u_last
        if norm + abs(u_first) + abs(u_last) <= bound:
            out.append((u_first,) + prefix + (u_last,))

    def walk(i, prefix, norm, wsum, total):
        left = bound - norm
        lo = max(lows[i], -((left + total) // 2))
        hi = (left - total) // 2
        weight = weights[i]
        if i + 1 < len(lows):
            for c in range(lo, hi + 1):
                # what the later coordinates may still spend
                rest = left - abs(c)
                if abs(wsum + weight * c) <= k * rest:
                    walk(i + 1, prefix + (c,), bound - rest, wsum + weight * c, total + c)
            return
        # weight * c = -wsum (mod k) has solutions iff g divides wsum; they
        # form one class modulo k / g
        g = gcd(weight, k)
        if wsum % g:
            return
        step = k // g
        first = -(wsum // g) * pow(weight // g, -1, step) % step
        for c in range(lo + (first - lo) % step, hi + 1, step):
            keep(prefix + (c,), norm + abs(c), wsum + weight * c, total + c)

    if lows:
        walk(0, (), 0, 0, 0)
    else:
        keep((), 0, 0, 0)
    return out


class NumericalSemigroup:
    """Numerical semigroup generated by positive integers with gcd 1.

    >>> S = NumericalSemigroup((2, 3))
    >>> [m for m in range(6) if m in S]
    [0, 2, 3, 4, 5]
    >>> S.gaps
    (1,)
    >>> S.frobenius
    1
    >>> [NumericalSemigroup((3, 4)).min_parts(m) for m in (12, 5)]
    [3, None]
    """

    def __init__(self, gens):
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens or gens[0] <= 0:
            raise ValueError(f"generators must be positive: {gens}")
        if gcd(*gens) != 1:
            raise ValueError(f"generators must be coprime overall: {gens}")
        self.gens = gens

    def _stairs(self, g):
        """Per residue r mod the pivot g, an end generator, the pairs (m,
        |g*p - m|) over the sums m = r (mod g) of p other generators that no
        other such pair bounds in both entries, sorted by m, so with second
        entries falling.  Layer p grows from the pairs layer p - 1 kept, as
        dropping a part of a minimal pair leaves one, and the walk ends at
        the first layer that keeps nothing: g or more parts hold some whose
        sum is a multiple of g, and trading them for copies of g gives a
        pair that bounds theirs.  An inserted pair drops the pairs it
        bounds.  About the largest generator this never happens, as a pair
        of fewer parts and a larger m has the smaller second entry; about
        the least one a pair of more parts can bound one of fewer.
        """
        others = [h for h in self.gens if h != g]
        stairs = [[(0, 0)]] + [[] for _ in range(1, g)]
        layer, p = [0], 0
        while layer:
            p, kept = p + 1, []
            for m in sorted({m + h for m in layer for h in others}):
                pairs, y = stairs[m % g], abs(g * p - m)
                i = bisect_left(pairs, (m,))  # the pairs with first entry < m
                j = bisect_left(pairs, (m + 1,), i)
                if not j or pairs[j - 1][1] > y:
                    # the pairs it bounds are those from i on with entry >= y
                    pairs[i:] = [(m, y)] + [q for q in pairs[i:] if q[1] < y]
                    kept.append(m)
            layer = kept
        return stairs

    @cached_property
    def _staircase(self):
        """The staircase about the largest generator g: (m + y)/g parts for
        the last pair (x, y) of m's class with x <= m are the fewest."""
        return self._stairs(self.gens[-1])

    @cached_property
    def _floor(self):
        """The staircase about the least generator s: (m - z)/s parts for
        the last pair (x, z) of m's class with x <= m are the most."""
        return self._stairs(self.gens[0])

    @staticmethod
    def _corner(stairs, m):
        """The last pair of m's class with first entry <= m, or None when
        there is none, that is when m is not a member."""
        if m < 0:
            return None
        pairs = stairs[m % len(stairs)]
        j = bisect_left(pairs, (m + 1,))
        return pairs[j - 1] if j else None

    def min_parts(self, m):
        """Least number of generators summing to ``m`` (None for non-members),
        read off ``_staircase``."""
        pair = self._corner(self._staircase, m)
        return None if pair is None else (m + pair[1]) // self.gens[-1]

    def max_parts(self, m):
        """Largest number of generators summing to ``m`` (None for
        non-members), read off ``_floor``.

        >>> S = NumericalSemigroup((4, 5, 102))
        >>> [S.max_parts(m) for m in (102, 11, 10)]
        [25, None, 2]
        """
        pair = self._corner(self._floor, m)
        return None if pair is None else (m - pair[1]) // self.gens[0]

    @cached_property
    def _apery(self):
        """The least member of each residue class mod the least generator g,
        its Apery set: the first entries of ``_floor``.  Adding g keeps the
        class, so the members of class r are _apery[r] + g*N."""
        return [pairs[0][0] for pairs in self._floor]

    def __contains__(self, m):
        g = self.gens[0]
        return m >= 0 and m >= self._apery[m % g]

    @cached_property
    def frobenius(self):
        """Largest gap, or -1 when there are no gaps: the largest Apery
        element of the least generator g, less g (Selmer 1977)."""
        return max(self._apery) - self.gens[0]

    @property
    def gaps(self):
        g, least = self.gens[0], self._apery
        return tuple(m for m in range(self.frobenius + 1) if m < least[m % g])

    def __repr__(self):
        return f"NumericalSemigroup{self.gens}"


# at most this many semigroups are kept; the least recently used goes first
SEMIGROUP_CACHE_SIZE = 64


@lru_cache(maxsize=SEMIGROUP_CACHE_SIZE)
def facet_semigroup(A, facet):
    """Semigroup attached to a facet, generated by the parts of the other
    facet: the nonzero exponents for facet-k, and their complements k - k_i
    (together with k itself) for facet-0.
    """
    if facet not in FACETS:
        raise ValueError(f"unknown facet {facet!r}")
    other = FACET_K if facet == FACET_0 else FACET_0
    return NumericalSemigroup(level for _, level in facet_parts(A, other))


def _integral_pair(beta):
    """beta as a pair of ints when both entries are integers by value (2.0 and
    Fraction(2) too), else None, as for a non-finite or non-real entry."""
    b1, b2 = beta
    if type(b1) is int and type(b2) is int:
        return (b1, b2)
    try:
        f1, f2 = Fraction(b1), Fraction(b2)
    except (TypeError, ValueError, OverflowError):
        return None
    return (int(f1), int(f2)) if f1.denominator == f2.denominator == 1 else None


def in_NA(A, beta):
    """Membership of a parameter in the semigroup generated by the columns.

    An integral (b1, b2) is a sum of b1 columns exactly when b2 is a sum of
    at most b1 nonzero exponents, that is when the least number of parts of
    b2 in the facet-k semigroup is at most b1.

    >>> A = CurveMatrix([0, 1, 3, 4])
    >>> in_NA(A, (1, 2))
    False
    >>> in_NA(A, (2, 2))
    True
    """
    b = _integral_pair(beta)
    if b is None:
        return False
    b1, b2 = b
    parts = facet_semigroup(A, FACET_K).min_parts(b2)
    return parts is not None and parts <= b1


def is_rank_jumping(A, beta):
    """Exceptional parameters: both facet memberships hold but the parameter
    is outside the column semigroup."""
    b = _integral_pair(beta)
    if b is None:
        return False
    b1, b2 = b
    # the two facet levels of facet_level, inline on this hot path
    if b2 not in facet_semigroup(A, FACET_K):
        return False
    if A.k * b1 - b2 not in facet_semigroup(A, FACET_0):
        return False
    return not in_NA(A, b)


def _default_jump_box(A):
    # A box (b1min, b1max, b2min, b2max) that holds every rank jump; analyze
    # prints it as its search box.  For a member N of the facet-k semigroup
    # with N >= F+1+k one can split off floor parts of size k down into the
    # window [F+1, F+k], so min_parts(N) <= N/k + C with C the max of
    # min_parts over members of [0, W], W = F+k+1.  A jumping parameter needs
    # b1 < min_parts(b2) and k*b1 - b2 >= 1, which forces k*b1 - b2 < k*C,
    # then b1 < k*C and b2 < k*b1 <= k^2*C by the mirrored argument.
    # C is read off the staircase: on x_j <= t < x_{j+1} of a class,
    # min_parts(t) = (t + y_j)/k grows with t, so the largest t of the class
    # up to min(x_{j+1} - 1, W) takes the max of the step.
    k = A.k
    Gk = facet_semigroup(A, FACET_K)
    window = Gk.frobenius + k + 1
    C = 1
    for pairs in Gk._staircase:
        ends = [x for x, _ in pairs[1:]] + [window + 1]
        for (x, y), nxt in zip(pairs, ends):
            if x <= window:
                C = max(C, (x + y) // k + (min(nxt - 1, window) - x) // k)
    return (0, k * C, 0, k * k * C)


def _rank_jumps(A):
    """The rank jumps, read off the staircase of the facet-k semigroup Gk:
    with (x_0, y_0), ..., (x_s, y_s) the pairs of the class r mod k, the
    (b1, b2) with b2 = r (mod k), x_j <= b2 < x_{j+1}, y_s <= k*b1 - b2 < y_j.

    A jump has b2 in Gk, k*b1 - b2 in the facet-0 semigroup G0 and, outside
    NA, b1 < min_parts(b2) = (b2 + y_j)/k.  The y of class r are the sums of
    facet-0 parts other than k of class -r, and k generates G0, so k*b1 - b2
    lies in G0 exactly when it is at least y_s, its Apery element of k.
    """
    k = A.k
    for pairs in facet_semigroup(A, FACET_K)._staircase:
        for (x, y), (nxt, _) in zip(pairs, pairs[1:]):
            for b2 in range(x, nxt, k):
                for level in range(pairs[-1][1], y, k):
                    yield ((b2 + level) // k, b2)


def rank_jumping_parameters(A):
    """All exceptional parameters, sorted: those of ``_rank_jumps``, each
    checked against ``is_rank_jumping``."""
    return sorted(beta for beta in _rank_jumps(A) if is_rank_jumping(A, beta))


def rank(A, beta):
    """Solution-space dimension at a parameter: the curve degree, plus one on
    the finite exceptional set."""
    return A.k + (1 if is_rank_jumping(A, beta) else 0)


def is_resonant(A, beta):
    """Facets whose level function is integral at ``beta``.

    Returns a tuple of facet labels (possibly empty).

    >>> A = CurveMatrix([0, 2, 3])
    >>> is_resonant(A, (Fraction(1, 3), Fraction(0)))
    ('facet-0', 'facet-k')
    """
    beta = (Fraction(beta[0]), Fraction(beta[1]))
    return tuple(facet for facet in FACETS if facet_level(A.k, facet, beta).denominator == 1)


class ResonantLine:
    """A line of resonant parameters attached to one facet.

    facet-0 lines are {b2 = N} and facet-k lines are {k*b1 - b2 = N}: the
    level N is facet_level at every point of the line.  The line is polar
    exactly when N lies in the semigroup of the opposite facet.
    """

    __slots__ = ("facet", "level", "polar", "k")

    def __init__(self, facet, level, polar, k):
        self.facet = facet
        self.level = int(level)
        self.polar = bool(polar)
        self.k = k

    def __eq__(self, other):
        return (
            isinstance(other, ResonantLine)
            and (self.facet, self.level, self.polar) == (other.facet, other.level, other.polar)
        )

    def __hash__(self):
        return hash((self.facet, self.level, self.polar))

    def __repr__(self):
        kind = "polar" if self.polar else "resonant"
        locus = "b2" if self.facet == FACET_0 else f"{self.k}*b1 - b2"
        return f"ResonantLine({locus} = {self.level}, {kind})"


def _polar_level_semigroup(A, facet):
    # crossed pairing: levels on the facet-0 lines are polar when they lie in
    # the facet-k semigroup, and vice versa
    return facet_semigroup(A, FACET_K if facet == FACET_0 else FACET_0)


def resonant_lines(A, facet, window):
    """All integer-level lines of one facet with level in [window[0], window[1]].

    >>> A = CurveMatrix([0, 2, 3])
    >>> [L.level for L in resonant_lines(A, FACET_0, (0, 5)) if L.polar]
    [0, 2, 3, 4, 5]
    """
    lo, hi = int(window[0]), int(window[1])
    S = _polar_level_semigroup(A, facet)
    return [ResonantLine(facet, N, N in S, A.k) for N in range(lo, hi + 1)]


def polar_lines_through(A, beta):
    """The (facet, level) pairs of the polar lines through a parameter.

    >>> polar_lines_through(CurveMatrix([0, 2, 3]), (Fraction(2, 3), 1))
    [('facet-k', 1)]
    """
    beta = (Fraction(beta[0]), Fraction(beta[1]))
    levels = [(facet, int(facet_level(A.k, facet, beta))) for facet in is_resonant(A, beta)]
    return [(facet, N) for facet, N in levels if N in _polar_level_semigroup(A, facet)]


def delta_conditions(A, beta):
    """The two step-two membership conditions on a parameter.

    Writing gamma = (k*b1 - b2, b2) and Delta for the column set
    {(k - k_i, k_i)}, the first condition asks for delta, delta' in the
    monoid generated by Delta with delta_1 = gamma_1, delta_2 + delta'_2 =
    gamma_2 and delta' nonzero; the second swaps the roles of the rows.
    Both hold together exactly on the column semigroup.
    """
    b = _integral_pair(beta)
    if b is None:
        return (False, False)
    g1 = facet_level(A.k, FACET_K, b)
    g2 = facet_level(A.k, FACET_0, b)
    cond1 = cond2 = False
    if g1 >= 0 and g2 >= 0:

        def in_delta(x, y):
            # each column (k - k_i, k_i) adds k to x + y, so (x, y) is a sum
            # of (x + y)/k columns with second coordinates summing to y
            return (x + y) % A.k == 0 and in_NA(A, ((x + y) // A.k, y))

        # the nonzero second witness costs nothing in the first coordinate
        # because (k, 0) is itself a column of Delta, so only the remainder
        # semigroup membership is left to check (and symmetrically)
        Gk = facet_semigroup(A, FACET_K)
        G0 = facet_semigroup(A, FACET_0)
        cond1 = any(in_delta(g1, y) and (g2 - y) in Gk for y in range(g2 + 1))
        cond2 = any(in_delta(x, g2) and (g1 - x) in G0 for x in range(g1 + 1))
    if (cond1 and cond2) != in_NA(A, b):
        raise AssertionError(f"delta conditions {(cond1, cond2)} disagree with in_NA at {beta}")
    return (cond1, cond2)

