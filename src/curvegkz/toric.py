"""Toric ideal of the curve: Groebner bases of binomials, standard pairs,
starting exponents, and the special lines cut out by the lower-dimensional
pairs.

Monomials are exponent tuples.  A binomial is an ordered pair (lead, trail)
of distinct monomials, understood as lead - trail.  The reduced Groebner
basis is read off the kernel vectors of A, degree by degree, and an
S-pair test on binomials tells when it is complete, so no general
polynomial arithmetic is needed.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter, sub

from .curve import FACET_0, FACET_K, FACETS, ORDER_NAMES, ResonantLine, facet_base, facet_level
from .curve import _kernel_steps, _polar_level_semigroup


class TermOrder:
    """Graded reverse lexicographic order given by a cheap-to-expensive
    variable permutation.

    Ties between monomials of equal total degree go to the one with the
    smaller exponent at the first differing position when scanning from the
    cheapest variable.
    """

    __slots__ = ("n", "cheap", "name")

    def __init__(self, n, cheap, name=None):
        if sorted(cheap) != list(range(n)):
            raise AssertionError(f"{cheap} is not a permutation of the {n} variables")
        self.n = n
        self.cheap = tuple(cheap)
        self.name = name or f"grevlex{self.cheap}"

    def key(self, mono):
        return (sum(mono),) + tuple(-mono[i] for i in self.cheap)

    def greater(self, a, b):
        return self.key(a) > self.key(b)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.cheap == other.cheap

    def __hash__(self):
        return hash(self.cheap)

    def __repr__(self):
        return f"TermOrder({self.name})"


def term_order(name, n):
    """The three adapted orders.

    d1-first makes the first variable cheapest (then the last), dn-first makes
    the last cheapest and the first most expensive, d1-mirror makes the last
    cheapest and the first second-cheapest.
    """
    if name == "d1-first":
        cheap = (0,) + tuple(range(n - 1, 0, -1))
    elif name == "dn-first":
        cheap = (n - 1,) + tuple(range(1, n - 1)) + (0,)
    elif name == "d1-mirror":
        cheap = (n - 1, 0) + tuple(range(1, n - 1))
    else:
        raise ValueError(f"unknown order {name!r}; choose from {ORDER_NAMES}")
    return TermOrder(n, cheap, name)


def _binomial(a, b, order):
    """Orient a monomial difference; None when it cancels."""
    if a == b:
        return None
    return (a, b) if order.greater(a, b) else (b, a)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _spair(f, g, order):
    L = tuple(max(a, b) for a, b in zip(f[0], g[0]))
    a = tuple(l - x + y for l, x, y in zip(L, f[0], f[1]))
    b = tuple(l - x + y for l, x, y in zip(L, g[0], g[1]))
    return _binomial(a, b, order)


class GroebnerBasis:
    """Reduced Groebner basis of the toric ideal for a fixed term order."""

    def __init__(self, A, order, generators):
        self.A = A
        self.order = order
        self.generators = tuple(generators)

    @property
    def lead_monomials(self):
        return tuple(g[0] for g in self.generators)

    def normal_form_monomial(self, mono):
        """Iterated replacement of the monomial by smaller fiber members."""
        mono = tuple(mono)
        changed = True
        while changed:
            changed = False
            for (gl, gt) in self.generators:
                if _divides(gl, mono):
                    mono = tuple(m - a + b for m, a, b in zip(mono, gl, gt))
                    changed = True
                    break
        return mono

    def reduces_to_zero(self, a, b):
        """Whether the binomial a - b lies in the ideal."""
        return self.normal_form_monomial(a) == self.normal_form_monomial(b)

    def __repr__(self):
        return f"GroebnerBasis({self.A!r}, {self.order.name}, {len(self.generators)} gens)"


# at most GB_CACHE_SIZE bases, and as many lists of standard pairs, are kept;
# a new entry beyond that drops the least recently used one
GB_CACHE_SIZE = 64


def _degree_cap(A):
    """No lead of the reduced basis has a larger degree; see
    toric_ideal_groebner for the proof."""
    return max(A.k - A.n + 3, (A.n - 2) * A.k)


def toric_ideal_groebner(A, order):
    """Reduced Groebner basis of the toric ideal of the curve, read off the
    kernel vectors of A one degree at a time.

    The first row of A is all ones, so a binomial x^u+ - x^u- of I_A of
    degree d is a kernel vector u with |u|_1 = 2d (Sturmfels, Groebner Bases
    and Convex Polytopes, 1996, ch. 4).  For each positive part a keep the
    least negative part b with b < a.  The new leads of degree d are the a
    that no lead of lower degree divides, each with tail b.  The least
    member m of a fiber is standard.  I_A is prime and contains no
    variable, so if a minimal lead a shared a variable x_i with m, dividing
    both by x_i would give a smaller non-standard monomial.  So a and m have
    disjoint supports, u = a - m is listed, and b = m: the basis comes out
    reduced.  One walk lists the u with |u|_1 <= 2 (k - n + 3); each degree
    the S-pair test adds walks again, with u_i > -e for each lead x_i^e.

    Stop: the curve is nondegenerate of degree k in P^(n-1), so I_A is
    generated in degrees up to reg(I_A) <= k - n + 3 (Gruson, Lazarsfeld
    and Peskine, Invent. Math. 72, 1983).  The elements found span I_A in
    every degree seen, so from that degree on they generate I_A.  They are
    a Groebner basis as soon as the S-pair of every two of them with
    non-coprime leads has the same normal form on both sides (Buchberger's
    criterion).

    Cap: every element of the reduced basis lies in the Graver basis, and
    every Graver element is a conformal combination of at most n - 2
    circuits with coefficients in [0, 1] (Sturmfels 1996, ch. 4).  A
    circuit of A lives on three columns i < j < l, where it is
    (k_l - k_j, k_i - k_l, k_j - k_i) / g with g the gcd of its entries;
    its positive part has degree (k_l - k_i) / g <= k.  So no lead has
    degree above (n - 2) k, and passing _degree_cap raises, also under
    python -O.  So does a generator x^a - x^b with |a| != |b|: each is
    homogeneous, as the first row of A is all ones.

    >>> from curvegkz.curve import CurveMatrix
    >>> toric_ideal_groebner(CurveMatrix([0, 2, 3]), "d1-first").generators
    (((0, 3, 0), (1, 0, 2)),)
    """
    if isinstance(order, str):
        order = term_order(order, A.n)
    return _toric_ideal_groebner(A, order)


@lru_cache(maxsize=GB_CACHE_SIZE)
def _toric_ideal_groebner(A, order):
    start, cap = A.k - A.n + 3, _degree_cap(A)
    # by TermOrder, u+ > u- (one degree) exactly when cheap(u) < 0 in tuples
    cheap, zero = itemgetter(*order.cheap), (0,) * A.n
    walked, gens = 0, []
    for d in itertools.count(1):
        if d > cap:
            raise AssertionError(f"Groebner degree {d} exceeded the bound {cap}")
        if d > walked:
            walked = max(d, start)
            # a tail is standard, so its x_i-degree is below e for a lead x_i^e
            lower = {i: 1 - e for lead, _ in gens for i, e in enumerate(lead) if e == sum(lead)}
            shells = {}  # degree d -> the kernel vectors u with |u|_1 = 2d and u+ > u-
            for u in _kernel_steps(A, 2 * walked, lower):
                if cheap(u) < zero:
                    shells.setdefault(sum(map(abs, u)) // 2, []).append(u)
        # among the u with u+ = a, u- = a - u is least where cheap(u) is
        tails = {tuple(map(max, u, zero)): u for u in sorted(shells.get(d, ()), key=cheap, reverse=True)}
        gens += [
            (a, tuple(map(sub, a, u))) for a, u in tails.items() if not any(_divides(lead, a) for lead, _ in gens)
        ]
        if d < start:
            continue
        gb = GroebnerBasis(A, order, sorted(gens, key=lambda g: order.key(g[0])))
        spairs = (
            _spair(f, g, order)
            for f, g in itertools.combinations(gb.generators, 2)
            if any(min(a, b) for a, b in zip(f[0], g[0]))
        )
        if all(s is None or gb.reduces_to_zero(*s) for s in spairs):
            # annihilation_check reads one term per side of a residual off
            # |a| = |b|, so the cached basis is checked once, here
            for a, b in gb.generators:
                if sum(a) != sum(b):
                    raise AssertionError(f"generator {(a, b)} is not homogeneous")
            return gb


class StandardPair:
    """A pair (r, sigma): the cosets r + N^sigma not meeting the initial ideal,
    maximally so.  Immutable: standard_pairs shares its pairs between
    callers."""

    __slots__ = ("r", "sigma")

    def __init__(self, r, sigma):
        object.__setattr__(self, "r", tuple(r))
        object.__setattr__(self, "sigma", frozenset(sigma))

    def __setattr__(self, name, value):
        raise AttributeError("StandardPair is immutable")

    @property
    def is_top(self):
        n = len(self.r)
        return self.sigma == frozenset({0, n - 1})

    def kind(self, n):
        if self.is_top:
            return "top"
        if self.sigma == frozenset({0}):
            return "first-end"
        if self.sigma == frozenset({n - 1}):
            return "last-end"
        return "other"

    def __eq__(self, other):
        return isinstance(other, StandardPair) and (self.r, self.sigma) == (other.r, other.sigma)

    def __hash__(self):
        return hash((self.r, self.sigma))

    def __repr__(self):
        return f"StandardPair({self.r}, {{{', '.join(str(i) for i in sorted(self.sigma))}}})"


def standard_pairs_of_monomial_ideal(lead_monomials, n):
    """All standard pairs of the monomial ideal generated by the given leads.

    Candidate exponents off sigma are bounded by the generator exponents: if
    r_l reached the maximum generator exponent in coordinate l, the witness
    generator for l in the saturation condition would already be dominated
    off sigma, contradicting the avoidance condition.
    """
    G = [tuple(g) for g in lead_monomials]
    if not G:
        return [StandardPair((0,) * n, range(n))]
    maxexp = [max(g[i] for g in G) for i in range(n)]
    out = []
    for size in range(n, -1, -1):
        for sigma in itertools.combinations(range(n), size):
            sset = set(sigma)
            free = [i for i in range(n) if i not in sset]
            if any(maxexp[i] == 0 for i in free):
                continue
            for combo in itertools.product(*[range(maxexp[i]) for i in free]):
                r = [0] * n
                for i, c in zip(free, combo):
                    r[i] = c
                # avoidance: no generator dominated by r off sigma
                if any(all(g[i] <= r[i] for i in free) for g in G):
                    continue
                # maximality: each extra direction meets the ideal
                if all(
                    any(all(g[i] <= r[i] for i in free if i != l) for g in G) for l in free
                ):
                    out.append(StandardPair(r, sigma))
    return out


def standard_pairs(A, order):
    """Standard pairs of the initial ideal; the top-dimensional ones (both end
    variables free) always number k for the adapted orders.

    The pairs are computed once per (A, order), like the Groebner basis,
    and kept in a cache of GB_CACHE_SIZE entries; each call gets a list of
    its own."""
    if isinstance(order, str):
        order = term_order(order, A.n)
    return list(_standard_pairs(A, order))


@lru_cache(maxsize=GB_CACHE_SIZE)
def _standard_pairs(A, order):
    gb = toric_ideal_groebner(A, order)
    pairs = standard_pairs_of_monomial_ideal(gb.lead_monomials, A.n)
    kinds = {p.kind(A.n) for p in pairs}
    if "other" in kinds:
        raise AssertionError(f"unexpected pair shape: {pairs}")
    tops = [p for p in pairs if p.is_top]
    if len(tops) != A.k:
        raise AssertionError(f"expected {A.k} top pairs, found {len(tops)}")
    return tuple(sorted(pairs, key=lambda p: (-len(p.sigma), p.r)))


class FakeExponent:
    """Starting exponent attached to a standard pair at a parameter.

    ``v`` has Fraction entries.
    """

    __slots__ = ("v", "pair")

    def __init__(self, v, pair):
        self.v = tuple(v)
        self.pair = pair

    @property
    def is_top(self):
        return self.pair.is_top

    def __repr__(self):
        return f"FakeExponent({self.v}, {self.pair!r})"


def _common_numerators(v):
    """The common denominator D of the rationals v and the integer
    numerators N_i = v_i D."""
    D = lcm(*(vi.denominator for vi in v))
    return D, [vi.numerator * (D // vi.denominator) for vi in v]


def fake_exponents(A, beta, order):
    """All starting exponents at a rational ``beta`` for the given order.

    Top pairs always contribute; an end pair, free on the column of one
    facet, contributes only when ``beta`` has the pair's level on that
    facet.  Every returned exponent v satisfies A.v = beta exactly.
    """
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    n, k = A.n, A.k
    out = []
    for pair in standard_pairs(A, order):
        r = pair.r
        d1, d2 = A.degree(r)
        if pair.is_top:
            zeta = (b2 - d2) / k
            xi = b1 - d1 - zeta
            v = (xi,) + tuple(Fraction(c) for c in r[1:-1]) + (zeta,)
        else:
            facet = FACET_0 if pair.kind(n) == "first-end" else FACET_K
            if facet_level(k, facet, (b1, b2)) != facet_level(k, facet, (d1, d2)):
                continue
            base = facet_base(A, facet)
            v = tuple(b1 - d1 if i == base else Fraction(c) for i, c in enumerate(r))
        # A v = beta, decided in integers: v = N / D
        D, N = _common_numerators(v)
        if A.degree(N) != (b1 * D, b2 * D):
            raise AssertionError(f"starting exponent {v} has degree {A.degree(v)}, not {(b1, b2)}")
        out.append(FakeExponent(v, pair))
    return out


class SpecialLines:
    """Union of the end-pair level lines, minimized facet by facet over the
    supplied orders."""

    def __init__(self, lines, chosen_orders, meets):
        self.lines = tuple(lines)
        self.chosen_orders = dict(chosen_orders)
        self.meets = tuple(meets)

    def __repr__(self):
        return f"SpecialLines({[(L.facet, L.level) for L in self.lines]}, meets={list(self.meets)})"


def special_lines(A, orders):
    """Lines of parameters where some end pair contributes an exponent.

    Each order is classified by its cheapest variable: first-variable-cheapest
    orders see facet-0 levels, last-variable-cheapest orders see facet-k
    levels.  Per facet the order with the fewest lines wins (first wins ties),
    and the union of the two winning line sets is returned together with all
    pairwise intersection points across facets.
    """
    per_facet = {facet: [] for facet in FACETS}
    facet_of_base = {facet_base(A, facet): facet for facet in FACETS}
    for order in orders:
        if isinstance(order, str):
            order = term_order(order, A.n)
        facet = facet_of_base.get(order.cheap[0])
        if facet is None:
            raise ValueError(f"order {order.name} is adapted to neither end variable")
        levels = set()
        for pair in standard_pairs(A, order):
            if pair.is_top:
                continue
            # the end pairs must be free exactly on the facet's own column
            if pair.sigma != {facet_base(A, facet)}:
                raise AssertionError(f"wrong end pair {pair} for {order.name}")
            levels.add(facet_level(A.k, facet, A.degree(pair.r)))
        per_facet[facet].append((order, sorted(levels)))
    lines = {facet: [] for facet in FACETS}
    chosen = {}
    for facet in FACETS:
        candidates = per_facet[facet]
        if not candidates:
            continue
        best = min(candidates, key=lambda c: len(c[1]))
        chosen[facet] = best[0].name
        polar_levels = _polar_level_semigroup(A, facet)
        lines[facet] = [ResonantLine(facet, N, N in polar_levels, A.k) for N in best[1]]
    # b2 = N0 and k*b1 - b2 = Nk cross at b1 = (N0 + Nk)/k
    meets = {
        (Fraction(L0.level + Lk.level, A.k), Fraction(L0.level))
        for L0 in lines[FACET_0]
        for Lk in lines[FACET_K]
    }
    return SpecialLines(lines[FACET_0] + lines[FACET_K], chosen, sorted(meets))
