"""Toric ideal of the curve: Groebner bases of binomials, standard pairs,
starting exponents, and the special lines cut out by the lower-dimensional
pairs.

Monomials are exponent tuples.  A binomial is an ordered pair (lead, trail)
of distinct monomials, understood as lead - trail; every intermediate object
in the Buchberger loop stays of this shape, so no general polynomial
arithmetic is needed.
"""

import heapq
import itertools
from fractions import Fraction

from .curve import FACET_0, FACET_K, FACETS, ResonantLine, facet_base, facet_level
from .curve import _polar_level_semigroup
from .qexact import Aff2

ORDER_NAMES = ("d1-first", "dn-first", "d1-mirror")


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


def _binomial(a, b, order):
    """Orient a monomial difference; None when it cancels."""
    if a == b:
        return None
    return (a, b) if order.greater(a, b) else (b, a)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reduce_binomial(binom, gens, order):
    """Total reduction of a binomial by a list of binomials."""
    lead, trail = binom
    changed = True
    while changed:
        changed = False
        for (gl, gt) in gens:
            if _divides(gl, lead):
                lead = tuple(l - a + b for l, a, b in zip(lead, gl, gt))
                ori = _binomial(lead, trail, order)
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
            if _divides(gl, trail):
                trail = tuple(t - a + b for t, a, b in zip(trail, gl, gt))
                if trail == lead:
                    return None
                changed = True
                break
    if not order.greater(lead, trail):
        raise AssertionError(f"reduced binomial {lead} - {trail} is not oriented")
    return (lead, trail)


def _spair(f, g, order):
    L = tuple(max(a, b) for a, b in zip(f[0], g[0]))
    a = tuple(l - x + y for l, x, y in zip(L, f[0], f[1]))
    b = tuple(l - x + y for l, x, y in zip(L, g[0], g[1]))
    return _binomial(a, b, order)


def _buchberger(gens, order, degree_bound):
    G = []
    for g in gens:
        ori = _binomial(g[0], g[1], order) if g else None
        if ori:
            G.append(ori)
    # normal selection strategy: the pair of least lcm degree goes first, the
    # latest added among equal degrees
    pairs = []
    added = itertools.count()

    def push(i, j):
        degree = sum(max(a, b) for a, b in zip(G[i][0], G[j][0]))
        heapq.heappush(pairs, (degree, -next(added), i, j))

    for i in range(len(G)):
        for j in range(i):
            push(i, j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        f, g = G[i], G[j]
        if all(min(a, b) == 0 for a, b in zip(f[0], g[0])):
            continue  # coprime leads reduce to zero
        s = _spair(f, g, order)
        if s is None:
            continue
        h = _reduce_binomial(s, G, order)
        if h is None:
            continue
        if sum(h[0]) > degree_bound:
            raise AssertionError(f"Groebner degree {sum(h[0])} exceeded the bound {degree_bound}")
        G.append(h)
        for t in range(len(G) - 1):
            push(len(G) - 1, t)
    return _interreduce(G, order)


def _interreduce(G, order):
    # keep one generator per minimal lead, then tail-reduce against the rest
    uniq = sorted(set(G), key=lambda b: order.key(b[0]))
    minimal = []
    for i, g in enumerate(uniq):
        dominated = any(
            j != i and _divides(h[0], g[0]) and (h[0] != g[0] or j < i)
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


def _saturate_variable(gens, var, n, degree_bound):
    order = TermOrder(n, (var,) + tuple(i for i in range(n) if i != var))
    G = _buchberger(gens, order, degree_bound)
    out = []
    for (a, b) in G:
        m = min(a[var], b[var])
        if m:
            a = a[:var] + (a[var] - m,) + a[var + 1 :]
            b = b[:var] + (b[var] - m,) + b[var + 1 :]
        out.append((a, b))
    return out


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

    def in_initial_ideal(self, mono):
        return any(_divides(gl, mono) for gl in self.lead_monomials)

    def __repr__(self):
        return f"GroebnerBasis({self.A!r}, {self.order.name}, {len(self.generators)} gens)"


# at most GB_CACHE_SIZE bases, in order of last use: a new basis beyond
# that drops the least recently used one
GB_CACHE_SIZE = 64
_GB_CACHE = {}


def toric_ideal_groebner(A, order, degree_bound=None):
    """Reduced Groebner basis of the toric ideal of the curve.

    Starts from a kernel lattice basis and saturates one variable at a time
    (each time with that variable cheapest, then dividing it out), which for
    lattice ideals yields the full saturation; a final run under the target
    order gives the reduced basis.
    """
    if isinstance(order, str):
        order = term_order(order, A.n)
    if degree_bound is None:
        degree_bound = max(2 * A.k * A.k, 8)
    key = (A.exponents, order.cheap, degree_bound)
    hit = _GB_CACHE.pop(key, None)
    if hit is not None:
        _GB_CACHE[key] = hit
        return hit
    gens = [(tuple(max(c, 0) for c in u), tuple(max(-c, 0) for c in u)) for u in kernel_lattice_basis(A)]
    for var in range(A.n):
        gens = _saturate_variable(gens, var, A.n, degree_bound)
    basis = _buchberger(gens, order, degree_bound)
    gb = GroebnerBasis(A, order, basis)
    if len(_GB_CACHE) >= GB_CACHE_SIZE:
        del _GB_CACHE[next(iter(_GB_CACHE))]
    _GB_CACHE[key] = gb
    return gb


class StandardPair:
    """A pair (r, sigma): the cosets r + N^sigma not meeting the initial ideal,
    maximally so."""

    __slots__ = ("r", "sigma")

    def __init__(self, r, sigma):
        self.r = tuple(r)
        self.sigma = frozenset(sigma)

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
    variables free) always number k for the adapted orders."""
    gb = toric_ideal_groebner(A, order)
    pairs = standard_pairs_of_monomial_ideal(gb.lead_monomials, A.n)
    kinds = {p.kind(A.n) for p in pairs}
    if "other" in kinds:
        raise AssertionError(f"unexpected pair shape: {pairs}")
    tops = [p for p in pairs if p.is_top]
    if len(tops) != A.k:
        raise AssertionError(f"expected {A.k} top pairs, found {len(tops)}")
    return sorted(pairs, key=lambda p: (-len(p.sigma), p.r))


class FakeExponent:
    """Starting exponent attached to a standard pair at a parameter.

    ``v`` has entries that are Fractions, or Aff2 when the parameter itself
    was symbolic.
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


def _coerce_param(b):
    if isinstance(b, Aff2):
        return b
    return Fraction(b)


def fake_exponents(A, beta, order):
    """All starting exponents at ``beta`` for the given order.

    Top pairs always contribute; an end pair, free on the column of one
    facet, contributes only when ``beta`` has the pair's level on that
    facet.  Every returned exponent v satisfies A.v = beta exactly.
    """
    b1 = _coerce_param(beta[0])
    b2 = _coerce_param(beta[1])
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
            if not (facet_level(k, facet, (b1, b2)) == facet_level(k, facet, (d1, d2))):
                continue
            base = facet_base(A, facet)
            v = tuple(b1 - d1 if i == base else Fraction(c) for i, c in enumerate(r))
        deg1 = sum(v[1:], start=v[0])
        deg2 = sum((A.exponents[i] * v[i] for i in range(1, n)), start=0 * v[0])
        if not (deg1 == b1 and deg2 == b2):
            raise AssertionError(f"starting exponent {v} has degree {(deg1, deg2)}, not {(b1, b2)}")
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
