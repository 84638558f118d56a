"""Series solutions: finite solutions on polar lines, canonical series at a
point, exact operator checks, and assembly of a full solution basis.

Finite solutions carry coefficients that are polynomials in the line
parameter lam; point solutions carry plain rational coefficients indexed by
kernel lattice steps from a starting exponent.
"""

import cmath
import itertools
from fractions import Fraction
from math import factorial, gcd, lcm

from .curve import FACETS, facet_base, facet_level, facet_parts, is_rank_jumping
from .curve import polar_lines_through, rank
from .errors import BasisCountError, LogObstructionError, SeriesDenominatorError
from .qexact import PolyQ
from .toric import fake_exponents, toric_ideal_groebner

_ONE = PolyQ([1])


def _proportional(m1, m2):
    """Whether two exact solutions are multiples of one another.

    Both are nonempty (coefficient, exponent) lists with nonzero
    coefficients, sorted by exponent, as every ``monomials()`` gives them.
    They are proportional exactly when the exponents match and every cross
    product c1 * lead2 equals c2 * lead1.
    """
    if len(m1) != len(m2):
        return False
    lead1, lead2 = m1[0][0], m2[0][0]
    return all(e1 == e2 and c1 * lead2 == c2 * lead1 for (c1, e1), (c2, e2) in zip(m1, m2))


def _evaluate(monomials, x):
    """Complex value of exact (coefficient, exponent) pairs at a point x,
    with principal-branch powers."""
    total = 0j
    for c, e in monomials:
        term = complex(float(c))
        for xi, ei in zip(x, e):
            if ei != 0:
                term *= cmath.exp(complex(float(ei)) * cmath.log(xi))
        total += term
    return total


def b_matrix(A):
    """Primitive relation data for each middle column.

    For 0 < i < n-1 the triple (b_first, b_diag, b_last) gives the primitive
    relation  b_diag * a_i = b_first * a_first + b_last * a_last, scaled by
    g = gcd(k_i, k).

    >>> from .curve import CurveMatrix
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


class FiniteSeries:
    """Finite solution attached to a polar line of one facet.

    Terms are keyed by integer offset vectors o; the term monomial is
    x_base^(lam + o_base) * prod_i x_i^(o_i) and its coefficient is a PolyQ
    in lam.  ``removed`` records a factor already divided out of every
    coefficient (the trivial polynomial 1 when nothing was removed).
    """

    __slots__ = ("A", "facet", "level", "base", "terms", "removed")

    def __init__(self, A, facet, level, terms, removed=_ONE):
        self.A = A
        self.facet = facet
        self.level = int(level)
        self.base = facet_base(A, facet)
        self.terms = dict(terms)
        self.removed = removed

    def is_zero(self):
        return not self.terms

    def _exponents(self, o, lam):
        """Exact exponent vector of the term at offset o, at the line point lam."""
        return tuple(oi + lam if i == self.base else Fraction(oi) for i, oi in enumerate(o))

    def stripped(self):
        """Divide out the monic gcd of all coefficients.

        Each coefficient of a line solution is N (lam-1)...(lam-c+1) / prod m_i!
        for c parts, so the one of least degree divides all the others and,
        made monic, is the gcd.
        """
        if not self.terms:
            return self, _ONE
        g = min(self.terms.values(), key=lambda c: c.degree).monic()
        if g.is_constant():
            return self, _ONE
        new = {o: c.divexact(g) for o, c in self.terms.items()}
        return FiniteSeries(self.A, self.facet, self.level, new, self.removed * g), g

    def monomials(self, lam):
        """Exact (coefficient, exponent vector) pairs at lam; zero terms dropped."""
        lam = Fraction(lam)
        out = []
        for o, c in sorted(self.terms.items()):
            val = c(lam)
            if val != 0:
                out.append((val, self._exponents(o, lam)))
        return out

    def evaluate(self, lam, x):
        """Complex value at the exact line point lam and the point x."""
        return _evaluate(self.monomials(lam), x)

    def __repr__(self):
        return (
            f"FiniteSeries({self.facet}, level={self.level}, "
            f"{len(self.terms)} terms, removed={self.removed.text('lam')})"
        )


# a polar-line solution with more part multisets than this is refused
# before one is built.  The levels the tests and the benchmark build have at
# most 45; level 100 of 0,1,2,3,5,8 has 24,853, which take seconds to build
# and to check, and the count grows like a power of the level
PART_MULTISET_BUDGET = 10_000


def _count_part_multisets(values, N, budget):
    """The number of multisets of the part values with sum N, exact when it
    is at most the budget and a lower bound past the budget otherwise.

    cnt_p(s), the number with sum s of the first p + 1 values, is
    cnt_(p-1)(s) + cnt_p(s - v_p), so a pass over s = 0..N keeps only the
    last v_p entries of each row.  The last row never decreases along a
    residue class modulo its value v, so once v entries in a row of it pass
    the budget, every later one does, and the pass stops.
    """
    rings = [[0] * v for v in values]
    run = 0
    count = 0
    for s in range(N + 1):
        count = 1 if s == 0 else 0
        for ring, v in zip(rings, values):
            count += ring[s % v]
            ring[s % v] = count
        run = run + 1 if count > budget else 0
        if run == values[-1]:
            return rings[-1][N % values[-1]]
    return count


def _part_multisets(parts, N):
    """Multiplicity tuples m, one entry per part, with sum m_p v_p = N.  The
    recursion runs over the parts, so its depth is their number."""
    out = []

    def rec(p, remaining, prefix):
        if p == len(parts):
            if remaining == 0:
                out.append(prefix)
            return
        v = parts[p][1]
        for mp in range(remaining // v + 1):
            rec(p + 1, remaining - mp * v, prefix + (mp,))

    rec(0, N, ())
    return out


def polar_line_solution(A, facet, N):
    """The finite solution on the level-N line of a facet, in closed form.

    A multiset of facet parts summing to N > 0, with m_i parts at
    coordinate i and c parts in all, gives the term with offset o_i = m_i,
    o_base = -c and coefficient N (lam-1)(lam-2)...(lam-c+1) / prod m_i!.
    Summed over the orderings of the multiset, the per-prefix denominators
    1/(N - s) give N / prod(v_i^m_i m_i!) (the classical identity
    sum_sigma prod_j 1/(a_sigma(1) + ... + a_sigma(j)) = 1/prod a_i), and the
    part values v_i cancel against the weights v_i^m_i.  Level 0 is the
    constant solution; a negative level, or one with no multiset, gives the
    zero series.  A level with more than PART_MULTISET_BUDGET multisets
    raises ValueError before any is built.

    >>> from .curve import CurveMatrix
    >>> sol = polar_line_solution(CurveMatrix([0, 1, 3, 4]), "facet-k", 3)
    >>> for o, c in sorted(sol.terms.items()):
    ...     print(o, c.text("lam"))
    (0, 0, 3, -3) 1/2*lam^2 - 3/2*lam + 1
    (0, 1, 0, -1) 3
    """
    N = int(N)
    parts = facet_parts(A, facet)
    base = facet_base(A, facet)
    if N <= 0:
        return FiniteSeries(A, facet, N, {(0,) * A.n: _ONE} if N == 0 else {})
    count = _count_part_multisets([v for _, v in parts], N, PART_MULTISET_BUDGET)
    if count > PART_MULTISET_BUDGET:
        raise ValueError(
            f"the level-{N} line of {facet} has at least {count} part multisets,"
            f" past the budget of {PART_MULTISET_BUDGET}"
        )
    terms = {}
    # falling[c] = N (lam-1)(lam-2)...(lam-c+1), grown as needed
    falling = [None, PolyQ([N])]
    for m in _part_multisets(parts, N):
        c = sum(m)
        while len(falling) <= c:
            falling.append(falling[-1] * PolyQ([1 - len(falling), 1]))
        o = [0] * A.n
        o[base] = -c
        den = 1
        for (idx, _), mi in zip(parts, m):
            o[idx] += mi
            den *= factorial(mi)
        terms[tuple(o)] = falling[c] * Fraction(1, den)
    return FiniteSeries(A, facet, N, terms)


class TruncatedSeries:
    """Canonical series solution at a point, truncated by total step size.

    Terms are keyed by kernel lattice vectors u with sum |u|_1 <= bound; the
    monomial of a term is x^(v+u).  Coefficients follow the falling/rising
    factorial rule, so a term whose numerator vanishes is simply absent.
    """

    __slots__ = ("A", "v", "pair", "bound", "terms")

    def __init__(self, A, v, pair, bound, terms):
        self.A = A
        self.v = tuple(Fraction(c) for c in v)
        self.pair = pair
        self.bound = bound
        self.terms = dict(terms)

    def monomials(self):
        out = []
        for u, c in sorted(self.terms.items()):
            out.append((c, tuple(vi + ui for vi, ui in zip(self.v, u))))
        return out

    def evaluate(self, x):
        return _evaluate(self.monomials(), x)

    def __repr__(self):
        return f"TruncatedSeries(v={self.v}, {len(self.terms)} terms, bound={self.bound})"


def _kernel_steps(A, bound, mid_lower):
    """Kernel lattice vectors with |u|_1 <= bound and middle coordinates
    bounded below by ``mid_lower`` (coordinate-indexed dict).

    The middle coordinates are chosen one at a time, in lexicographic order,
    each within what is left of the l1 budget.  The last one runs only over
    the residue class that makes the weighted sum divisible by k, and the
    end coordinates then follow from the two degree equations.
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
        lo = max(lows[i], -left)
        weight = weights[i]
        if i + 1 < len(lows):
            for c in range(lo, left + 1):
                walk(i + 1, prefix + (c,), norm + abs(c), wsum + weight * c, total + c)
            return
        # weight * c = -wsum (mod k) has solutions iff g divides wsum; they
        # form one class modulo k / g
        g = gcd(weight, k)
        if wsum % g:
            return
        step = k // g
        first = -(wsum // g) * pow(weight // g, -1, step) % step
        for c in range(lo + (first - lo) % step, left + 1, step):
            keep(prefix + (c,), norm + abs(c), wsum + weight * c, total + c)

    if lows:
        walk(0, (), 0, 0, 0)
    else:
        keep((), 0, 0, 0)
    return out


def _phi_coefficient(v, u):
    """Coefficient of the step u in the canonical series at v.

    Raises SeriesDenominatorError when a rising factor vanishes; returns 0
    when a falling factor vanishes.  The factors are taken over one common
    denominator D of v, so all products are of integers.  Each factor
    carries one D, on top for u_i < 0 and below for u_i > 0; a kernel step
    has as many of either, since its entries sum to zero, so the D's cancel.
    """
    D = lcm(*(vi.denominator for vi in v))
    num = den = 1
    for i, ui in enumerate(u):
        Ni = v[i].numerator * (D // v[i].denominator)
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


def default_step_bound(A):
    return 4 * A.k


def series_for_exponent(A, fe, bound=None):
    """Canonical series for one starting exponent; raises on vanishing
    denominators (the discard criterion for basis assembly).  A negative
    bound is invalid input and raises ValueError."""
    if bound is None:
        bound = default_step_bound(A)
    elif bound < 0:
        raise ValueError(f"series bound must be at least 0, got {bound}")
    n = A.n
    v = tuple(Fraction(c) for c in fe.v)
    sigma = fe.pair.sigma
    mid_lower = {i: -fe.pair.r[i] for i in range(1, n - 1)}
    terms = {}
    for u in _kernel_steps(A, bound, mid_lower):
        # end coordinates outside sigma must stay nonnegative as well
        if 0 not in sigma and v[0] + u[0] < 0:
            continue
        if (n - 1) not in sigma and v[n - 1] + u[n - 1] < 0:
            continue
        c = _phi_coefficient(v, u)
        if c != 0:
            terms[u] = c
    if terms.get((0,) * n) != 1:
        raise AssertionError(f"series at {v} does not start with coefficient 1")
    return TruncatedSeries(A, v, fe.pair, bound, terms)


def canonical_series(A, beta, order="d1-first", bound=None):
    """Canonical series at ``beta`` for every starting exponent of the order.

    Propagates SeriesDenominatorError; use solution_basis_at_point for the
    assembly that discards failing exponents.
    """
    return [series_for_exponent(A, fe, bound) for fe in fake_exponents(A, beta, order)]


class AnnihilationReport:
    def __init__(self, ok, checked, skipped, failures):
        self.ok = ok
        self.checked = checked
        self.skipped = skipped
        self.failures = failures

    def __repr__(self):
        return f"AnnihilationReport(ok={self.ok}, checked={self.checked}, skipped={self.skipped})"


def annihilation_check(A, series, order="d1-first"):
    """Apply the defining operators to a solution and collect the residual.

    For truncated point series the scale operators hold per term by
    construction and the binomial generators are checked exactly on every
    output monomial whose sources both lie inside the truncation bound.  For
    finite line solutions the check is a polynomial identity in lam and is
    complete.

    Every residual is decided by one comparison of integers.  A generator
    x^a - x^b is homogeneous, since the first row of A is all ones, so
    |a| = |b|.  The map u -> u - a is injective, so the residual at the
    step s gets at most one a-term, from u = s + a, and at most one b-term,
    from u = s + b.  Over a common denominator D of v the exponent v + u has
    the integer numerator w = N + u D, and d^a x^(v+u) is ff_a / D^|a| times
    x^(v+u-a), with the integer
    ff_a = prod_i w_i (w_i - D) ... (w_i - (a_i - 1) D).
    So the residual is (c(s+a) ff_a - c(s+b) ff_b) / D^|a|, and with
    c = p / q it vanishes exactly when p_a ff_a q_b == p_b ff_b q_a.  On a
    polar line each coefficient is an integer polynomial in lam over one
    denominator, the falling factorial is an integer times
    (lam + o_base)(lam + o_base - 1)..., and the same comparison holds
    coefficient by coefficient.  Only a residual that fails becomes a
    Fraction or a PolyQ.
    """
    gens = toric_ideal_groebner(A, order).generators
    for a, b in gens:
        if sum(a) != sum(b):
            raise AssertionError(f"generator {(a, b)} is not homogeneous")
    if isinstance(series, TruncatedSeries):
        return _truncated_annihilation(A, series, gens)
    if isinstance(series, FiniteSeries):
        return _finite_annihilation(A, series, gens)
    raise TypeError(f"cannot check {type(series).__name__}")


def _truncated_annihilation(A, series, gens):
    v = series.v
    for u in series.terms:
        if A.degree(u) != (0, 0):
            raise AssertionError(f"step {u} is not in the kernel lattice")
    D = lcm(*(vi.denominator for vi in v))
    N = [vi.numerator * (D // vi.denominator) for vi in v]
    bound = series.bound
    # once per term: the numerators N + u D of its exponent, p and q of c,
    # and whether u is inside the bound
    rows = [
        (u, [Ni + ui * D for Ni, ui in zip(N, u)], c.numerator, c.denominator, sum(map(abs, u)) <= bound)
        for u, c in series.terms.items()
    ]
    checked = 0
    skipped = 0
    failures = []
    for a, b in gens:
        # step -> [p_a ff_a, q_a, source inside, p_b ff_b, q_b, source inside],
        # in first-contribution order; None: no term from that side
        sides = {}
        both = [(mono, [(i, mi) for i, mi in enumerate(mono) if mi], slot) for mono, slot in ((a, 0), (b, 3))]
        for u, w, p, q, inside in rows:
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
                entry[slot : slot + 3] = p * ff, q, inside
        scale = D ** sum(a)
        for step, (pa, qa, in_a, pb, qb, in_b) in sides.items():
            # the source steps step + a and step + b must be inside the bound
            if in_a is None:
                in_a = sum(abs(s + ai) for s, ai in zip(step, a)) <= bound
            if in_b is None:
                in_b = sum(abs(s + bi) for s, bi in zip(step, b)) <= bound
            if in_a and in_b:
                checked += 1
                if pa * qb != pb * qa:
                    key = tuple(vi + s for vi, s in zip(v, step))
                    failures.append(((a, b), key, Fraction(pa, qa * scale) - Fraction(pb, qb * scale)))
            else:
                skipped += 1
    return AnnihilationReport(not failures, checked, skipped, failures)


def _finite_annihilation(A, series, gens):
    base = series.base
    for o in series.terms:
        # scale rows: both homogeneity degrees must sit on the line
        if sum(o) != 0 or facet_level(A.k, series.facet, A.degree(o)) != series.level:
            raise AssertionError(f"offset {o} leaves the level-{series.level} line")
    # once per term: the coefficient as integers P over the lcm q of its
    # denominators
    rows = []
    for o, c in series.terms.items():
        q = lcm(*(x.denominator for x in c.coeffs))
        rows.append((o, [x.numerator * (q // x.denominator) for x in c.coeffs], q))
    # (o_base, a_base) -> (lam + o_base)(lam + o_base - 1)... as integers
    lam_falling = {}
    checked = 0
    failures = []
    for a, b in gens:
        # key -> [P_a ff_a, q_a, P_b ff_b, q_b], in first-contribution order
        sides = {}
        for o, P, q in rows:
            for mono, slot in ((a, 0), (b, 2)):
                const = 1
                for i, mi in enumerate(mono):
                    if i != base:
                        for j in range(mi):
                            const *= o[i] - j
                if const == 0:
                    continue
                ob, mb = o[base], mono[base]
                ff = lam_falling.get((ob, mb))
                if ff is None:
                    ff = [1]
                    for j in range(mb):
                        # times (lam + ob - j)
                        ff = [x * (ob - j) + y for x, y in zip(ff + [0], [0] + ff)]
                    lam_falling[ob, mb] = ff
                side = [0] * (len(P) + len(ff) - 1) if P else []
                for i, x in enumerate(P):
                    x *= const
                    for j, y in enumerate(ff):
                        side[i + j] += x * y
                key = tuple([oi - mi for oi, mi in zip(o, mono)])
                entry = sides.get(key)
                if entry is None:
                    entry = sides[key] = [[], 1, [], 1]
                entry[slot : slot + 2] = side, q
        for key, (pa, qa, pb, qb) in sides.items():
            checked += 1
            if [x * qb for x in pa] != [y * qa for y in pb]:
                val = PolyQ([Fraction(x, qa) for x in pa]) - PolyQ([Fraction(y, qb) for y in pb])
                failures.append(((a, b), key, val))
    return AnnihilationReport(not failures, checked, 0, failures)



def parametric_derivative(series, lam0, q):
    """q-th derivative in the line parameter at lam0, as exact monomials.

    Every coefficient must vanish to order at least q at lam0; otherwise the
    derivative would leave the logarithm-free setting and
    LogObstructionError is raised.  Returns a list of (coefficient,
    exponent vector) pairs; the list is empty when everything vanishes to
    higher order.
    """
    if not isinstance(series, FiniteSeries):
        raise TypeError(f"cannot differentiate {type(series).__name__}")
    lam0 = Fraction(lam0)
    out = []
    for o, c in sorted(series.terms.items()):
        mult = c.root_multiplicity(lam0) if c(lam0) == 0 else 0
        if mult < q:
            raise LogObstructionError(o, mult, q)
        val = c.derivative(q)(lam0)
        if val != 0:
            out.append((val, series._exponents(o, lam0)))
    return out


class CoincidenceResult:
    """Comparison of the two finite solutions at a crossing of polar lines."""

    def __init__(self, beta, verdict, point_type, level_0, level_k, mono_0, mono_k):
        self.beta = beta
        self.verdict = verdict
        self.point_type = point_type
        self.level_0 = level_0
        self.level_k = level_k
        self.mono_0 = mono_0
        self.mono_k = mono_k

    def __repr__(self):
        return f"CoincidenceResult({self.beta}, {self.verdict}, {self.point_type})"


def coincidence_at_intersection(A, beta):
    """Evaluate both finite solutions at a crossing of two polar lines and
    decide whether they are proportional or independent.
    """
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    levels = dict(polar_lines_through(A, (b1, b2)))
    if len(levels) != 2:
        raise AssertionError(f"{(b1, b2)} is not a crossing of polar lines: {levels}")
    s0, sk = (polar_line_solution(A, facet, levels[facet]).stripped()[0] for facet in FACETS)
    return coincidence_of_line_solutions((b1, b2), s0, sk)


def coincidence_of_line_solutions(beta, s0, sk):
    """coincidence_at_intersection for line solutions already built: s0 and
    sk are the stripped finite solutions of the facet-0 and the facet-k
    polar line through the crossing ``beta``."""
    A = s0.A
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    m0 = s0.monomials(b1)
    mk = sk.monomials(b1)
    if not (m0 and mk):
        raise AssertionError("stripped finite solutions cannot vanish at the crossing")
    verdict = "proportional" if _proportional(m0, mk) else "independent"
    if b1.denominator != 1:
        point_type = "non-integral"
    elif is_rank_jumping(A, (b1, b2)):
        point_type = "rank-jumping"
    else:
        point_type = "interior"
    return CoincidenceResult((b1, b2), verdict, point_type, s0.level, sk.level, m0, mk)


class BasisElement:
    """One member of a solution basis.

    kind is "series" (truncated canonical series at a top pair) or "finite"
    (a polar line solution evaluated at the point).  ``monomials`` always
    gives exact (coefficient, exponent) data, truncated for series.
    """

    def __init__(self, kind, monomials, tags, source):
        self.kind = kind
        self._monomials = list(monomials)
        self.tags = list(tags)
        self.source = source

    def monomials(self):
        return list(self._monomials)

    def evaluate(self, x):
        return _evaluate(self._monomials, x)

    def __repr__(self):
        return f"BasisElement({self.kind}, tags={self.tags}, {len(self._monomials)} monomials)"


class SolutionBasis:
    """The solutions assembled at one parameter point.

    ``entries`` are the BasisElements; ``discarded`` pairs each top starting
    exponent whose series hit a vanishing denominator with that error; and
    ``lines`` holds one (facet, level, stripped FiniteSeries) per polar line
    through the point, also for a line whose element was merged into another
    entry.  Checks on the point reuse these solutions instead of building
    them again.
    """

    def __init__(self, A, beta, entries, discarded, expected_rank, lines):
        self.A = A
        self.beta = beta
        self.entries = list(entries)
        self.discarded = list(discarded)
        self.expected_rank = expected_rank
        self.lines = list(lines)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"SolutionBasis(beta={self.beta}, {len(self.entries)} elements)"


def solution_basis_at_point(A, beta, order="d1-first", bound=None):
    """Assemble a basis of solutions at one parameter point.

    Top starting exponents contribute truncated series; exponents whose
    series hit a vanishing denominator are discarded.  Each polar line
    through the point contributes its stripped finite solution evaluated
    there.  Proportional elements are merged.  Each series and each line
    solution is built once, here.

    Raises BasisCountError, carrying the basis as assembled, when the final
    count differs from the rank at the point or two elements are
    proportional.
    """
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    entries = []
    discarded = []
    lines = []
    for fe in fake_exponents(A, (b1, b2), order):
        if not fe.is_top:
            continue
        try:
            ts = series_for_exponent(A, fe, bound)
        except SeriesDenominatorError as err:
            discarded.append((fe, err))
            continue
        entries.append(BasisElement("series", ts.monomials(), [f"top {fe.pair.r}"], ts))
    for facet, N in polar_lines_through(A, (b1, b2)):
        fs, _ = polar_line_solution(A, facet, N).stripped()
        lines.append((facet, N, fs))
        tag = f"{facet} line level {N}"
        mono = fs.monomials(b1)
        if not mono:
            raise AssertionError("stripped finite solution evaluated to zero")
        element = BasisElement("finite", mono, [tag], fs)
        merged = False
        for existing in entries:
            if _proportional(existing._monomials, mono):
                existing.tags.append(tag)
                if existing.kind == "finite":
                    existing.tags.append("coincident")
                merged = True
                break
        if not merged:
            entries.append(element)
    expected = rank(A, (b1, b2))
    basis = SolutionBasis(A, (b1, b2), entries, discarded, expected, lines)
    if len(entries) != expected:
        raise BasisCountError(
            f"assembled {len(entries)} solutions but the rank at {(b1, b2)} is {expected}", basis
        )
    for i, j in itertools.combinations(range(len(entries)), 2):
        if _proportional(entries[i]._monomials, entries[j]._monomials):
            raise BasisCountError(f"solutions {i} and {j} at {(b1, b2)} coincide", basis)
    return basis
