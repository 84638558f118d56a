"""Series solutions: finite solutions on polar lines, canonical series at a
point, exact operator checks, and assembly of a full solution basis.

Finite solutions carry each coefficient as a rational times a run of
linear factors in the line parameter lam; point solutions carry plain
rational coefficients indexed by kernel lattice steps from a starting
exponent.
"""

import cmath
import itertools
from fractions import Fraction
from math import factorial, gcd
from operator import add, ge, mul, sub

from .curve import facet_base, facet_level, facet_parts, is_rank_jumping
from .curve import _kernel_steps, polar_lines_through, rank
from .errors import BasisCountError, LogObstructionError, SeriesDenominatorError
from .toric import _common_numerators, fake_exponents, toric_ideal_groebner


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


class FiniteSeries:
    """Finite solution attached to a polar line of one facet.

    Terms are keyed by integer offset vectors o; the term monomial is
    x_base^(lam + o_base) * prod_i x_i^(o_i).  With c = -o_base, the
    coefficient of the term is the rational terms[o] times the run of
    linear factors (lam - start)(lam - start - 1)...(lam - c + 1), one
    integer ``start`` for the whole series.  A line solution as built has
    start 1 (start 0 at level 0); ``stripped()`` raises start to the least
    c.  Every term must have start <= c, or ValueError is raised.
    """

    __slots__ = ("A", "facet", "level", "base", "terms", "start")

    def __init__(self, A, facet, level, terms, start):
        self.A = A
        self.facet = facet
        self.level = int(level)
        self.base = facet_base(A, facet)
        self.terms = dict(terms)
        self.start = start
        for o in self.terms:
            if -o[self.base] < start:
                raise ValueError(f"offset {o} has fewer than {start} base parts, the start of its run")

    def _exponents(self, o, lam):
        """Exact exponent vector of the term at offset o, at the line point lam."""
        return tuple(oi + lam if i == self.base else Fraction(oi) for i, oi in enumerate(o))

    def stripped(self):
        """The series with the factors common to all coefficients divided out.

        Each coefficient of a line solution is N (lam-1)...(lam-c+1) / prod m_i!
        for c parts, so the one of least c divides all the others, and made
        monic it is their gcd, (lam - start)...(lam - c_min + 1).  Dividing
        it out only moves start up to the least c.
        """
        start = min((-o[self.base] for o in self.terms), default=self.start)
        return FiniteSeries(self.A, self.facet, self.level, self.terms, start)

    def monomials(self, lam):
        """Exact (coefficient, exponent vector) pairs at lam; zero terms dropped."""
        lam = Fraction(lam)
        # run[c - start] = (lam - start)...(lam - c + 1), one running product
        run = [Fraction(1)]
        for j in range(self.start, max((-o[self.base] for o in self.terms), default=0)):
            run.append(run[-1] * (lam - j))
        out = []
        for o, r in sorted(self.terms.items()):
            val = r * run[-o[self.base] - self.start]
            if val != 0:
                out.append((val, self._exponents(o, lam)))
        return out

    def evaluate(self, lam, x):
        """Complex value at the exact line point lam and the point x."""
        return _evaluate(self.monomials(lam), x)

    def __repr__(self):
        return f"FiniteSeries({self.facet}, level={self.level}, {len(self.terms)} terms, start={self.start})"


# a polar-line solution whose part multisets need more coefficient work
# than this is refused before one is built.  A multiset of c parts costs c^2
# (a rational of about c log c digits, evaluated over a run of c - 1
# factors).  The tests and the benchmark build levels of work 14,501 at
# most.  The largest admitted levels take 0.03 s at most to build, strip,
# evaluate and check (level 38 of facet-0 on 0,1,2,3,5), so the budget now
# bounds the listing of the multisets more than the arithmetic
POLAR_WORK_BUDGET = 200_000


def _part_multisets(parts, N, budget):
    """Multiplicity tuples m, one entry per part, with sum m_p v_p = N, in
    lexicographic order, and their work, the sum of c^2 over them with c =
    sum(m).  The listing stops as soon as the work passes the budget, so
    past the budget the list is a prefix and the work a lower bound.

    The recursion runs over the parts, so its depth is their number.  The
    last multiplicity is solved, not looped over.  Every other m_p runs only
    through the residue class that leaves a rest divisible by the gcd t of
    the later values, m_p v_p = rest mod t.  The values have gcd 1, so only
    a branch whose rest runs out ends without a multiset, and the listing
    costs about as much as the multisets it lists.
    """
    values = [v for _, v in parts]
    out = []
    work = 0

    def rec(p, rest, prefix):
        nonlocal work
        v = values[p]
        if p == len(values) - 1:
            m = prefix + (rest // v,)
            out.append(m)
            work += sum(m) ** 2
            return work > budget
        t = gcd(*values[p + 1 :])
        d = gcd(v, t)  # rest is a multiple of d
        step = t // d
        start = rest // d * pow(v // d, -1, step) % step
        return any(rec(p + 1, rest - mp * v, prefix + (mp,)) for mp in range(start, rest // v + 1, step))

    rec(0, N, ())
    return out, work


def polar_line_solution(A, facet, N):
    """The finite solution on the level-N line of a facet, in closed form.

    A multiset of facet parts summing to N > 0, with m_i parts at
    coordinate i and c parts in all, gives the term with offset o_i = m_i,
    o_base = -c and coefficient N (lam-1)(lam-2)...(lam-c+1) / prod m_i!,
    stored as the rational N / prod m_i! over the factors from start = 1.
    Summed over the orderings of the multiset, the per-prefix denominators
    1/(N - s) give N / prod(v_i^m_i m_i!) (the classical identity
    sum_sigma prod_j 1/(a_sigma(1) + ... + a_sigma(j)) = 1/prod a_i), and the
    part values v_i cancel against the weights v_i^m_i.  Level 0 is the
    constant solution; a negative level, or one with no multiset, gives the
    zero series.  A level whose multisets need more work than
    POLAR_WORK_BUDGET raises ValueError before any term is built.

    >>> from .curve import CurveMatrix
    >>> sol = polar_line_solution(CurveMatrix([0, 1, 3, 4]), "facet-k", 3)
    >>> for o, r in sorted(sol.terms.items()):
    ...     print(o, r)
    (0, 0, 3, -3) 1/2
    (0, 1, 0, -1) 3

    The first term is (lam-1)(lam-2)/2 x3^3 x4^(lam-3), as sol.start is 1.
    """
    N = int(N)
    parts = facet_parts(A, facet)
    base = facet_base(A, facet)
    if N <= 0:
        return FiniteSeries(A, facet, N, {(0,) * A.n: Fraction(1)} if N == 0 else {}, 0)
    multisets, work = _part_multisets(parts, N, POLAR_WORK_BUDGET)
    if work > POLAR_WORK_BUDGET:
        raise ValueError(
            f"the level-{N} line of {facet} needs coefficient work of at least {work}"
            f" (the sum of c^2 over its part multisets of c parts), past the budget"
            f" of {POLAR_WORK_BUDGET}"
        )
    terms = {}
    for m in multisets:
        o = [0] * A.n
        o[base] = -sum(m)
        den = 1
        for (idx, _), mi in zip(parts, m):
            o[idx] += mi
            den *= factorial(mi)
        terms[tuple(o)] = Fraction(N, den)
    return FiniteSeries(A, facet, N, terms, 1)


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
        # v_i + u_i once per coordinate and distinct u_i
        shifted = [{ui: vi + ui for ui in set(col)} for vi, col in zip(self.v, zip(*self.terms))]
        return [(c, tuple(map(dict.__getitem__, shifted, u))) for u, c in sorted(self.terms.items())]

    def evaluate(self, x):
        return _evaluate(self.monomials(), x)

    def __repr__(self):
        return f"TruncatedSeries(v={self.v}, {len(self.terms)} terms, bound={self.bound})"


def _step_coefficients(v, steps):
    """Coefficients of the kernel steps in the canonical series at v, in
    the order of ``steps``.

    Raises SeriesDenominatorError(u, i) at the first step u and the first
    coordinate i where a rising factor vanishes; a vanishing falling factor
    gives 0.  The factors are taken over one common denominator D of v, so
    coordinate i has the integer tables fall[m] = prod_{j<m} (N_i - j D)
    and rise[m] = prod_{j=1..m} (N_i + j D), as long as the steps need, and
    the coefficient of u is prod fall[-u_i] / prod rise[u_i].  Each factor
    carries one D, on top for u_i < 0 and below for u_i > 0; a kernel step
    has as many of either, since its entries sum to zero, so the D's cancel.
    """
    D, N = _common_numerators(v)
    tables = []
    for Ni, col in zip(N, zip(*steps)):
        fall, rise = [1], [1]
        for j in range(-min(col)):
            fall.append(fall[-1] * (Ni - j * D))
        for j in range(1, max(col) + 1):
            rise.append(rise[-1] * (Ni + j * D))
        tables.append((fall, rise))
    out = []
    for u in steps:
        num = den = 1
        for i, (ui, (fall, rise)) in enumerate(zip(u, tables)):
            if ui < 0:
                num *= fall[-ui]
            elif ui > 0:
                if rise[ui] == 0:
                    raise SeriesDenominatorError(u, i)
                den *= rise[ui]
        out.append(Fraction(num, den))
    return out


def default_step_bound(A):
    return 4 * A.k


def _step_bound(A, bound):
    """The series bound, default_step_bound(A) when None; a negative bound
    is invalid input and raises ValueError."""
    if bound is None:
        return default_step_bound(A)
    if bound < 0:
        raise ValueError(f"series bound must be at least 0, got {bound}")
    return bound


def series_for_exponent(A, fe, bound=None, *, _walk=None):
    """Canonical series for one starting exponent; raises on vanishing
    denominators (the discard criterion for basis assembly).  A negative
    bound is invalid input and raises ValueError.

    ``_walk`` is a list of kernel steps at this bound whose middle lower
    limits are at most -r_i, as solution_basis_at_point shares one among its
    top pairs; the steps of this pair are those with u_i >= -r_i, in walk
    order, which is the list its own walk gives.
    """
    bound = _step_bound(A, bound)
    n = A.n
    v = tuple(Fraction(c) for c in fe.v)
    sigma = fe.pair.sigma
    lows = [-r for r in fe.pair.r[1 : n - 1]]
    if _walk is None:
        walk = _kernel_steps(A, bound, dict(enumerate(lows, 1)))
    else:
        walk = [u for u in _walk if all(map(ge, u[1 : n - 1], lows))]
    # end coordinates outside sigma must stay nonnegative as well
    steps = [
        u
        for u in walk
        if (0 in sigma or v[0] + u[0] >= 0) and (n - 1 in sigma or v[n - 1] + u[n - 1] >= 0)
    ]
    terms = {u: c for u, c in zip(steps, _step_coefficients(v, steps)) if c != 0}
    if terms.get((0,) * n) != 1:
        raise AssertionError(f"series at {v} does not start with coefficient 1")
    return TruncatedSeries(A, v, fe.pair, bound, terms)


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
    c = p / q it vanishes exactly when p_a ff_a q_b == p_b ff_b q_a.  Only
    a residual that fails becomes a Fraction.  A polar line runs the same
    loop with D = 1, v = 0, no bound and its base coordinate skipped;
    _finite_annihilation gives the argument.
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
    for u in series.terms:
        if A.degree(u) != (0, 0):
            raise AssertionError(f"step {u} is not in the kernel lattice")
    D, N = _common_numerators(series.v)
    rows = [(u, [Ni + ui * D for Ni, ui in zip(N, u)], c) for u, c in series.terms.items()]
    return _residual_check(gens, rows, D, series.v, series.bound, None)


def _finite_annihilation(A, series, gens):
    """The residuals of a finite line solution, each decided by comparing
    two scalars.

    The term at o is r_o (lam - start)...(lam + o_base + 1) times
    x_base^(lam + o_base) prod_i x_i^(o_i).  The monomial x^a takes it to
    the key s = o - a with const_a = prod_{i != base} o_i (o_i - 1)...
    (o_i - a_i + 1) and the factors (lam + o_base)...(lam + o_base - a_base
    + 1), which continue the run of the coefficient to
    (lam - start)...(lam + s_base + 1).  The b-side term at the same key
    comes from o' with o'_base - b_base = s_base as well, so it carries the
    same run.  That run is a nonzero polynomial in lam, so the residual at
    s vanishes exactly when r_a const_a == r_b const_b, cross-multiplied
    over the denominators of r.  A failure reports r_a const_a - r_b const_b,
    the coefficient at key in the convention of a term at that offset.  So
    this is the residual loop of a point series with D = 1, v = 0 and no
    bound, with the base coordinate skipped, as the run carries its factor.
    """
    for o in series.terms:
        # scale rows: both homogeneity degrees must sit on the line
        if sum(o) != 0 or facet_level(A.k, series.facet, A.degree(o)) != series.level:
            raise AssertionError(f"offset {o} leaves the level-{series.level} line")
    rows = [(o, o, r) for o, r in series.terms.items()]
    return _residual_check(gens, rows, 1, (0,) * A.n, None, series.base)


def _residual_check(gens, rows, D, v, bound, skip):
    """annihilation_check's residual loop on rows of (step u, numerators
    w = N + u D, coefficient).  A residual is checked when both its source
    steps are inside the bound (every step, when bound is None) and skipped
    otherwise; coordinate ``skip`` takes no falling factor (None: every one
    does).  A failure is keyed by v + step.

    The residual at a step s has the a-source s + a and the b-source s + b;
    a source contributes when it is a row whose falling factorial ff is not
    0.  So the b-source of an a-source u is the row u + (b - a), found by one
    lookup, and a source whose partner does not contribute stands alone.
    Each residual is decided once, at the first row that contributes to it,
    a before b within a row.  That is the order in which a table keyed by
    step (tests/oracles.py, residual_check_by_steps) first meets each
    residual, so both give the same counts and the same failures in the
    same order.  The falling factorials of a coordinate are computed once
    per value of w_i that the rows take.
    """

    def inside(u):
        return bound is None or sum(map(abs, u)) <= bound

    steps = [u for u, _, _ in rows]
    index = {u: j for j, u in enumerate(steps)}
    # once per term: p and q of c, and whether u is inside the bound
    ps = [c.numerator for _, _, c in rows]
    qs = [c.denominator for _, _, c in rows]
    ins = list(map(inside, steps))
    # falls[i][m] maps each w_i of the rows to w_i (w_i - D) ... (w_i - (m - 1) D)
    columns = list(zip(*(w for _, w, _ in rows))) or [()] * len(v)
    falls = []
    for i, column in enumerate(columns):
        falls.append([dict.fromkeys(column, 1)])
        for m in range(0 if i == skip else max((mono[i] for g in gens for mono in g), default=0)):
            falls[i].append({w: f * (w - m * D) for w, f in falls[i][m].items()})
    checked = 0
    skipped = 0
    failures = []
    for a, b in gens:
        scale = D ** sum(a)
        # each row's ff on the side of a, then of b
        sides = []
        for mono in (a, b):
            ff = None
            for i, mi in enumerate(mono):
                if mi and i != skip:
                    column = map(falls[i][mi].__getitem__, columns[i])
                    ff = list(column) if ff is None else list(map(mul, ff, column))
            sides.append([1] * len(rows) if ff is None else ff)
        ff_a, ff_b = sides
        # the b-source of each a-source and the reverse, where both contribute
        d = tuple(map(sub, b, a))
        mate_a = list(map(index.get, map(tuple, map(map, itertools.repeat(add), steps, itertools.repeat(d)))))
        mate_b = [None] * len(rows)
        for j, jb in enumerate(mate_a):
            if jb is not None:
                if ff_a[j] and ff_b[jb]:
                    mate_b[jb] = j
                else:
                    mate_a[j] = None
        for j, u in enumerate(steps):
            # the residual row j feeds as an a-source, then as a b-source
            for ja, jb, ff in ((j, mate_a[j], ff_a), (mate_b[j], j, ff_b)):
                if not ff[j] or (ja is not None and jb is not None and (ja < j or jb < j)):
                    continue
                if ja is None:
                    pa, qa, in_a = 0, 1, inside(map(sub, u, d))
                else:
                    pa, qa, in_a = ps[ja] * ff_a[ja], qs[ja], ins[ja]
                if jb is None:
                    pb, qb, in_b = 0, 1, inside(map(add, u, d))
                else:
                    pb, qb, in_b = ps[jb] * ff_b[jb], qs[jb], ins[jb]
                if in_a and in_b:
                    checked += 1
                    if pa * qb != pb * qa:
                        step = tuple(map(sub, u, a if ja == j else b))
                        key = tuple(vi + s for vi, s in zip(v, step))
                        failures.append(((a, b), key, Fraction(pa, qa * scale) - Fraction(pb, qb * scale)))
                else:
                    skipped += 1
    return AnnihilationReport(not failures, checked, skipped, failures)


def parametric_derivative(series, lam0, q):
    """q-th derivative in the line parameter at lam0, as exact monomials.

    Every coefficient must vanish to order at least q at lam0; otherwise the
    derivative would leave the logarithm-free setting and
    LogObstructionError is raised.  The factors of a coefficient's run are
    distinct, so it vanishes at lam0 to order 1 when lam0 is one of them and
    to order 0 otherwise, and q = 2 or more always raises.
    Returns a list of (coefficient, exponent vector) pairs; the list is
    empty when everything vanishes to higher order.  An order q that is not
    an int >= 0 raises ValueError.
    """
    if not isinstance(series, FiniteSeries):
        raise TypeError(f"cannot differentiate {type(series).__name__}")
    if not isinstance(q, int) or q < 0:
        raise ValueError(f"derivative order must be an int >= 0, got {q!r}")
    if q == 0:
        return series.monomials(lam0)
    lam0 = Fraction(lam0)
    out = []
    for o, r in sorted(series.terms.items()):
        run = range(series.start, -o[series.base])
        mult = int(lam0.denominator == 1 and lam0.numerator in run)
        if mult < q:
            raise LogObstructionError(o, mult, q)
        # at its root lam0, the derivative of the run is the product of the
        # other factors
        val = r
        for j in run:
            if j != lam0:
                val *= lam0 - j
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


def coincidence_of_line_solutions(beta, s0, sk):
    """Evaluate both finite solutions at a crossing of two polar lines and
    decide whether they are proportional or independent.

    s0 and sk are the stripped finite solutions of the facet-0 and the
    facet-k polar line through the crossing ``beta``, as the ``lines`` of
    solution_basis_at_point carry them."""
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
    gives exact (coefficient, exponent) data, truncated for series.  Built
    with monomials None, the element lists those of its TruncatedSeries
    ``source``, one per term, when they are first read.
    """

    def __init__(self, kind, monomials, tags, source):
        self.kind = kind
        self._listed = None if monomials is None else list(monomials)
        self._size = len(source.terms) if monomials is None else len(self._listed)
        self.tags = list(tags)
        self.source = source

    @property
    def _monomials(self):
        if self._listed is None:
            self._listed = self.source.monomials()
        return self._listed

    def monomials(self):
        return list(self._monomials)

    def evaluate(self, x):
        return _evaluate(self._monomials, x)

    def __repr__(self):
        return f"BasisElement({self.kind}, tags={self.tags}, {self._size} monomials)"


def _proportional_elements(e1, e2):
    """_proportional on two basis elements; elements of different sizes are
    not, so their monomials are not listed for it."""
    return e1._size == e2._size and _proportional(e1._monomials, e2._monomials)


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
    # the line solutions come first: a level past the work budget is refused
    # before any Groebner basis is built
    lines = [(f, N, polar_line_solution(A, f, N).stripped()) for f, N in polar_lines_through(A, (b1, b2))]
    entries = []
    discarded = []
    tops = [fe for fe in fake_exponents(A, (b1, b2), order) if fe.is_top]
    # one kernel walk for every top pair, at the least lower limit of each
    # middle coordinate; each series keeps its own steps of it
    lows = {i: min(-fe.pair.r[i] for fe in tops) for i in range(1, A.n - 1)}
    walk = _kernel_steps(A, _step_bound(A, bound), lows)
    for fe in tops:
        try:
            ts = series_for_exponent(A, fe, bound, _walk=walk)
        except SeriesDenominatorError as err:
            discarded.append((fe, err))
            continue
        entries.append(BasisElement("series", None, [f"top {fe.pair.r}"], ts))
    for facet, N, fs in lines:
        tag = f"{facet} line level {N}"
        mono = fs.monomials(b1)
        if not mono:
            raise AssertionError("stripped finite solution evaluated to zero")
        element = BasisElement("finite", mono, [tag], fs)
        merged = False
        for existing in entries:
            if _proportional_elements(existing, element):
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
        if _proportional_elements(entries[i], entries[j]):
            raise BasisCountError(f"solutions {i} and {j} at {(b1, b2)} coincide", basis)
    return basis
