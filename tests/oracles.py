"""Slow, independent routes to what the fast paths of curvegkz compute.

The library decides "(b1, b2) in NA", "alpha in Q + Z a_ray" and the rank
jumps from one least-parts table per facet semigroup.  The searches below
answer the same questions without that table, so the tests can compare
two routes instead of one formula with itself.  The table itself stops at
the start of its period in the library; here it grows to any m, and the
Frobenius number comes from a search for a run of members.

The exact series path has its plain versions here as well: the kernel
steps by a search of the whole box, the series coefficients and the
operator residuals by one Fraction per factor, and the residuals on a polar
line by one PolyQ in lam per factor.  The Groebner basis, which
the library reads off the fibers of the grading, is computed here by
Buchberger's algorithm from a kernel lattice basis, saturating one
variable at a time, with an S-pair list sorted again before every pop.

The closed forms of the library have their searches here too: the finite
polar-line solutions by a path sum over ordered part sequences, their
stripped factor by a Euclidean gcd of all coefficients, the two Delta
conditions by a reach table over sums of Delta columns, and the shift
continuation by its recursive memoised definition.  Whether two exact
solutions are proportional is decided by the rank of their zero-filled
coefficient rows.  The ray
quadrature is here as one loop per parameter pair: nodes and log f built
at every refinement level of every call, and one 1-D array per level.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from curvegkz import toric
from curvegkz.analytic import _tracked_log_f
from curvegkz.curve import FACET_0, FACET_K, facet_parts, facet_semigroup, in_convergence_domain
from curvegkz.errors import PolarLineError, QuadratureError, SeriesDenominatorError
from curvegkz.qexact import PolyQ, fraction_matrix_rank
from curvegkz.series import FiniteSeries


def min_parts_table(gens, upto):
    """Least number of generators summing to each m <= upto (None on gaps),
    by a table over every m."""
    table = [0]
    for t in range(1, upto + 1):
        prev = [table[t - g] for g in gens if g <= t and table[t - g] is not None]
        table.append(min(prev) + 1 if prev else None)
    return table


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


def finite_annihilation_polyq(series, generators):
    """(checked, failures) of the binomial operators on a finite polar-line
    solution, with every falling factorial and residual a PolyQ in lam."""
    base = series.base
    n = series.A.n
    checked = 0
    failures = []
    for a, b in generators:
        residual = {}
        for o, c in series.terms.items():
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
    """The finite solution on the level-N line of a facet, by dynamic
    programming over part multisets: one PolyQ per partial multiset, summing
    the per-prefix factors (lam - j)/(N - s) path by path."""
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
    terms = {o: c for o, c in terms.items() if not c.is_zero()}
    return FiniteSeries(A, facet, N, terms)


def stripped_by_gcd(series):
    """FiniteSeries.stripped by the Euclidean gcd of all coefficients."""
    if not series.terms:
        return series, PolyQ([1])
    g = PolyQ()
    for c in series.terms.values():
        g = g.gcd(c)
    if g.is_constant():
        return series, PolyQ([1])
    new = {o: c.divexact(g) for o, c in series.terms.items()}
    return FiniteSeries(series.A, series.facet, series.level, new, series.removed * g), g


def proportional_by_rank(m1, m2):
    """Whether two (coefficient, exponent) lists are proportional, by the
    exact rank of their coefficient rows over the union of the exponents."""
    exponents = sorted({e for _, e in m1} | {e for _, e in m2})
    index = {e: i for i, e in enumerate(exponents)}
    rows = [[Fraction(0)] * len(exponents) for _ in range(2)]
    for row, mono in zip(rows, (m1, m2)):
        for c, e in mono:
            row[index[e]] = c
    return fraction_matrix_rank(rows) == 1


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


def euler_mellin_untabled(A, beta, x, theta):
    """analytic.euler_mellin for one pair, in a loop of its own: the nodes
    and log f built at every refinement level, and one 1-D array a level."""
    if not in_convergence_domain(A, beta):
        raise QuadratureError(f"parameters {beta} outside the convergence wedge")
    b1 = complex(beta[0])
    b2 = complex(beta[1])
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
        tail = max(abs(g[0]), abs(g[-1]))
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
