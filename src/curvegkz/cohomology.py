"""Graded local cohomology of the semigroup ring at the irrelevant ideal,
computed degree by degree from the two-face complex

    0 -> C[Q] -> C[Q + Z a_1] (+) C[Q + Z a_n] -> C[Z^2] -> 0

whose middle memberships are read off the two facet semigroups: a degree
lies in Q + Z a_1 exactly when its second coordinate lies in S_k, and in
Q + Z a_n exactly when its facet-k pairing lies in S_0.
"""

from .curve import FACET_0, FACET_K, facet_semigroup, in_NA, _jump_candidates
from .toric import toric_ideal_groebner


def in_ray_module(A, alpha, ray):
    """Membership of a degree in the semigroup module localized along one
    boundary ray: Q + Z a_1 (ray 0) or Q + Z a_n (ray k).

    Shifting by a_1 = (1, 0) keeps a2 and can raise the first coordinate
    past any least number of parts, so alpha lies in Q + Z a_1 exactly when
    a2 lies in the facet-k semigroup.  Shifting by a_n = (1, k) keeps the
    pairing k*a1 - a2 in the same way, so alpha lies in Q + Z a_n exactly
    when that pairing lies in the facet-0 semigroup.
    """
    a1, a2 = int(alpha[0]), int(alpha[1])
    if ray == FACET_0:
        return a2 in facet_semigroup(A, FACET_K)
    if ray == FACET_K:
        return A.k * a1 - a2 in facet_semigroup(A, FACET_0)
    raise ValueError(f"unknown ray {ray!r}")


def graded_dims(A, alpha):
    """(h0, h1, h2) of local cohomology in one Z^2-degree.

    >>> from .curve import CurveMatrix
    >>> graded_dims(CurveMatrix([0, 1, 3, 4]), (1, 2))
    (0, 1, 0)
    >>> graded_dims(CurveMatrix([0, 1, 3, 4]), (1, 1))
    (0, 0, 0)
    """
    m1 = in_ray_module(A, alpha, FACET_0)
    mn = in_ray_module(A, alpha, FACET_K)
    inq = in_NA(A, alpha)
    if inq and not (m1 and mn):
        raise AssertionError(f"degree {alpha} lies in Q but not in both ray modules")
    h1 = 1 if (m1 and mn and not inq) else 0
    h2 = 0 if (m1 or mn) else 1
    return (0, h1, h2)


def h1_support(A, box=None):
    """All degrees with nonzero first local cohomology inside the box
    (default: the proven search box for rank jumps), sorted.

    A degree outside the candidates of the rank-jump search lies outside a
    ray module or inside NA, so only the candidates are tested.
    """
    return sorted(alpha for alpha in _jump_candidates(A, box) if graded_dims(A, alpha)[1] == 1)


def _max_parts_decomposition(N, gens):
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


class CocycleData:
    """Explicit generator of the one-dimensional first cohomology in one
    degree: exponent vectors over each boundary ray, a clearing exponent
    making both ordinary monomials, and the binomial certificate that the
    cleared monomials agree in the semigroup ring."""

    def __init__(self, alpha, v, v_prime, clearing, binomial, certified):
        self.alpha = alpha
        self.v = v
        self.v_prime = v_prime
        self.clearing = clearing
        self.binomial = binomial
        self.certified = certified

    def __repr__(self):
        return (
            f"CocycleData(alpha={self.alpha}, v={self.v}, v_prime={self.v_prime}, "
            f"clearing={self.clearing}, certified={self.certified})"
        )


def cocycle_generator(A, alpha, order="d1-first"):
    """Generator of the first cohomology class at a jumping degree.

    The ray-0 representative uses the maximal number of positive parts for
    the second coordinate, pushing the first coordinate exponent as low as
    it goes; the ray-k representative mirrors this.  Multiplying both by
    (x_1 x_n)^clearing gives two honest monomials of equal degree whose
    difference reduces to zero in the toric ideal, certifying that the two
    sections agree away from the rays.
    """
    if graded_dims(A, alpha)[1] != 1:
        raise ValueError(f"no first cohomology class in degree {alpha}")
    a1, a2 = int(alpha[0]), int(alpha[1])
    n, k = A.n, A.k

    counts0 = _max_parts_decomposition(a2, [A.exponents[i] for i in range(1, n)])
    v = [0] * n
    total = 0
    for i in range(1, n):
        c = counts0.get(A.exponents[i], 0)
        v[i] = c
        total += c
    v[0] = a1 - total
    if A.degree(v) != (a1, a2):
        raise AssertionError(f"ray representative {v} does not have degree {(a1, a2)}")

    countsk = _max_parts_decomposition(k * a1 - a2, [k - A.exponents[i] for i in range(n - 1)])
    vp = [0] * n
    total = 0
    for i in range(n - 1):
        c = countsk.get(k - A.exponents[i], 0)
        vp[i] = c
        total += c
    vp[n - 1] = a1 - total
    if A.degree(vp) != (a1, a2):
        raise AssertionError(f"ray representative {vp} does not have degree {(a1, a2)}")

    m = max(0, -v[0], -vp[n - 1])
    clear = [0] * n
    clear[0] = m
    clear[n - 1] = m
    mono1 = tuple(v[i] + clear[i] for i in range(n))
    mono2 = tuple(vp[i] + clear[i] for i in range(n))
    if min(mono1) < 0 or min(mono2) < 0:
        raise AssertionError(f"clearing by {m} leaves a negative exponent in {mono1} or {mono2}")
    gb = toric_ideal_groebner(A, order)
    certified = gb.reduces_to_zero(mono1, mono2)
    return CocycleData((a1, a2), tuple(v), tuple(vp), m, (mono1, mono2), certified)
