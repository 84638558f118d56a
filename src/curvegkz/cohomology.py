"""Graded local cohomology of the semigroup ring at the irrelevant ideal,
computed degree by degree from the two-face complex

    0 -> C[Q] -> C[Q + Z a_1] (+) C[Q + Z a_n] -> C[Z^2] -> 0

whose middle memberships are read off the facet levels: a degree lies in
Q + Z a_1 (ray 0, the facet-0 column) exactly when its facet-0 level b2 is
a sum of facet-0 parts, and in Q + Z a_n (ray k) exactly when its facet-k
level k*b1 - b2 is a sum of facet-k parts.
"""

from .curve import FACET_0, FACET_K, FACETS, facet_base, facet_level, facet_parts, in_NA
from .curve import _integral_pair, _polar_level_semigroup, _rank_jumps


def in_ray_module(A, alpha, ray):
    """Membership of a degree in the semigroup module localized along one
    boundary ray: Q + Z a_1 (ray 0, given as FACET_0) or Q + Z a_n (ray k,
    given as FACET_K).

    Shifting by the facet's own column keeps the facet level of alpha
    (a2 for a_1 = (1, 0), k*a1 - a2 for a_n = (1, k)) and can raise the
    first coordinate past any number of parts.  So alpha lies in the ray
    module exactly when its facet level is a sum of the facet's parts, the
    polar-level semigroup of that facet.  A degree that is not integral
    raises ValueError.
    """
    degree = _integral_pair(alpha)
    if degree is None:
        raise ValueError(f"degree {alpha} is not integral")
    return facet_level(A.k, ray, degree) in _polar_level_semigroup(A, ray)


def graded_dims(A, alpha):
    """(h0, h1, h2) of local cohomology in one integral Z^2-degree.

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


def h1_support(A):
    """All degrees with nonzero first local cohomology, sorted.

    h1 is one exactly on both ray modules outside NA, the rank jumps of
    ``_rank_jumps``; each one is checked against ``graded_dims``.
    """
    support = []
    for alpha in _rank_jumps(A):
        if graded_dims(A, alpha)[1] != 1:
            raise AssertionError(f"staircase degree {alpha} has no first local cohomology")
        support.append(alpha)
    return sorted(support)


def _max_parts_decomposition(S, N):
    """The count of each generator of S in a decomposition of N with the
    most parts, None when N is not a member.  At rest r it takes the least
    generator g with max_parts(r - g) = max_parts(r) - 1.

    With (x, z) the floor pair that gives max_parts(r), max_parts(r - s)
    for the least generator s reads the same pair exactly when x <= r - s.
    So once the rule takes s it takes it (r - x)/s times in a row, and that
    run is taken at once.  A decomposition with the most parts holds fewer
    than s other parts, so there are fewer than 2s steps.
    """
    most = S.max_parts(N)
    if most is None:
        return None
    s = S.gens[0]
    counts = dict.fromkeys(S.gens, 0)
    while N:
        g = next(g for g in S.gens if S.max_parts(N - g) == most - 1)
        run = (N - S._corner(S._floor, N)[0]) // s if g == s else 1
        counts[g] += run
        N, most = N - g * run, most - run
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


def cocycle_generator(A, alpha):
    """Generator of the first cohomology class at a jumping degree.

    The ray-0 representative uses the maximal number of positive parts for
    the second coordinate, pushing the first coordinate exponent as low as
    it goes; the ray-k representative mirrors this.  The parts of a facet
    generate its polar-level semigroup, whose ``max_parts`` gives the
    number of parts and, generator by generator, the decomposition.
    Multiplying both by (x_1 x_n)^clearing gives two honest monomials x^m1
    and x^m2, and the sections agree away from the rays when x^m1 - x^m2
    lies in the toric ideal, that is when A.m1 = A.m2 (Sturmfels, Groebner
    Bases and Convex Polytopes, 1996, Lemma 4.1): ``certified`` is that
    degree comparison.
    """
    if graded_dims(A, alpha)[1] != 1:
        raise ValueError(f"no first cohomology class in degree {alpha}")
    a1, a2 = _integral_pair(alpha)
    n = A.n

    reps = []
    for facet in FACETS:
        # as many facet parts as possible sum to the facet level of alpha;
        # the facet's own column takes the rest of the first coordinate
        S = _polar_level_semigroup(A, facet)
        counts = _max_parts_decomposition(S, facet_level(A.k, facet, (a1, a2)))
        rep = [0] * n
        for i, p in facet_parts(A, facet):
            rep[i] = counts[p]
        rep[facet_base(A, facet)] = a1 - sum(rep)
        if A.degree(rep) != (a1, a2):
            raise AssertionError(f"ray representative {rep} does not have degree {(a1, a2)}")
        reps.append(rep)
    v, vp = reps

    m = max(0, -v[0], -vp[n - 1])
    clear = (m,) + (0,) * (n - 2) + (m,)
    mono1 = tuple(a + c for a, c in zip(v, clear))
    mono2 = tuple(a + c for a, c in zip(vp, clear))
    if min(mono1) < 0 or min(mono2) < 0:
        raise AssertionError(f"clearing by {m} leaves a negative exponent in {mono1} or {mono2}")
    certified = A.degree(mono1) == A.degree(mono2)
    return CocycleData((a1, a2), tuple(v), tuple(vp), m, (mono1, mono2), certified)
