"""Slow, independent routes to the membership questions of curvegkz.curve.

The library decides "(b1, b2) in NA", "alpha in Q + Z a_ray" and the rank
jumps from one least-parts table per facet semigroup.  The searches below
answer the same questions without that table, so the tests can compare
two routes instead of one formula with itself.
"""

import itertools
from functools import lru_cache

from curvegkz.curve import FACET_0, FACET_K


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
