"""Deterministic JSON reports for the command line interface.

All numbers are encoded reproducibly: exact rationals as strings like
"-3/4", complex values as [re, im] pairs, and keys are sorted on output.
"""

import json
from fractions import Fraction

from . import analytic, cohomology, series
from .curve import (
    FACET_0,
    FACET_K,
    FACETS,
    b_matrix,
    facet_semigroup,
    rank_jumping_parameters,
    resonant_lines,
    _default_jump_box,
)
from .errors import BasisCountError

SCHEMA = "curvegkz/1"


def _encode(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def to_json(report):
    return json.dumps(_encode(report), sort_keys=True, indent=2) + "\n"


def _header(command, A):
    """The schema, command and matrix entries that every report starts with."""
    return {"schema": SCHEMA, "command": command, "matrix": {"exponents": list(A.exponents), "n": A.n, "k": A.k}}


def analyze_report(A, window=8):
    facets = {}
    for facet in FACETS:
        S = facet_semigroup(A, facet)
        facets[facet] = {
            "generators": list(S.gens),
            "gaps": list(S.gaps),
            "frobenius": S.frobenius,
        }
    exceptional = rank_jumping_parameters(A)
    lines = {}
    for facet in FACETS:
        found = resonant_lines(A, facet, (-window, window))
        lines[facet] = {
            "polar": [L.level for L in found if L.polar],
            "resonant_only": [L.level for L in found if not L.polar],
        }
    return {
        **_header("analyze", A),
        "facets": facets,
        "primitive_relations": {str(i): list(t) for i, t in b_matrix(A).items()},
        "exceptional_parameters": [list(b) for b in exceptional],
        "rank": {"generic": A.k, "exceptional": A.k + 1},
        "lines": lines,
        "window": window,
        "search_box": list(_default_jump_box(A)),
    }


def solve_report(A, beta, order="d1-first", bound=None):
    basis = series.solution_basis_at_point(A, beta, order=order, bound=bound)
    entries = [{"kind": e.kind, "tags": list(e.tags), "monomials": e.monomials()} for e in basis.entries]
    discarded = [
        {"top": list(fe.pair.r), "step": list(err.u), "coordinate": err.coordinate} for fe, err in basis.discarded
    ]
    return {
        **_header("solve", A),
        "beta": [Fraction(beta[0]), Fraction(beta[1])],
        "order": order,
        "rank": basis.expected_rank,
        "basis": entries,
        "discarded": discarded,
    }


def verify_report(A, beta, tol=1e-8, seed=0, order="d1-first"):
    """Exact and numerical checks at one parameter point.

    The exact checks run on the solutions that solution_basis_at_point
    built: its series and its polar-line solutions are not built again.
    When that basis has the wrong size, the BasisCountError it raises is the
    failed basis-count check, and the other checks run on the basis it
    carries.
    """
    b1, b2 = Fraction(beta[0]), Fraction(beta[1])
    checks = []

    def record(name, status, **detail):
        entry = {"name": name, "status": status}
        entry.update(detail)
        checks.append(entry)

    # exact checks first
    try:
        basis = series.solution_basis_at_point(A, (b1, b2), order=order)
        record("basis-count", "pass", count=len(basis.entries), rank=basis.expected_rank)
    except BasisCountError as err:
        basis = err.basis
        record("basis-count", "fail", reason=str(err))

    reps = [series.annihilation_check(A, e.source, order) for e in basis.entries if e.kind == "series"]
    record(
        "series-annihilation",
        "pass" if all(r.ok for r in reps) else "fail",
        residuals_checked=sum(r.checked for r in reps),
    )

    if basis.lines:
        reps = [series.annihilation_check(A, fs, order) for _, _, fs in basis.lines]
        record(
            "finite-line-annihilation",
            "pass" if all(r.ok for r in reps) else "fail",
            lines=[[facet, N] for facet, N, _ in basis.lines],
        )
    else:
        record("finite-line-annihilation", "skipped", reason="no polar line through beta")

    if len(basis.lines) == 2:
        line = {facet: fs for facet, _, fs in basis.lines}
        res = series.coincidence_of_line_solutions((b1, b2), line[FACET_0], line[FACET_K])
        # the two line solutions are proportional only at an integral
        # crossing that is not a rank jump
        expected = "proportional" if res.point_type == "interior" else "independent"
        record(
            "coincidence-structure",
            "pass" if res.verdict == expected else "fail",
            verdict=res.verdict,
            expected=expected,
            point_type=res.point_type,
        )
    else:
        record("coincidence-structure", "skipped", reason="beta is not a crossing of polar lines")

    # numeric checks at a sampled coefficient point (cached by seed), which
    # only a check that runs samples: a non-integral point on a polar line
    # loads no numpy
    if basis.lines:
        record("shift-order-independence", "skipped", reason="beta lies on a polar line")
    else:
        x = analytic.sample_structured_point(A, seed)
        theta = analytic.roots_and_components(A, x).ray_angles[0]
        bc = (complex(float(b1)), complex(float(b2)))
        v1, v2 = analytic.extension_shift(A, [bc, bc], x, theta, ["facet-0-first", "facet-k-first"])
        rel = abs(v1 - v2) / max(1.0, abs(v1))
        record(
            "shift-order-independence",
            "pass" if rel <= tol else "fail",
            rel_difference=rel,
            value=v1,
        )

    if b1.denominator == 1 and b2.denominator == 1:
        x = analytic.sample_structured_point(A, seed)
        total = analytic.residue_at_zero(A, (int(b1), int(b2)), x)
        scale = abs(total)
        for i in range(A.k):
            v = analytic.residue_integral(A, (int(b1), int(b2)), x, i)
            total += v
            scale = max(scale, abs(v))
        total += analytic.residue_at_infinity(A, (int(b1), int(b2)), x)
        rel = abs(total) / max(scale, 1.0)
        record("loop-sum-rule", "pass" if rel <= tol else "fail", rel_residual=rel)
    else:
        record("loop-sum-rule", "skipped", reason="loop integrals need an integral beta")

    status = "fail" if any(c["status"] == "fail" for c in checks) else "pass"
    return {
        **_header("verify", A),
        "beta": [b1, b2],
        "tol": tol,
        "seed": seed,
        "order": order,
        "checks": checks,
        "status": status,
    }


def cohomology_report(A):
    support = cohomology.h1_support(A)
    degrees = []
    for alpha in support:
        dims = cohomology.graded_dims(A, alpha)
        coc = cohomology.cocycle_generator(A, alpha)
        degrees.append(
            {
                "alpha": list(alpha),
                "dims": list(dims),
                "generator": {
                    "v": list(coc.v),
                    "v_prime": list(coc.v_prime),
                    "clearing": coc.clearing,
                    "binomial": [list(coc.binomial[0]), list(coc.binomial[1])],
                    "certified": coc.certified,
                },
            }
        )
    return {
        **_header("cohomology", A),
        "support": [list(a) for a in support],
        "degrees": degrees,
        "matches_rank_jumps": support == rank_jumping_parameters(A),
    }
