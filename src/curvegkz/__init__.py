"""Exact and numerical toolkit for the two-row hypergeometric systems
attached to monomial projective plane curves.

The exact layer (curve combinatorics, toric ideals, series solutions, local
cohomology) works over the rationals; the numerical layer evaluates the
defining integrals with certified-tolerance quadrature and connects them to
the exact data through residues on the polar lines.

``import curvegkz`` registers every submodule but ``cli`` in
``sys.modules`` and as an attribute of the package without executing it:
each is loaded through ``importlib.util.LazyLoader``, and its code runs on
its first attribute access.  A process then compiles and executes only the
modules it uses; ``analyze`` and ``figure`` never run ``analytic``,
``series``, ``toric`` or ``cohomology``.  The modules stay registered
because code that wraps the package's functions from outside (a tracer,
a profiler) finds them in ``sys.modules`` right after ``import curvegkz``.

Each public name is listed once, in ``_EXPORTS``, under its home module.
The package's ``__getattr__`` reads it from that module at access time, so
a wrapper installed in the home module is what ``curvegkz.<name>`` gives.

The package starts no threads.  On Python 3.10 and 3.11 ``LazyLoader`` is
not safe against two threads touching the same unexecuted module at once,
so a threaded caller should execute the modules it needs (for instance
with ``from curvegkz import *``) before it starts its threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "analytic": (
        "PolarMatchResult",
        "ProbeResult",
        "RootData",
        "em_independence_probe",
        "euler_mellin",
        "extension_shift",
        "polar_line_match_check",
        "power_series_coefficient",
        "residue_at_infinity",
        "residue_at_zero",
        "residue_integral",
        "roots_and_components",
        "sample_structured_point",
    ),
    "cohomology": (
        "CocycleData",
        "cocycle_generator",
        "graded_dims",
        "h1_support",
        "in_ray_module",
    ),
    "curve": (
        "FACET_0",
        "FACET_K",
        "ORDER_NAMES",
        "CurveMatrix",
        "NumericalSemigroup",
        "ResonantLine",
        "b_matrix",
        "delta_conditions",
        "facet_semigroup",
        "in_NA",
        "in_convergence_domain",
        "is_rank_jumping",
        "is_resonant",
        "polar_lines",
        "rank",
        "rank_jumping_parameters",
        "resonant_lines",
    ),
    "errors": (
        "BasisCountError",
        "LogObstructionError",
        "MatrixValidationError",
        "PolarLineError",
        "QuadratureError",
        "SeriesDenominatorError",
    ),
    "figure": ("build_svg",),
    "report": (
        "analyze_report",
        "cohomology_report",
        "solve_report",
        "to_json",
        "verify_report",
    ),
    "series": (
        "AnnihilationReport",
        "BasisElement",
        "CoincidenceResult",
        "FiniteSeries",
        "SolutionBasis",
        "TruncatedSeries",
        "annihilation_check",
        "canonical_series",
        "coincidence_at_intersection",
        "default_step_bound",
        "parametric_derivative",
        "polar_line_solution",
        "series_for_exponent",
        "solution_basis_at_point",
    ),
    "toric": (
        "FakeExponent",
        "GroebnerBasis",
        "SpecialLines",
        "StandardPair",
        "TermOrder",
        "fake_exponents",
        "special_lines",
        "standard_pairs",
        "standard_pairs_of_monomial_ideal",
        "term_order",
        "toric_ideal_groebner",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register(module):
    """Register the submodule under its full name and return it unexecuted."""
    name = f"{__name__}.{module}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
