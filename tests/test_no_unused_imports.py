"""Every name a package module imports is used in it.  An import left
behind when its last use goes hides a dependency that is no longer there;
this scan finds it.  ``__init__.py`` re-exports through its export table,
not through imports, so the table is checked against the public names the
package promises."""

import ast
import os
import sys

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
CHECKED = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))

# the public names of the package; a name that leaves the export table, or
# joins it, fails the test below until this list says so too
PUBLIC = """
    AnnihilationReport BasisCountError BasisElement CocycleData CoincidenceResult CurveMatrix
    FACET_0 FACET_K FakeExponent FiniteSeries GroebnerBasis LogObstructionError
    MatrixValidationError NumericalSemigroup ORDER_NAMES PolarLineError PolarMatchResult
    ProbeResult QuadratureError ResonantLine RootData SeriesDenominatorError SolutionBasis
    SpecialLines StandardPair TermOrder TruncatedSeries analyze_report annihilation_check
    b_matrix build_svg canonical_series cocycle_generator cohomology_report
    coincidence_at_intersection default_step_bound delta_conditions em_independence_probe
    euler_mellin extension_shift facet_semigroup fake_exponents graded_dims h1_support in_NA
    in_convergence_domain in_ray_module is_rank_jumping is_resonant parametric_derivative
    polar_line_match_check polar_line_solution polar_lines power_series_coefficient rank
    rank_jumping_parameters residue_at_infinity residue_at_zero residue_integral
    resonant_lines roots_and_components sample_structured_point series_for_exponent
    solution_basis_at_point solve_report special_lines standard_pairs
    standard_pairs_of_monomial_ideal term_order to_json toric_ideal_groebner verify_report
""".split()


def _parse(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def _imports(tree):
    """Each name an import binds in the module, with the line of its first
    import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    return imported


@pytest.mark.parametrize("name", CHECKED)
def test_no_unused_import(name):
    tree = _parse(name)
    imported = _imports(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, bound) for bound, line in imported.items() if bound not in used)
    assert unused == [], f"unused imports in {name}: {unused}"


def test_all_is_the_export_table():
    listed = [(name, home) for home, names in curvegkz._EXPORTS.items() for name in names]
    # no name is listed under two modules, or twice under one
    assert len({name for name, _ in listed}) == len(listed)
    assert sorted(curvegkz.__all__) == sorted(name for name, _ in listed) == sorted(PUBLIC)
    for name, home in listed:
        module = sys.modules[f"curvegkz.{home}"]
        obj = getattr(curvegkz, name)
        # the package serves the object its home module holds, and the
        # home module is where a function or class is defined
        assert obj is getattr(module, name), name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert set(curvegkz.__all__) <= set(dir(curvegkz))
