"""Every name a package module imports is used in it.  An import left
behind when its last use goes hides a dependency that is no longer there;
this scan finds it.  ``__init__.py`` re-exports through its export table,
not through imports, so the table is checked against the public names the
package promises, and each public name against the rest of the package: a
name that no other package code reads is a second way to reach what a
command already reaches, unless it is kept on purpose."""

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
    QuadratureError ResonantLine RootData SeriesDenominatorError SolutionBasis
    SpecialLines StandardPair TermOrder TruncatedSeries analyze_report annihilation_check
    b_matrix build_svg cocycle_generator cohomology_report
    coincidence_of_line_solutions default_step_bound delta_conditions
    euler_mellin extension_shift facet_semigroup fake_exponents graded_dims h1_support in_NA
    in_ray_module is_rank_jumping is_resonant parametric_derivative
    polar_line_match_check polar_line_solution power_series_coefficient rank
    rank_jumping_parameters residue_at_infinity residue_at_zero residue_integral
    resonant_lines roots_and_components sample_structured_point series_for_exponent
    solution_basis_at_point solve_report special_lines standard_pairs
    standard_pairs_of_monomial_ideal term_order to_json toric_ideal_groebner verify_report
""".split()

# public names that no other code of the package reads, each kept for the
# reason given; every other public name feeds a command
UNUSED_KEPT = {
    "residue_at_zero": "perfbench/tracer.py times it by name in its analytic.loops layer",
    "residue_at_infinity": "perfbench/tracer.py times it by name in its analytic.loops layer",
    "polar_line_match_check": "input of the polar-line check of verify (ROADMAP direction 6)",
    "power_series_coefficient": "input of the closed-form loop values (ROADMAP directions 3 and 5)",
    "special_lines": "the paper's arrangement of special lines, checked by the acceptance battery",
    "delta_conditions": "the paper's two step-two conditions, checked in test_curve and test_properties",
    "parametric_derivative": "the paper's parametric derivatives, checked in test_series and test_properties",
}


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


def _definitions(tree):
    """The top-level function and class definitions of a module, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _referenced(node, skip=None):
    """The names a tree reads, as a bare name or an attribute, outside the
    subtree ``skip``."""
    if node is skip:
        return set()
    names = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    for child in ast.iter_child_nodes(node):
        names |= _referenced(child, skip)
    return names


def test_every_public_name_feeds_the_package():
    # a public name that no other code of the package reads is reached only
    # by its tests: it either feeds a command or is kept on purpose above
    trees = {name[:-3]: _parse(name) for name in CHECKED if name != "__init__.py"}
    read = {module: _referenced(tree) for module, tree in trees.items()}
    unused = []
    for home, names in curvegkz._EXPORTS.items():
        definitions = _definitions(trees[home])
        for name in names:
            if any(name in read[module] for module in trees if module != home):
                continue
            if name not in _referenced(trees[home], definitions.get(name)):
                unused.append(name)
    assert sorted(unused) == sorted(UNUSED_KEPT)
