"""Every name a package module imports is used in it.  An import left
behind when its last use goes hides a dependency that is no longer there;
this scan finds it.  ``__init__.py`` imports in order to re-export, so it
is not scanned; instead what it imports must be exactly ``__all__``."""

import ast
import os

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
CHECKED = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


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


def test_all_is_what_the_package_imports():
    # a name dropped from only one of the two lists fails; so does a
    # name listed twice in __all__
    assert sorted(curvegkz.__all__) == sorted(_imports(_parse("__init__.py")))
