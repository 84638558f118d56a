"""The cold-start contract.  The exact commands never call the numerical
layer, so a process that runs one of them must not pay for numpy:
``analytic`` imports numpy inside the functions that use it, and no package
module imports it at module level.  ``import curvegkz`` still loads every
submodule, ``analytic`` included, because code that wraps the package's
functions from outside (a tracer, a profiler) finds them in
``sys.modules``."""

import ast
import os
import subprocess
import sys

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _run(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _module_level_imports(node):
    """Import statements that run when the module is imported: everything
    outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def _imports_numpy(node):
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    return any(name == "numpy" or name.startswith("numpy.") for name in names)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-A", "0,1,3,4"],
        ["cohomology", "-A", "0,1,3,4"],
        ["figure", "-A", "0,1,3,4"],
        ["solve", "-A", "0,1,3,4", "-b", "1/2,1/3"],
    ],
    ids=lambda argv: argv[0],
)
def test_exact_commands_leave_numpy_unloaded(argv):
    out = _run(
        "import contextlib, io, sys\n"
        "from curvegkz import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["0", "False"]


def test_verify_loads_numpy():
    out = _run(
        "import contextlib, io, sys\n"
        "from curvegkz import cli\n"
        "before = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '-A', '0,1,3,4', '-b', '1/2,1/3'])\n"
        "print(code, before, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["0", "False", "True"]


def test_import_registers_every_submodule():
    # cli is the entry point: it imports the package, not the reverse
    expected = sorted(
        f"curvegkz.{name[:-3]}" for name in MODULES if name not in ("__init__.py", "cli.py")
    )
    out = _run(
        "import sys, curvegkz\n"
        "print(*sorted(n for n in sys.modules if n.startswith('curvegkz.')))\n"
        "print('numpy' in sys.modules)\n"
    )
    loaded, numpy_loaded = out.splitlines()
    assert "curvegkz.analytic" in expected
    assert loaded.split() == expected
    assert numpy_loaded == "False"


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_numpy_import(name):
    path = os.path.join(PACKAGE, name)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    lines = sorted(node.lineno for node in _module_level_imports(tree) if _imports_numpy(node))
    assert lines == [], f"{name} imports numpy at module level on lines {lines}"
