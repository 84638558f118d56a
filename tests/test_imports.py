"""The cold-start contract.  A process compiles and executes only the
package modules it uses, and the exact commands never call the numerical
layer, so a process that runs one of them must not pay for numpy:
``analytic`` imports numpy inside the functions that use it, and no package
module imports it at module level.

``import curvegkz`` registers every submodule, ``analytic`` included, in
``sys.modules`` without executing it; a module counts as executed once its
type is plain ``types.ModuleType`` again.  The modules stay registered
because code that wraps the package's functions from outside (a tracer, a
profiler) finds them in ``sys.modules`` right after ``import curvegkz``,
and what it installs in a module is what every caller then reaches."""

import ast
import os
import subprocess
import sys

import pytest

import curvegkz

PACKAGE = os.path.dirname(curvegkz.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
# an expression that lists the executed curvegkz submodules
EXECUTED = "sorted(n for n, m in sys.modules.items() if n.startswith('curvegkz.') and type(m) is types.ModuleType)"


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


@pytest.mark.parametrize(
    "run",
    [
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '-A', '0,2,3,5,7', '-b', '1/3,5/2'])\n",
        "verify_report(CurveMatrix([0, 2, 5, 7]), (Fraction(64, 3), Fraction(116, 3)))\ncode = 0\n",
        "verify_report(CurveMatrix([0, 2, 3]), (9, 25))\ncode = 0\n",
    ],
    ids=["verify-cli", "generic-report", "integral-report"],
)
def test_numeric_verify_leaves_numpy_random_unloaded(run):
    # the sample point is drawn from a copy of numpy's PCG64 stream, so a
    # numeric verify loads numpy but not numpy.random, whose import loads
    # secrets, hashlib and OpenSSL
    out = _run(
        "import contextlib, io, sys\n"
        "from fractions import Fraction\n"
        "from curvegkz import CurveMatrix, cli\n"
        "from curvegkz.report import verify_report\n"
        f"{run}"
        "print(code, *(name in sys.modules for name in ('numpy', 'numpy.random', 'secrets')))\n"
    )
    assert out.split() == ["0", "True", "False", "False"]


def test_verify_without_a_numeric_check_leaves_numpy_unloaded():
    # (1/2, 3) is non-integral on the facet-0 line of level 3: verify skips
    # both numeric checks and samples no point, so numpy stays unloaded
    out = _run(
        "import contextlib, io, sys\n"
        "from curvegkz import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '-A', '0,1,3,4', '-b', '1/2,3'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["0", "False"]


def test_import_registers_every_submodule():
    # cli is the entry point: it imports the package, not the reverse
    expected = sorted(
        f"curvegkz.{name[:-3]}" for name in MODULES if name not in ("__init__.py", "cli.py")
    )
    out = _run(
        "import sys, types, curvegkz\n"
        "print(*sorted(n for n in sys.modules if n.startswith('curvegkz.')))\n"
        f"print(*{EXECUTED})\n"
        "print('numpy' in sys.modules)\n"
    )
    loaded, executed, numpy_loaded = out.splitlines()
    assert "curvegkz.analytic" in expected
    assert loaded.split() == expected
    assert executed == ""
    assert numpy_loaded == "False"


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["analyze", "-A", "0,1,3,4"], ()),
        (["figure", "-A", "0,1,3,4"], ("figure",)),
        (["cohomology", "-A", "0,1,3,4"], ("cohomology",)),
        (["solve", "-A", "0,1,3,4", "-b", "1/2,1/3"], ("series", "toric")),
        (["verify", "-A", "0,1,3,4", "-b", "1/2,1/3"], ("analytic", "series", "toric")),
    ],
    ids=["analyze", "figure", "cohomology", "solve", "verify"],
)
def test_each_command_executes_only_the_modules_it_calls(argv, executed):
    # every command runs cli, its report front end, curve (which holds
    # ORDER_NAMES, the --order choices) and errors; only figure executes
    # figure, and only solve and verify execute toric and series
    out = _run(
        "import contextlib, io, sys, types\n"
        "from curvegkz import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, *{EXECUTED})\n"
    )
    common = ("cli", "curve", "errors", "report")
    assert out.split() == ["0", *sorted(f"curvegkz.{name}" for name in common + executed)]


def test_wrappers_installed_after_import_are_what_callers_reach():
    # the way a tracer installs itself: right after ``import curvegkz``, it
    # finds each function through sys.modules and replaces it in every
    # curvegkz namespace that holds it
    out = _run(
        "import contextlib, io, sys\n"
        "import curvegkz\n"
        "calls, wrappers = {}, {}\n"
        "targets = [('curve', 'rank_jumping_parameters'), ('cohomology', 'h1_support'),\n"
        "           ('series', 'solution_basis_at_point'), ('report', 'to_json')]\n"
        "modules = [m for n, m in list(sys.modules.items()) if n == 'curvegkz' or n.startswith('curvegkz.')]\n"
        "for module, fn_name in targets:\n"
        "    original = getattr(sys.modules[f'curvegkz.{module}'], fn_name)\n"
        "    def wrapper(*args, _original=original, _name=fn_name, **kwargs):\n"
        "        calls[_name] = calls.get(_name, 0) + 1\n"
        "        return _original(*args, **kwargs)\n"
        "    wrappers[fn_name] = wrapper\n"
        "    for mod in modules:\n"
        "        for attr, value in list(vars(mod).items()):\n"
        "            if value is original:\n"
        "                setattr(mod, attr, wrapper)\n"
        "served = all(getattr(curvegkz, name) is wrapper for name, wrapper in wrappers.items())\n"
        "from curvegkz import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['analyze', '-A', '0,1,3,4']), cli.main(['cohomology', '-A', '0,1,3,4']),\n"
        "             cli.main(['solve', '-A', '0,1,3,4', '-b', '1/2,1/3'])]\n"
        "print(served, *codes, *sorted(f'{name}={n}' for name, n in calls.items()))\n"
    )
    assert out.split() == [
        # the package serves each wrapper under its public name
        "True",
        "0",
        "0",
        "0",
        # analyze and cohomology each list the rank jumps once
        "h1_support=1",
        "rank_jumping_parameters=2",
        "solution_basis_at_point=1",
        "to_json=3",
    ]


# every module outside the package that a package module imports, at
# module level or inside a function
IMPORTED = (
    "argparse bisect cmath collections fractions functools importlib itertools json math numpy operator sys "
    "traceback"
).split()


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_package_imports_only_the_pinned_modules():
    found = set()
    for name in MODULES:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            found.update(n.split(".")[0] for n in _imported_names(ast.parse(fh.read(), filename=name)))
    assert sorted(found) == IMPORTED


def test_cli_import_loads_only_the_package():
    # with the pinned modules of the standard library loaded first, the
    # entry point adds only package modules: the JSON writer, say, brings
    # in no encoder of its own
    stdlib = [name for name in IMPORTED if name not in ("numpy", "importlib")] + ["importlib.util"]
    out = _run(
        f"import sys, {', '.join(stdlib)}\n"
        "before = set(sys.modules)\n"
        "import curvegkz.cli\n"
        "print(*sorted(n for n in set(sys.modules) - before if n.split('.')[0] != 'curvegkz'))\n"
    )
    assert out.split() == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_numpy_import(name):
    path = os.path.join(PACKAGE, name)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    lines = sorted(node.lineno for node in _module_level_imports(tree) if _imports_numpy(node))
    assert lines == [], f"{name} imports numpy at module level on lines {lines}"
