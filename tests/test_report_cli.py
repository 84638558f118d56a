"""Report payloads, JSON encoding, the SVG portrait, and the command line
surface with its exit-code contract:

    0 success, 1 verification failed, 2 invalid input or an unwritable
    --output, 3 numerical or internal failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import to_json_by_dumps

import curvegkz
from curvegkz import cli, report, series
from curvegkz.curve import CurveMatrix
from curvegkz.errors import QuadratureError
from curvegkz.figure import build_svg
from curvegkz.report import (
    SCHEMA,
    analyze_report,
    cohomology_report,
    solve_report,
    to_json,
    verify_report,
)

A0134 = CurveMatrix([0, 1, 3, 4])


def test_json_encoding_rules():
    payload = to_json({"f": Fraction(3, 4), "z": 1.5 - 2.0j, "t": (1, 2), "n": None})
    data = json.loads(payload)
    assert data == {"f": "3/4", "z": [1.5, -2.0], "t": [1, 2], "n": None}
    assert payload.endswith("\n")


def test_to_json_deterministic():
    a = to_json(analyze_report(A0134))
    b = to_json(analyze_report(A0134))
    assert a == b
    # keys are sorted so dict construction order cannot leak through
    assert json.dumps(json.loads(a), sort_keys=True, indent=2) + "\n" == a


Pair = namedtuple("Pair", "left right")


class Level(IntEnum):
    LOW = -1
    HIGH = 2


class Label(str):
    pass


class Ratio(Fraction):
    pass


special_floats = st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
json_floats = st.one_of(special_floats, st.floats())
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    json_floats,
    json_floats.map(np.float64),
    st.fractions(),
    st.builds(complex, json_floats, json_floats),
    st.text(max_size=6),
    # subclasses of the types the writer dispatches on exactly
    st.sampled_from(Level),
    st.text(max_size=6).map(Label),
    st.fractions().map(lambda q: Ratio(q.numerator, q.denominator)),
)
# string keys, and int keys whose string order is not their numeric order
json_keys = st.one_of(st.text(max_size=3), st.integers(-12, 12))
json_reports = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(json_keys, inner, max_size=4),
        st.dictionaries(json_keys, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(json_reports)
@example(
    {
        9: [Fraction(-3, 4), Fraction(-5), Fraction(6)],
        10: (complex(-0.0, math.nan), complex(math.inf, -math.inf), np.float64(-0.0)),
        "n\u00e9\u2028\x00\x1f\"\\": ["\u00e9t\u00e9\n\t", "\ud83d\ude00", True, None, False],
        "empty": [(), [], {}, Pair([], {})],
        "floats": [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf],
        "subclasses": [Level.HIGH, Label("\u00e9\n"), OrderedDict([(2, Ratio(1, 3)), ("a", Level.LOW)]), Ratio(-7, 2)],
    }
)
def test_to_json_is_json_dumps(report):
    # the one-pass writer gives the bytes of json.dumps on the encoded copy
    assert to_json(report) == to_json_by_dumps(report)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", np.int64(3), object()], ids=["set", "bytes", "int64", "object"])
def test_to_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        to_json({"a": [1, {"b": value}]})
    with pytest.raises(TypeError) as theirs:
        to_json_by_dumps({"a": [1, {"b": value}]})
    assert str(ours.value) == str(theirs.value)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REFERENCE_JOBS = json.loads(REFERENCE.read_text(encoding="utf-8"))["cli_stdout"]


@pytest.mark.parametrize(
    "job",
    sorted(REFERENCE_JOBS) + ["solve -A 0,2,3,5,8,11 -b 1/2,1/3", "solve -A 0,1,2,3,4,5,6 -b 1/2,1/3"],
)
def test_cli_reports_are_json_dumps(job, monkeypatch, capsys):
    # every report of the benchmark's CLI jobs (a figure as its JSON form)
    # and of two wide solves prints as json.dumps prints it
    reports = []

    def recording(report):
        reports.append(report)
        return to_json(report)

    monkeypatch.setattr(cli, "to_json", recording)
    argv = job.split(" ") + (["--format", "json"] if job.startswith("figure") else [])
    assert cli.main(argv) == 0
    assert len(reports) == 1
    assert capsys.readouterr().out == to_json_by_dumps(reports[0])


def test_analyze_report_content():
    rep = analyze_report(A0134)
    assert rep["schema"] == SCHEMA
    assert rep["matrix"] == {"exponents": [0, 1, 3, 4], "n": 4, "k": 4}
    assert rep["exceptional_parameters"] == [[1, 2]]
    assert rep["rank"] == {"generic": 4, "exceptional": 5}
    assert rep["facets"]["facet-0"]["generators"] == [1, 3, 4]
    assert rep["primitive_relations"] == {"1": [3, 4, 1], "2": [1, 4, 3]}
    assert rep["lines"]["facet-0"]["polar"] == list(range(0, 9))
    assert len(rep["search_box"]) == 4


def test_solve_report_at_jump():
    rep = solve_report(A0134, (Fraction(1), Fraction(2)))
    assert rep["rank"] == 5
    assert len(rep["basis"]) == 5
    assert len(rep["discarded"]) == 1
    assert rep["discarded"][0]["top"] == [0, 0, 2, 0]
    kinds = sorted(e["kind"] for e in rep["basis"])
    assert kinds == ["finite", "finite", "series", "series", "series"]
    encoded = json.loads(to_json(rep))
    assert encoded["beta"] == ["1", "2"]


def test_verify_report_pass_at_jump():
    rep = verify_report(A0134, (Fraction(1), Fraction(2)))
    assert rep["status"] == "pass"
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["basis-count"]["status"] == "pass"
    assert by_name["series-annihilation"]["status"] == "pass"
    assert by_name["finite-line-annihilation"]["status"] == "pass"
    assert by_name["coincidence-structure"]["status"] == "pass"
    assert by_name["coincidence-structure"]["verdict"] == "independent"
    # beta sits on polar lines, so the shift consistency check cannot run
    assert by_name["shift-order-independence"]["status"] == "skipped"
    assert by_name["loop-sum-rule"]["status"] == "pass"


def test_verify_report_generic_point_runs_numeric_checks():
    rep = verify_report(A0134, (Fraction(-1), Fraction(-2)))
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["shift-order-independence"]["status"] == "pass"
    assert by_name["finite-line-annihilation"]["status"] == "skipped"
    assert by_name["coincidence-structure"]["status"] == "skipped"
    assert rep["status"] == "pass"
    encoded = json.loads(to_json(rep))
    value = {c["name"]: c for c in encoded["checks"]}["shift-order-independence"]["value"]
    assert isinstance(value, list) and len(value) == 2


def test_verify_report_samples_a_point_only_for_a_numeric_check(monkeypatch):
    # at a non-integral point on a polar line both numeric checks are
    # skipped, and no coefficient point is sampled for them
    def unreachable(A, seed):
        raise AssertionError("a point was sampled for no check")

    monkeypatch.setattr(report.analytic, "sample_structured_point", unreachable)
    rep = verify_report(A0134, (Fraction(1, 2), Fraction(3)))
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["shift-order-independence"]["status"] == "skipped"
    assert by_name["loop-sum-rule"]["status"] == "skipped"
    assert rep["status"] == "pass"


def test_verify_report_zero_tolerance_fails():
    rep = verify_report(A0134, (Fraction(-1), Fraction(-2)), tol=0.0)
    assert rep["status"] == "fail"


def test_cohomology_report():
    rep = cohomology_report(CurveMatrix([0, 1, 4, 5]))
    assert rep["support"] == [[1, 2], [1, 3], [2, 3], [2, 7]]
    assert rep["matches_rank_jumps"] is True
    assert all(d["generator"]["certified"] for d in rep["degrees"])
    assert all(d["dims"] == [0, 1, 0] for d in rep["degrees"])


def test_svg_shape():
    svg = build_svg(A0134, window=5)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    # one gold marker for the single exceptional parameter, a background
    # rectangle plus one marker square per column
    assert svg.count("<circle") == 1
    assert svg.count("<rect") == 5
    assert build_svg(A0134, window=5) == svg
    # no exceptional parameters at all for 0,2,3
    assert build_svg(CurveMatrix([0, 2, 3]), window=5).count("<circle") == 0


def test_cli_analyze_stdout(capsys):
    rc = cli.main(["analyze", "-A", "0,1,3,4"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == SCHEMA and data["command"] == "analyze"


def test_cli_solve_and_output_file(tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc = cli.main(["solve", "-A", "0,1,3,4", "-b", "1,2", "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text())
    assert data["command"] == "solve" and data["rank"] == 5


def test_cli_verify_exit_codes(capsys):
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "1,2"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "-A", "0,1,3,4", "--beta=-1,-2", "--tol", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "matrix", ["0,2,4", "1,3,4", "0,4,3", "0", "0,x,3"]
)
def test_cli_invalid_matrix_is_exit_2(matrix, capsys):
    assert cli.main(["analyze", "-A", matrix]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_invalid_beta_is_exit_2(capsys):
    assert cli.main(["solve", "-A", "0,1,3,4", "-b", "1,2,3"]) == 2
    capsys.readouterr()
    assert cli.main(["solve", "-A", "0,1,3,4", "-b", "a,b"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_zero_denominator_beta_is_exit_2(command, capsys):
    # a zero denominator is bad input, not a numerical failure (exit 3)
    assert cli.main([command, "-A", "0,1,3,4", "-b", "1/2,1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-b/--beta" in captured.err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_bad_tol_is_exit_2(tol, capsys):
    # a tolerance no check can be held to is bad input, not a failed check
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "1/2,1/3", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and at least 0" in captured.err


@pytest.mark.parametrize("raw", ["abc", "-1", "nan"])
def test_cli_bad_env_tolerance_is_exit_2(raw, monkeypatch, capsys):
    monkeypatch.setenv("CURVEGKZ_TOL", raw)
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "1/2,1/3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CURVEGKZ_TOL must be" in captured.err


@pytest.mark.parametrize(
    "command,window",
    [("analyze", -1), ("analyze", 10001), ("analyze", 100000000),
     ("figure", 0), ("figure", -3), ("figure", 10001)],
)
def test_cli_window_out_of_range_is_exit_2(command, window, capsys):
    assert cli.main([command, "-A", "0,1,3,4", f"--window={window}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--window" in captured.err


def test_cli_negative_bound_is_exit_2(capsys):
    assert cli.main(["solve", "-A", "0,1,3,4", "-b", "1/2,1/3", "--bound", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound" in captured.err
    # bound 0 keeps the leading monomial of each series
    assert cli.main(["solve", "-A", "0,1,3,4", "-b", "1/2,1/3", "--bound", "0"]) == 0
    basis = json.loads(capsys.readouterr().out)["basis"]
    assert [len(element["monomials"]) for element in basis] == [1, 1, 1, 1]


def test_cli_huge_bound_is_exit_2(monkeypatch, capsys):
    # a bound whose step ball holds 2e16 points is rejected before any
    # series work, with a message naming the limit
    bounds = []
    monkeypatch.setattr(cli, "solve_report", lambda A, beta, order, bound: bounds.append(bound) or {})
    assert cli.main(["solve", "-A", "0,1,3,4", "-b", "1/2,1/3", "--bound", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"limit of {cli.STEP_BALL_MAX}" in captured.err
    assert bounds == []
    # the default bound is never rejected, though its ball on six columns
    # holds 2.6e6 points; above the default, a small ball is accepted
    A = CurveMatrix([0, 2, 3, 5, 8, 11])
    assert cli._step_ball(A, series.default_step_bound(A)) > cli.STEP_BALL_MAX
    assert cli.main(["solve", "-A", "0,2,3,5,8,11", "-b", "1/2,1/3", "--bound", "44"]) == 0
    assert cli._step_ball(A0134, 256) == 131585
    assert cli.main(["solve", "-A", "0,1,3,4", "-b", "1/2,1/3", "--bound", "256"]) == 0
    assert bounds == [44, 256]


def test_cli_negative_seed_is_exit_2(monkeypatch, capsys):
    # rejected before any check runs, with a message naming the option
    def unreachable(*args, **kwargs):
        raise AssertionError("verify_report ran with a negative seed")

    monkeypatch.setattr(cli, "verify_report", unreachable)
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "1/2,1/3", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be at least 0, got -1" in captured.err


def test_solve_report_rejects_negative_bound():
    # a library call gets the invalid-input error the CLI maps to exit 2
    with pytest.raises(ValueError, match="bound must be at least 0, got -5"):
        solve_report(A0134, (Fraction(1, 2), Fraction(1, 3)), bound=-5)


def test_format_is_a_figure_option_only(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", "-A", "0,1,3,4", "--format", "json"])
    assert info.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_cli_numeric_failure_is_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise QuadratureError("synthetic quadrature failure")

    monkeypatch.setattr(cli, "verify_report", boom)
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "1,2"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_verify_builds_each_solution_once(monkeypatch):
    # verify checks the series and the line solutions that the basis
    # assembly built, the coincidence check at a crossing included; it
    # builds none of its own
    built = {"series_for_exponent": [], "polar_line_solution": []}

    def counting(name):
        original = getattr(series, name)

        def wrapper(*args, **kwargs):
            built[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    # a module that imported a builder by name would bypass a patch of series alone
    for name in built:
        wrapper = counting(name)
        for module in (series, report):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    rep = verify_report(A0134, (Fraction(1, 2), Fraction(3)))
    by_name = {c["name"]: c for c in rep["checks"]}
    assert (by_name["basis-count"]["count"], by_name["basis-count"]["rank"]) == (4, 4)
    assert by_name["finite-line-annihilation"]["lines"] == [["facet-0", 3]]
    tops = [args[1].pair.r for args in built["series_for_exponent"]]
    assert len(tops) == 4 and len(set(tops)) == 4
    assert built["polar_line_solution"] == [(A0134, "facet-0", 3)]

    # (1, 2) is the crossing of the facet-0 line of level 2 and the facet-k
    # line of level 2
    built["polar_line_solution"].clear()
    rep = verify_report(A0134, (Fraction(1), Fraction(2)))
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["coincidence-structure"]["status"] == "pass"
    assert sorted(built["polar_line_solution"]) == [(A0134, "facet-0", 2), (A0134, "facet-k", 2)]


def _python(args, optimize):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvegkz.__file__)))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _run_cli(argv, optimize):
    return _python(["-m", "curvegkz.cli", *argv], optimize)


def test_basis_count_check_survives_optimized_mode():
    # on 0,2,3 the point (4, -2) gets one solution more than its rank;
    # python -O strips asserts, so the count check must not be one
    argv = ["-A", "0,2,3", "--beta=4,-2"]
    verify = [_run_cli(["verify", *argv], optimize) for optimize in (False, True)]
    for proc in verify:
        assert proc.returncode == 1, proc.stderr
        checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
        assert checks["basis-count"]["status"] == "fail"
        assert checks["basis-count"]["reason"].startswith("assembled 4 solutions")
    assert verify[0].stdout == verify[1].stdout
    for optimize in (False, True):
        proc = _run_cli(["solve", *argv], optimize)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: assembled 4 solutions")


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_cli_resource_failure_is_exit_3(error, monkeypatch, capsys):
    # running out of stack or memory is an internal failure, not a failed
    # check (exit 1)
    def boom(*args, **kwargs):
        raise error("synthetic resource failure")

    monkeypatch.setattr(cli, "verify_report", boom)
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "1,2"]) == 3
    assert "numerical failure: synthetic resource failure" in capsys.readouterr().err


def test_cli_overflow_is_exit_3(capsys):
    # an overflowing shift continuation is a numerical failure: no NaN in
    # stdout, which would not be valid JSON, and no failed check
    assert cli.main(["verify", "-A", "0,1", "-b", "20000.5,0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: shift continuation over 20003 levels" in captured.err


def test_cli_huge_shift_plan_is_exit_3(capsys):
    # the shift plan of a continuation grows like b1^2; this one would need
    # billions of shifts, so it stops at the budget with a numerical failure
    # instead of planning for minutes
    assert cli.main(["verify", "-A", "0,1,3,4", "-b", "100001/2,1/3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "numerical failure: the shift plan at beta = ((50000.5+0j), (0.3333333333333333+0j)) "
        "(facet-0-first) holds more than 1000000 shifts"
    )


@pytest.mark.parametrize(
    "error, code, line",
    [(MemoryError, 3, "numerical failure: MemoryError\n"), (ValueError, 2, "error: ValueError\n")],
)
def test_cli_failure_without_message_names_its_type(error, code, line, monkeypatch, capsys):
    # a bare MemoryError() has an empty message; the reason is its type name
    def boom(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "analyze_report", boom)
    assert cli.main(["analyze", "-A", "0,1,3,4"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_cli_unwritable_output_is_exit_2(optimize, tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = _run_cli(["analyze", "-A", "0,1,3,4", "--output", str(target)], optimize)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_cli_internal_error_is_exit_3(optimize):
    # an exception no handler names is a defect, not a failed check (exit 1)
    code = (
        "from curvegkz import cli\n"
        "def boom(*args, **kwargs):\n"
        "    raise TypeError('synthetic defect')\n"
        "cli.solve_report = boom\n"
        "raise SystemExit(cli.main(['solve', '-A', '0,1,3,4', '-b', '1/2,1/3']))\n"
    )
    proc = _python(["-c", code], optimize)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: TypeError: synthetic defect\n")


def test_cli_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("CURVEGKZ_TOL", "0")
    assert cli.main(["verify", "-A", "0,1,3,4", "--beta=-1,-2"]) == 1
    capsys.readouterr()


def test_cli_figure_formats(capsys):
    assert cli.main(["figure", "-A", "0,1,3,4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg ")
    assert cli.main(["figure", "-A", "0,1,3,4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "figure" and data["svg"].startswith("<svg ")


def test_cli_module_and_console_entry():
    # the module half runs the checkout's src, as every other CLI child does
    proc = _run_cli(["analyze", "-A", "0,1,3,4"], False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "analyze"
    exe = shutil.which("curvegkz")
    assert exe is not None
    proc2 = subprocess.run(
        [exe, "analyze", "-A", "0,1,3,4"], capture_output=True, text=True, timeout=120
    )
    assert proc2.returncode == 0
    assert proc2.stdout == proc.stdout
