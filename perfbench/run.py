#!/usr/bin/env python3
"""Benchmark of curvegkz, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick               # self-check, one job per workload
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

Run it from anywhere: paths are resolved from this file, and the program is
imported from the checkout's ``src/``.  Workloads (why each exists is in
BENCHMARK.json and design.json):

* ``exact-ladder``: CLI ``analyze``, ``cohomology`` and ``figure`` on a
  k-ladder of matrices, one fresh process per job;
* ``solve-wide``: CLI ``solve``/``verify`` on wide matrices, one fresh
  process per job, so the Groebner basis is computed cold each time;
* ``beta-scan``: one library session of ``report.verify_report`` calls at
  seeded parameters.

Every workload is a closed loop with one client: jobs run one after another
and at most one child process runs at a time.  Each child has its
BLAS/OpenMP thread count pinned to 1 (THREAD_PIN).

With ``--trace 0`` a run makes whole passes over the workload until the
next would end after ``--seconds``, and prints the
end-to-end metrics; times are each job's median over the passes, in
calibrated seconds (calib.py).
With ``--trace 1`` it makes one untraced and one traced pass and prints the
per-layer metrics.  The last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import calib
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DESIGN = HERE / "design.json"
REFERENCE = HERE / "reference.json"

THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_BUDGET_S = 170.0  # the whole run, measured passes included, must end within 180 s
SETUP_LAUNCHES = 7

LADDER = ("0,1,3,4", "0,1,4,5", "0,2,5,7")
EXACT_LADDER = [(cmd, "-A", m) for m in LADDER for cmd in ("analyze", "cohomology", "figure")]
SOLVE_WIDE = [
    ("solve", "-A", "0,1,2,3,4,5", "--order", "dn-first", "-b", "1/2,1"),
    ("verify", "-A", "0,2,3,5,7", "-b", "1/3,5/2"),
    ("solve", "-A", "0,3,4,7,9", "-b", "1,2"),
    ("solve", "-A", "0,1,2,5,8", "--order", "dn-first", "-b", "1/2,3"),
]
CLI_JOBS = {"exact-ladder": EXACT_LADDER, "solve-wide": SOLVE_WIDE}
QUICK_JOBS = {
    "exact-ladder": [("cohomology", "-A", "0,1,3,4")],
    "solve-wide": [("verify", "-A", "0,2,3,5,7", "-b", "1/3,5/2")],
}
WORKLOADS = ("exact-ladder", "solve-wide", "beta-scan")
SUBCOMMANDS = ("analyze", "cohomology", "figure", "solve", "verify")

SCAN_MATRICES = ((0, 2, 3), (0, 1, 3, 4), (0, 2, 5, 7))
SCAN_CALLS = {"generic": 36, "polar": 15, "integral": 9}
GENERIC_B1 = (-2, 40)
DENOMINATORS = (3, 5, 7, 11, 13)  # of the generic points, taken round-robin
POLAR_LEVEL_MAX = 30
POLAR_B1_MAX = 12
INTEGRAL_B1 = (-2, 12)
PROBE_SEED = 0
PROBE_GENERIC = 4
ACCURACY_FLOOR_DIGITS = 6.0
PROBE_VALUE_REL_TOL = 10.0**-ACCURACY_FLOOR_DIGITS

# what the package raises on purpose (the CLI maps these to exit 2 or 3);
# any other exception out of verify_report is a crash
DOCUMENTED_ERRORS = (
    "QuadratureError",
    "PolarLineError",
    "SeriesDenominatorError",
    "LogObstructionError",
    "MatrixValidationError",
    "AssertionError",
    "ValueError",
    "ZeroDivisionError",
    "ArithmeticError",
    "OverflowError",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --- inputs ----------------------------------------------------------------


def _semigroup(gens, upto):
    member = [False] * (upto + 1)
    member[0] = True
    for m in range(1, upto + 1):
        member[m] = any(g <= m and member[m - g] for g in gens)
    return member


def scan_calls(seed, counts=SCAN_CALLS):
    """Seeded parameters for beta-scan, as (kind, exponents, (b1, b2)).

    Each kind is a Latin hypercube: call j of m takes its first coordinate
    from the j-th of m equal slices of the kind's range and its second from
    slice pi(j) of a fixed permutation pi, and the matrices (and the
    denominators of generic points) are taken round-robin.  The seed places
    each call inside its cell and sets the call order, so every seed covers
    the same cells and the latency quantiles vary little between seeds.
    * generic: non-integral b1 in [-2, 40], b2 between -2 and k*b1 + 2, both
      pairings non-integral, so the value needs shift continuation;
    * polar: on exactly one polar line, b2 = N in the facet semigroup with
      N <= 30 and half-integral b1 in [-3/2, 23/2];
    * integral: integral b1 in [-2, 12] and b2 in [-2, 30], with both polar
      levels (b2 and k*b1 - b2) at most 30; these run the loop-sum rule.
    """
    rng = random.Random(seed)
    calls = []
    for kind, m in counts.items():
        slices = list(range(m))
        random.Random(f"{kind}:{m}").shuffle(slices)
        for j in range(m):
            exps = SCAN_MATRICES[j % len(SCAN_MATRICES)]
            k = exps[-1]
            u = (j + rng.random()) / m
            v = (slices[j] + rng.random()) / m
            if kind == "generic":
                q = DENOMINATORS[j % len(DENOMINATORS)]
                lo, hi = GENERIC_B1
                b1 = Fraction(math.floor(q * (lo + (hi - lo) * u)), q)
                if b1.denominator == 1:
                    b1 += Fraction(1, q)
                lo2, hi2 = sorted((-2.0, k * float(b1) + 2.0))
                b2 = Fraction(math.floor(q * (lo2 + (hi2 - lo2) * v)), q)
                while b2.denominator == 1 or (k * b1 - b2).denominator == 1:
                    b2 += Fraction(1, q)
            elif kind == "polar":
                member_k = _semigroup(exps[1:], POLAR_LEVEL_MAX)
                member_0 = _semigroup([k - e for e in exps[:-1]], 2 * k * POLAR_B1_MAX)
                levels = [N for N in range(POLAR_LEVEL_MAX + 1) if member_k[N]]
                b2 = Fraction(levels[int(u * len(levels))])
                b1 = Fraction(2 * math.floor(-2 + (POLAR_B1_MAX + 2) * v) + 1, 2)
                # one polar line only: step off the facet-k line if b1 lands on it
                while (k * b1 - b2).denominator == 1 and k * b1 >= b2 and member_0[int(k * b1 - b2)]:
                    b1 -= 1
            else:
                lo, hi = INTEGRAL_B1[0], min(INTEGRAL_B1[1], 2 * POLAR_LEVEL_MAX // k)
                b1 = lo + int(u * (hi - lo + 1))
                lo2 = max(-2, k * b1 - POLAR_LEVEL_MAX)
                b2 = lo2 + int(v * (POLAR_LEVEL_MAX - lo2 + 1))
                b1, b2 = Fraction(b1), Fraction(b2)
            calls.append((kind, exps, (b1, b2)))
    rng.shuffle(calls)
    return calls


def _write_calls(path, calls):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[kind, list(exps), [str(b[0]), str(b[1])]] for kind, exps, b in calls], fh)


# --- child processes -------------------------------------------------------


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("CURVEGKZ_TOL", "PYTHONPATH")}
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts one child at a time, waits for it with os.wait4 to read its
    own peak RSS, and kills it if the run's deadline passes."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, argv):
        """Returns (seconds, exit code, peak RSS in MB, stdout bytes, stderr bytes)."""
        self.count += 1
        out_path = self.work / f"child{self.count}.out"
        err_path = self.work / f"child{self.count}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before a child could start")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(f"child did not finish before the run deadline: {argv}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        stderr = err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr

    def python(self, *args):
        return self.run([sys.executable, *map(str, args)])


# --- passes ----------------------------------------------------------------


def _new_pass():
    return {
        "latencies": [],  # calibrated seconds, one per job or call
        "measured": [],  # the same latencies in measured seconds
        "subcommand_s": dict.fromkeys(SUBCOMMANDS, 0.0),
        "fails": [],  # one flag per job or call, in pass order
        "wrong": [],
        "rss_mb": 0.0,
        "digests": [],
        "layers": [],
    }


def _add(res, subcommand, measured, kind, units):
    """Record one latency, calibrated by the units its own process ran right
    after it (calib.py)."""
    seconds = calib.calibrated(measured, kind, units)
    res["latencies"].append(seconds)
    res["measured"].append(measured)
    res["subcommand_s"][subcommand] += seconds


def cli_pass(runner, jobs, reference, traced=False):
    """One pass over CLI jobs, each in a fresh process that runs
    `curvegkz.cli.main(job)` and then its calibration units; the units'
    time is taken off the measured wall time.  Outputs and spans are
    checked and analysed after the pass, so that work is not timed.
    The CLI exits 1 when a verify status is not pass, so a zero exit code
    covers that check.  Every reference job exited 0 when it was recorded,
    so a non-zero exit is a wrong result, not only a failed job."""
    res = _new_pass()
    outputs = []
    units_path = runner.work / "units.json"
    for i, job in enumerate(jobs):
        spans = runner.work / f"spans{i}.bin"
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(units_path)]
        if traced:
            argv.append(str(spans))
        seconds, code, rss, stdout, stderr = runner.run([*argv, "--", *job])
        try:
            with open(units_path, encoding="utf-8") as fh:
                units = json.load(fh)
            units_path.unlink()
        except OSError:
            raise BenchError(f"CLI child wrote no calibration units (exit {code}): {' '.join(job)}: {stderr.decode(errors='replace')[-500:]}")
        outputs.append((job, code, stdout, stderr, spans))
        _add(res, job[0], seconds - sum(units), "tuple", units)
        res["rss_mb"] = max(res["rss_mb"], rss)
    for job, code, stdout, stderr, spans in outputs:
        key = " ".join(job)
        ok = code == 0
        if not ok:
            res["wrong"].append(f"exit {code} where the reference job exited 0: {key}")
        elif reference.get(key) != {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}:
            ok = False
            res["wrong"].append(f"stdout differs from the reference: {key}")
        res["fails"].append(not ok)
        if not ok:
            print(f"job failed (exit {code}): {key}: {stderr.decode(errors='replace')[-300:]}", file=sys.stderr)
        if traced:
            res["layers"].append(tracer.analyse(spans))
            spans.unlink()
    return res


def scan_pass(runner, calls_path, traced=False):
    """One beta-scan session in a fresh process."""
    res = _new_pass()
    out = runner.work / "scan.json"
    args = [HERE / "child.py", "scan", calls_path, out]
    if traced:
        spans = runner.work / "scan-spans.bin"
        args.append(spans)
    _, code, rss, _, stderr = runner.python(*args)
    if code != 0:
        raise BenchError(f"beta-scan session exited {code}: {stderr.decode(errors='replace')[-500:]}")
    with open(out, encoding="utf-8") as fh:
        session = json.load(fh)
    out.unlink()
    res["rss_mb"] = rss
    for call, units in zip(session["calls"], session["cal_s"]):
        _add(res, "verify", call["latency_s"], "fraction", units)
        res["digests"].append(call.get("digest"))
        res["fails"].append(call["error"] is not None or call["status"] != "pass")
        if call["error"] is not None and call["error"].split(":")[0] not in DOCUMENTED_ERRORS:
            res["wrong"].append(f"verify_report crashed: {call['error']}")
    if traced:
        res["layers"].append(tracer.analyse(spans))
        spans.unlink()
    return res


class Workload:
    def __init__(self, name, seed, runner, quick=False):
        self.runner = runner
        if name == "beta-scan":
            counts = {kind: 1 for kind in SCAN_CALLS} if quick else SCAN_CALLS
            self.calls = scan_calls(seed, counts)
            self.calls_path = runner.work / "calls.json"
            _write_calls(self.calls_path, self.calls)
            self.jobs = None
        else:
            self.jobs = list(QUICK_JOBS[name] if quick else CLI_JOBS[name])
            random.Random(seed).shuffle(self.jobs)
            self.reference = _load_reference()["cli_stdout"]

    def one_pass(self, traced=False):
        if self.jobs is None:
            return scan_pass(self.runner, self.calls_path, traced)
        return cli_pass(self.runner, self.jobs, self.reference, traced)


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# --- metrics ---------------------------------------------------------------


def _quantile(values, p, half):
    """Mean of the sorted values between quantiles p - half and p + half.
    With 60 samples or fewer a single order statistic jumps across the gaps
    between the cheap and the costly calls from one seed to the next; the
    window average moves far less."""
    s = sorted(values)
    n = len(s) - 1
    return statistics.fmean(s[round((p - half) * n) : round(min(p + half, 1.0) * n) + 1])


def _digits(rel):
    return -math.log10(max(rel, 2.0**-52))


def setup_seconds(runner, launches=SETUP_LAUNCHES):
    """Median cold start over several launches, in calibrated seconds: a
    fresh interpreter runs `import curvegkz.cli`, then its calibration
    units, whose time is taken off the measured wall time."""
    units_path = runner.work / "units.json"
    code = (
        "import curvegkz.cli\n"
        f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
        f"import calib; calib.write_units('tuple', {str(units_path)!r})\n"
    )
    times = []
    for _ in range(launches):
        seconds, exit_code, _, _, stderr = runner.python("-c", code)
        if exit_code != 0:
            raise BenchError(f"import curvegkz.cli failed: {stderr.decode(errors='replace')[-500:]}")
        with open(units_path, encoding="utf-8") as fh:
            units = json.load(fh)
        units_path.unlink()
        times.append(calib.calibrated(seconds - sum(units), "tuple", units))
    return statistics.median(times)


def run_probe(runner):
    """The fixed probe: the first generic points and all integral points of
    the seed-0 beta-scan list.  Returns the relative errors and the
    extension_shift values (as [re, im] pairs) of child.run_probe."""
    calls = scan_calls(PROBE_SEED)
    probe = [c for c in calls if c[0] == "generic"][:PROBE_GENERIC] + [c for c in calls if c[0] == "integral"]
    path = runner.work / "probe-in.json"
    out = runner.work / "probe-out.json"
    _write_calls(path, probe)
    _, code, _, _, stderr = runner.python(HERE / "child.py", "probe", path, out)
    if code != 0:
        raise BenchError(f"accuracy probe failed: {stderr.decode(errors='replace')[-500:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def accuracy(runner):
    """Minimum correct digits over the fixed probe, and the probe values
    that depart from reference.json by more than the accuracy floor.  The
    probe is the same on every workload and seed, so the metric moves only
    when the program's numerics do.  Runs after the timed passes."""
    probe = run_probe(runner)
    wrong = []
    recorded = _load_reference()["probe_extension_shift"]
    if len(recorded) != len(probe["values"]):
        wrong.append(f"probe gave {len(probe['values'])} extension_shift values, reference.json has {len(recorded)}")
    for i, (got, want) in enumerate(zip(probe["values"], recorded)):
        rel = abs(complex(*got) - complex(*want)) / max(abs(complex(*want)), 1e-300)
        if rel > PROBE_VALUE_REL_TOL:
            wrong.append(f"probe extension_shift value {i} is {complex(*got)}, reference {complex(*want)} (relative {rel:.2e})")
    return min(_digits(r) for r in probe["rels"]), wrong


def counts(passes):
    """(attempted, failed) over the workload's distinct jobs or calls: every
    pass repeats the same ones, so counting each once keeps both numbers a
    function of the seed alone, not of how many passes fit in the run.  An
    operation counts as failed when it failed in any pass."""
    flags = list(zip(*(p["fails"] for p in passes)))
    return len(flags), sum(any(f) for f in flags)


def end_to_end(passes, setup_s, digits):
    """Timings use each job's (or call's) median calibrated latency over the
    run's passes."""
    typical = [statistics.median(samples) for samples in zip(*(p["latencies"] for p in passes))]
    attempted, failed = counts(passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "call_p50_s": _quantile(typical, 0.5, 0.25),
        "call_p90_s": _quantile(typical, 0.9, 0.05),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "success_frac": 1.0 - failed / attempted,
        "accuracy_digits": digits,
    }


def per_layer(plain, traced, imports):
    """Per-layer metrics of a traced pass, summed over its jobs; the
    subcommand times and failed_frac come from the untraced pass."""
    calls, self_s, counters = {}, {}, {}
    in_shift = 0
    for layer in traced["layers"]:
        for name, n in layer["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in layer["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, v in layer["counters"].items():
            counters[name] = max(counters.get(name, 0), v) if name.endswith("_max") else counters.get(name, 0) + v
        in_shift += layer["quadratures_in_shift"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in (
        "curve.rank_jumping_parameters",
        "curve.is_rank_jumping",
        "curve.in_NA",
        "curve.facet_semigroup",
        "cohomology.h1_support",
        "cohomology.in_ray_module",
        "cohomology.cocycle_generator",
        "toric.toric_ideal_groebner",
        "toric.standard_pairs",
        "toric.fake_exponents",
        "series.series_for_exponent",
        "series.polar_line_solution",
        "series.annihilation_check",
        "series.solution_basis_at_point",
        "analytic.extension_shift",
        "analytic.euler_mellin",
        "analytic.loops",
        "analytic.roots_and_components",
        "report.to_json",
        "report.glue",
        "figure.build_svg",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "curve.is_rank_jumping",
        "curve.in_NA",
        "cohomology.graded_dims",
        "cohomology.in_ray_module",
        "toric.toric_ideal_groebner",
        "series.series_for_exponent",
        "series.polar_line_solution",
        "analytic.extension_shift",
        "analytic.euler_mellin",
        "analytic.loops",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["curve.jump_yield"] = ratio(counters["curve.jumps"], calls.get("curve.is_rank_jumping", 0))
    m["toric.groebner_repeat_frac"] = ratio(counters["toric.repeats"], calls.get("toric.toric_ideal_groebner", 0))
    m["toric.basis_size"] = ratio(counters["toric.basis_generators"], counters["toric.distinct_bases"])
    m["series.terms_kept"] = counters["series.terms_kept"]
    m["series.discard_frac"] = ratio(counters["series.discarded"], calls.get("series.series_for_exponent", 0))
    m["series.polar_level_max"] = counters["series.polar_level_max"]
    m["series.residuals_checked"] = counters["series.residuals_checked"]
    m["series.basis_failures"] = counters["series.basis_failures"]
    m["analytic.quadratures_per_shift"] = ratio(in_shift, calls.get("analytic.extension_shift", 0))
    m["analytic.quadrature_errors"] = counters["analytic.quadrature_errors"]
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = plain["subcommand_s"][sub]
    m["failed_frac"] = sum(plain["fails"]) / len(plain["fails"])
    m["setup.import_numpy_s"] = imports["numpy"]
    m["setup.import_curvegkz_s"] = imports["curvegkz"]
    m["trace.overhead_frac"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0
    return m, calls


def import_seconds(runner, launches=5):
    samples = []
    for _ in range(launches):
        _, code, _, stdout, stderr = runner.python(HERE / "child.py", "imports")
        if code != 0:
            raise BenchError(f"import timing failed: {stderr.decode(errors='replace')[-500:]}")
        samples.append(json.loads(stdout))
    return {k: statistics.median(s[k] for s in samples) for k in ("numpy", "curvegkz")}


def _units():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}, spec


def _result(metrics, attempted, failed, correct):
    units, _ = _units()
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# --- modes -----------------------------------------------------------------


def measure(name, seed, seconds, trace, runner):
    workload = Workload(name, seed, runner)
    if trace:
        imports = import_seconds(runner)
        plain = workload.one_pass()
        traced = workload.one_pass(traced=True)
        metrics, calls = per_layer(plain, traced, imports)
        missing = [layer for layer in _required_layers(name) if not calls.get(layer)]
        if missing:
            print(f"warning: layers with no calls on {name}: {missing}", file=sys.stderr)
        passes = [plain, traced]
    else:
        setup_s = setup_seconds(runner)
        passes = []
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(workload.one_pass())
            elapsed = time.perf_counter() - begin
            if elapsed + (time.perf_counter() - t0) > seconds:
                break
        digits, probe_wrong = accuracy(runner)
        metrics = end_to_end(passes, setup_s, digits)
        scales = ", ".join(f"{sum(p['measured']):.3f} s x {sum(p['latencies']) / sum(p['measured']):.3f}" for p in passes)
        print(f"{len(passes)} passes; measured wall x calibration factor per pass: {scales}", file=sys.stderr)
    wrong = [w for p in passes for w in p["wrong"]]
    if not trace:
        wrong += probe_wrong
    digests = [p["digests"] for p in passes]
    if any(d != digests[0] for d in digests):
        wrong.append("verify_report output differs between passes over the same calls")
    if not trace and metrics["accuracy_digits"] < ACCURACY_FLOOR_DIGITS:
        wrong.append(f"accuracy {metrics['accuracy_digits']:.2f} digits is below {ACCURACY_FLOOR_DIGITS}")
    for w in wrong:
        print(f"incorrect: {w}", file=sys.stderr)
    return _result(metrics, *counts(passes), not wrong)


def _required_layers(workload):
    with open(DESIGN, encoding="utf-8") as fh:
        design = json.load(fh)
    return sorted(
        {m.rsplit(".", 1)[0] for m, d in design["layer_mapping"].items() if d["workload"] == workload}
        & set(tracer.LAYERS)
    )


def quick(runner):
    """Self-check: one job per workload, untraced and traced.  Fails when an
    emitted metric is not declared in BENCHMARK.json or a declared one is not
    emitted, when an output check fails, or when a layer the mapping names
    for a workload records no calls there."""
    _, spec = _units()
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        workload = Workload(name, 0, runner, quick=True)
        plain = workload.one_pass()
        traced = workload.one_pass(traced=True)
        e2e = end_to_end([plain], 0.0, 0.0)
        layers, calls = per_layer(plain, traced, {"numpy": 0.0, "curvegkz": 0.0})
        for emitted, declared, kind in ((e2e, e2e_names, "end_to_end"), (layers, layer_names, "per_layer")):
            for metric in sorted(set(emitted) - declared):
                problems.append(f"{name}: emitted metric {metric} is not in BENCHMARK.json {kind}")
            for metric in sorted(declared - set(emitted)):
                problems.append(f"{name}: BENCHMARK.json {kind} metric {metric} is not emitted")
        for layer in _required_layers(name):
            if not calls.get(layer):
                problems.append(f"{name}: layer {layer} recorded no calls")
        for p in (plain, traced):
            problems += [f"{name}: {w}" for w in p["wrong"]]
        print(f"{name}: {len(calls)} layers traced, {sum(1 for v in calls.values() if v)} with calls")
    for p in problems:
        print(f"FAIL {p}")
    print("quick self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def record_reference(runner):
    """Record the stdout digest of every CLI job and the probe's
    extension_shift values."""
    stdout_digests = {}
    for jobs in CLI_JOBS.values():
        for job in jobs:
            _, code, _, stdout, stderr = runner.run([sys.executable, "-m", "curvegkz.cli", *job])
            if code != 0:
                raise BenchError(f"reference job failed: {' '.join(job)}: {stderr.decode(errors='replace')}")
            stdout_digests[" ".join(job)] = {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}
    reference = {"cli_stdout": stdout_digests, "probe_extension_shift": run_probe(runner)["values"]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(stdout_digests)} stdout digests and {len(reference['probe_extension_shift'])} probe values to {REFERENCE}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not (args.quick or args.record_reference or args.workload):
        p.error("give --workload, --quick or --record-reference")
    if not (SRC / "curvegkz" / "cli.py").is_file():
        print(f"error: no curvegkz sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.quick:
            return quick(runner)
        if args.record_reference:
            return record_reference(runner)
        result = measure(args.workload, args.seed, args.seconds, args.trace, runner)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
