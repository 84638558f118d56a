"""Child-process side of the benchmark.  Each mode runs in a fresh
interpreter started by run.py, with PYTHONPATH pointing at the checkout's
src/ and the BLAS/OpenMP thread count pinned to 1.

    child.py cli UNITS [SPANS] -- ARGV   `curvegkz.cli.main(ARGV)`, then calibration units
    child.py scan IN OUT [SPANS]        beta-scan library session
    child.py probe IN OUT               relative errors for accuracy_digits
    child.py imports                    import times of numpy and curvegkz.cli

Modes that take SPANS install the tracer before the program runs and write
the spans to SPANS when it ends.  The timed modes run calibration units
(calib.py) in the same process right after the measured work.
"""

import hashlib
import json
import sys
import time
import traceback
from fractions import Fraction

# must come first: the import-time measurement needs a cold interpreter
if __name__ == "__main__" and sys.argv[1:2] == ["imports"]:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import curvegkz.cli  # noqa: F401

    t2 = time.perf_counter()
    print(json.dumps({"numpy": t1 - t0, "curvegkz": t2 - t1}))
    raise SystemExit(0)

import calib  # noqa: E402  (sibling modules; sys.path[0] is this directory)
import tracer  # noqa: E402


def _load_calls(path):
    with open(path, encoding="utf-8") as fh:
        return [
            (kind, tuple(exps), (Fraction(b[0]), Fraction(b[1])))
            for kind, exps, b in json.load(fh)
        ]


def run_cli(units_out, spans, argv):
    """The CLI job as `python -m curvegkz.cli ARGV` runs it, then the
    calibration units whose durations go to UNITS_OUT; run.py takes their
    time off the job's measured wall time."""
    tr = tracer.install(" ".join(argv)) if spans else None
    from curvegkz import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # exits 1 with the traceback, as the interpreter would
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        if tr is not None:
            tr.dump(spans)
    calib.write_units("tuple", units_out)
    return code


def run_scan(src, out, spans=None):
    """One library session: verify_report on every call, one after another.
    A raised exception is that call's failure; the session goes on.  The
    calibration units run after each call, outside its latency."""
    tr = tracer.install("beta-scan") if spans else None
    from curvegkz import CurveMatrix, report

    calls = _load_calls(src)
    results = []
    cal = []
    for kind, exps, beta in calls:
        A = CurveMatrix(list(exps))
        start = time.perf_counter()
        try:
            rep = report.verify_report(A, beta)
        except Exception as exc:  # recorded as this call's failure
            end = time.perf_counter()
            rep = None
            error = f"{type(exc).__name__}: {exc}"
        else:
            end = time.perf_counter()
            error = None
        entry = {"kind": kind, "latency_s": end - start, "error": error}
        if rep is not None:
            entry["status"] = rep["status"]
            entry["digest"] = hashlib.sha256(report.to_json(rep).encode()).hexdigest()
        results.append(entry)
        cal.append(calib.units("fraction"))
    if tr is not None:
        tr.dump(spans)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"cal_s": cal, "calls": results}, fh)


def run_probe(src, out):
    """Relative errors the program's numbers carry, outside any timing.

    For a generic point: the difference between extension_shift values on
    two rays of the same angular component, the midpoint ray verify uses and
    one a quarter of the way in.  Different rays use different quadrature
    nodes, so the difference bounds the quadrature error of the value.  For
    an integral point: the loop-sum-rule residual verify_report reports; a
    call that raises has no residual (beta-scan counts it as a failure).
    Writes the relative errors and both extension_shift values of each
    generic point, which run.py compares with reference.json.
    """
    from curvegkz import CurveMatrix, extension_shift, report, roots_and_components, sample_structured_point

    rels, values = [], []
    for kind, exps, beta in _load_calls(src):
        A = CurveMatrix(list(exps))
        if kind == "integral":
            try:
                rep = report.verify_report(A, beta)
            except Exception:  # a failure of the workload, not of the probe
                continue
            rels += [c["rel_residual"] for c in rep["checks"] if "rel_residual" in c]
            continue
        x = sample_structured_point(A, 0)
        rc = roots_and_components(A, x)
        lo, hi = rc.components[0]
        bc = (complex(float(beta[0])), complex(float(beta[1])))
        v1 = extension_shift(A, bc, x, rc.ray_angles[0])
        v2 = extension_shift(A, bc, x, lo + 0.25 * (hi - lo))
        rels.append(abs(v1 - v2) / max(abs(v1), abs(v2), 1e-300))
        values += [[v.real, v.imag] for v in (v1, v2)]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rels": rels, "values": values}, fh)


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        sep = rest.index("--") if "--" in rest else -1
        if sep not in (1, 2):
            raise SystemExit("usage: child.py cli UNITS [SPANS] -- ARGV...")
        units_out, spans = rest[0], rest[1] if sep == 2 else None
        return run_cli(units_out, spans, rest[sep + 1 :])
    if mode == "scan":
        run_scan(*rest)
        return 0
    if mode == "probe":
        run_probe(*rest)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
