"""Calibration units: fixed slices of pure-Python work of the kinds
curvegkz does, run inside the same process as the work they calibrate,
right after it.

The machine this benchmark was designed on shares its cores with other
tenants, and its speed drifts by up to 1.7x over minutes.  Times are
therefore reported in calibrated seconds: each job's (or call's) measured
seconds multiplied by the unit's reference duration over the median
duration of the units its own process ran right after it.

Where the units run decides whether they track the program.  Measured on
that machine over ten minutes of alternating jobs, units timed in the
benchmark's parent process between children did not track the children
(correlation 0.01 with the job's slowdown), while units timed inside the
child after its job did: per-pass correlation 0.86 to 0.98.  The unit kind
matters too: the tuple/dictionary unit slowed down 0.9 to 1.0 times as much
as the CLI jobs and the Fraction unit 0.5 to 0.8 times, while on the
beta-scan session the Fraction unit tracked best (0.87 times).
"""

import gc
import json
import statistics
import time
from fractions import Fraction


def fraction_unit():
    """Rational arithmetic on a small working set, like the quadrature
    session's exact bookkeeping; about 8 ms."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1)


def tuple_unit():
    """Tuple-keyed dictionary counting and a sort over a working set of a few
    MB, like Buchberger and the box sweeps of the CLI jobs; about 50 ms."""
    counts = {}
    for t in [(i % 97, i % 89, i * 7 % 101) for i in range(30000)]:
        counts[t] = counts.get(t, 0) + 1
    sorted(counts.items())


# kind -> (unit, units run after each job or call, median duration of one
# unit on the design machine: 2 vCPUs, Python 3.11.7)
KINDS = {
    "fraction": (fraction_unit, 5, 0.0075),
    "tuple": (tuple_unit, 4, 0.045),
}


def units(kind):
    """Durations of the units of KIND that follow one job or call, run with
    the garbage collector off so that the live heap of the process they
    share cannot set their speed."""
    fn, n, _ = KINDS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        durations = []
        for _ in range(n):
            start = time.perf_counter()
            fn()
            durations.append(time.perf_counter() - start)
        return durations
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds, kind, durations):
    """Measured seconds scaled by the reference duration of a KIND unit over
    the median of DURATIONS."""
    return seconds * KINDS[kind][2] / statistics.median(durations)


def write_units(kind, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(units(kind), fh)
