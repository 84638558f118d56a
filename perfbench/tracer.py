"""Span tracer for curvegkz, installed from outside the package.

``install`` replaces each traced public function by a wrapper in every
``curvegkz`` module namespace that holds it: ``report``, ``figure`` and
``cohomology`` bind names with ``from .curve import ...``, and ``analytic``
reaches ``euler_mellin`` through its own globals, so patching only the
defining module would miss those calls.

Each wrapper records one span (name, start, end, parent span) and, for a
few layers, a work counter taken from the arguments or the result.  Spans
stay in memory in compact arrays and are written once, by ``Tracer.dump``.
``analyse`` turns a dump into per-layer self times, call counts and
counters; self time is a span's duration minus the time its direct child
spans cover.
"""

import array
import functools
import json
import sys
import time

# span name -> (module, public functions recorded under that name)
LAYERS = {
    "curve.rank_jumping_parameters": ("curve", ("rank_jumping_parameters",)),
    "curve.is_rank_jumping": ("curve", ("is_rank_jumping",)),
    "curve.in_NA": ("curve", ("in_NA",)),
    "curve.facet_semigroup": ("curve", ("facet_semigroup",)),
    "cohomology.h1_support": ("cohomology", ("h1_support",)),
    "cohomology.graded_dims": ("cohomology", ("graded_dims",)),
    "cohomology.in_ray_module": ("cohomology", ("in_ray_module",)),
    "cohomology.cocycle_generator": ("cohomology", ("cocycle_generator",)),
    "toric.toric_ideal_groebner": ("toric", ("toric_ideal_groebner",)),
    "toric.standard_pairs": ("toric", ("standard_pairs",)),
    "toric.fake_exponents": ("toric", ("fake_exponents",)),
    "series.series_for_exponent": ("series", ("series_for_exponent",)),
    "series.polar_line_solution": ("series", ("polar_line_solution",)),
    "series.annihilation_check": ("series", ("annihilation_check",)),
    "series.solution_basis_at_point": ("series", ("solution_basis_at_point",)),
    "analytic.extension_shift": ("analytic", ("extension_shift",)),
    "analytic.euler_mellin": ("analytic", ("euler_mellin",)),
    "analytic.loops": ("analytic", ("residue_integral", "residue_at_zero", "residue_at_infinity")),
    "analytic.roots_and_components": ("analytic", ("roots_and_components",)),
    "report.to_json": ("report", ("to_json",)),
    "report.glue": ("report", ("analyze_report", "solve_report", "verify_report", "cohomology_report")),
    "figure.build_svg": ("figure", ("build_svg",)),
}

ROOT = "job"


class Tracer:
    def __init__(self, job):
        self.job = job
        self.names = [ROOT]
        self.counters = {
            "curve.jumps": 0,
            "toric.repeats": 0,
            "toric.distinct_bases": 0,
            "toric.basis_generators": 0,
            "series.terms_kept": 0,
            "series.discarded": 0,
            "series.polar_level_max": 0,
            "series.residuals_checked": 0,
            "series.basis_failures": 0,
            "analytic.quadrature_errors": 0,
        }
        self._groebner_seen = set()
        self._next = 1
        self._stack = [0]
        self.ids = array.array("q")
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._root_start = time.perf_counter()

    def _observe(self, name, args, kwargs, result, exc):
        c = self.counters
        if exc is not None:
            if name == "series.series_for_exponent" and type(exc).__name__ == "SeriesDenominatorError":
                c["series.discarded"] += 1
            elif name == "series.solution_basis_at_point" and isinstance(exc, Exception):
                c["series.basis_failures"] += 1
            if (
                name.startswith("analytic.")
                and type(exc).__name__ == "QuadratureError"
                and not getattr(exc, "_perfbench_counted", False)
            ):
                exc._perfbench_counted = True
                c["analytic.quadrature_errors"] += 1
            return
        if name == "curve.is_rank_jumping":
            c["curve.jumps"] += bool(result)
        elif name == "toric.toric_ideal_groebner":
            A, order = args[0], args[1] if len(args) > 1 else kwargs["order"]
            bound = args[2] if len(args) > 2 else kwargs.get("degree_bound")
            key = (tuple(A.exponents), getattr(order, "cheap", order), bound)
            if key in self._groebner_seen:
                c["toric.repeats"] += 1
            else:
                self._groebner_seen.add(key)
                c["toric.distinct_bases"] += 1
                c["toric.basis_generators"] += len(result.generators)
        elif name == "series.series_for_exponent":
            c["series.terms_kept"] += len(result.terms)
        elif name == "series.polar_line_solution":
            level = args[2] if len(args) > 2 else kwargs["N"]
            c["series.polar_level_max"] = max(c["series.polar_level_max"], int(level))
        elif name == "series.annihilation_check":
            c["series.residuals_checked"] += result.checked

    def wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        observe = self._observe
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, name_id, parent, start, perf())
                observe(name, args, kwargs, None, exc)
                raise
            self._close(sid, name_id, parent, start, perf())
            observe(name, args, kwargs, result, None)
            return result

        return wrapper

    def _close(self, sid, name_id, parent, start, end):
        self._stack.pop()
        self.ids.append(sid)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)

    def dump(self, path):
        """Close the root span and write the spans as one JSON header line
        followed by the five span arrays in binary."""
        self._close(0, 0, -1, self._root_start, time.perf_counter())
        header = {
            "job": self.job,
            "names": self.names,
            "spans": len(self.ids),
            "counters": self.counters,
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def install(job):
    """Wrap every function in LAYERS in every loaded curvegkz namespace and
    return the tracer that records their spans."""
    import curvegkz  # noqa: F401  (loads every submodule)

    tracer = Tracer(job)
    modules = [m for n, m in list(sys.modules.items()) if n == "curvegkz" or n.startswith("curvegkz.")]
    for name, (module, functions) in LAYERS.items():
        home = sys.modules[f"curvegkz.{module}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return tracer


def load(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("q", "i", "q", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays.append(arr)
    return header, arrays


def analyse(path):
    """Per-name call counts and self times of one dump, plus its counters
    and the number of euler_mellin calls made inside extension_shift."""
    header, (ids, name_ids, parents, starts, ends) = load(path)
    names = header["names"]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    covered = {}
    name_of = {}
    parent_of = {}
    # spans close children-first, so a span's children are all covered
    # by the time the span itself is reached
    for sid, nid, parent, start, end in zip(ids, name_ids, parents, starts, ends):
        duration = end - start
        name = names[nid]
        calls[name] += 1
        self_s[name] += duration - covered.pop(sid, 0.0)
        covered[parent] = covered.get(parent, 0.0) + duration
        name_of[sid] = name
        parent_of[sid] = parent
    in_shift = 0
    for sid, name in name_of.items():
        if name != "analytic.euler_mellin":
            continue
        p = parent_of[sid]
        while p > 0 and name_of[p] != "analytic.extension_shift":
            p = parent_of[p]
        in_shift += p > 0
    calls.pop(ROOT)
    self_s.pop(ROOT)
    return {
        "calls": calls,
        "self_s": self_s,
        "counters": header["counters"],
        "quadratures_in_shift": in_shift,
    }
