"""Command line interface.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input or
an --output that cannot be written, 3 numerical or internal failure.  The
tolerance of the numerical checks is --tol, 1e-8 by default, and must be
finite and at least 0.  Stdout and the exit code depend on the arguments
alone: no environment variable is read.
"""

import argparse
import math
import sys
from fractions import Fraction

from . import figure, series
from .curve import ORDER_NAMES, CurveMatrix
from .errors import QuadratureError
from .report import (
    SCHEMA,
    analyze_report,
    cohomology_report,
    solve_report,
    to_json,
    verify_report,
)

# largest --window accepted; the analyze and figure work grows with it
WINDOW_MAX = 10000
# largest step ball of an explicit --bound above the default; the default
# bound is accepted whatever its ball
STEP_BALL_MAX = 10**6


def _parse_matrix(text):
    try:
        values = [int(t) for t in text.replace(" ", "").split(",") if t != ""]
    except ValueError as err:
        raise ValueError(f"matrix entries must be integers: {err}") from None
    return CurveMatrix(values)


def _parse_beta(text):
    parts = [t for t in text.replace(" ", "").split(",") if t != ""]
    if len(parts) != 2:
        raise ValueError(f"-b/--beta must have two components, got {text!r}")
    try:
        return (Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError):
        # a zero denominator is bad input, not an arithmetic failure
        raise ValueError(
            f"-b/--beta must be two rationals with nonzero denominators, got {text!r}"
        ) from None


def _step_ball(A, bound):
    """Number of points u of Z^(n-2) with |u|_1 <= bound.  The middle
    coordinates of the kernel steps a series keeps at this bound lie among
    them, so the ball bounds the steps kept."""
    d = A.n - 2
    return sum(2**i * math.comb(d, i) * math.comb(bound, i) for i in range(d + 1))


def _reason(err):
    """The message of an error, or its type name when it has none (a bare
    MemoryError), so that a failure never prints an empty reason."""
    return str(err) or type(err).__name__


def _build_parser():
    p = argparse.ArgumentParser(
        prog="curvegkz",
        description="Exact and numerical analysis of two-row hypergeometric systems on monomial curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-A", "--matrix", required=True, help="comma separated exponents, e.g. 0,1,3,4")
        sp.add_argument("--output", help="write to this path instead of stdout")

    sp = sub.add_parser("analyze", help="curve invariants, lines, exceptional parameters")
    common(sp)
    sp.add_argument("--window", type=int, default=8)

    sp = sub.add_parser("solve", help="solution basis at a parameter point")
    common(sp)
    sp.add_argument("-b", "--beta", required=True, help="comma separated rationals, e.g. 1/2,1")
    sp.add_argument("--order", choices=list(ORDER_NAMES), default="d1-first")
    sp.add_argument("--bound", type=int, default=None, help="series truncation bound")

    sp = sub.add_parser("verify", help="run exact and numerical checks at a parameter point")
    common(sp)
    sp.add_argument("-b", "--beta", required=True)
    sp.add_argument("--order", choices=list(ORDER_NAMES), default="d1-first")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("cohomology", help="graded local cohomology support and generators")
    common(sp)

    sp = sub.add_parser("figure", help="parameter plane portrait")
    common(sp)
    sp.add_argument("--window", type=int, default=5)
    sp.add_argument("--format", choices=["svg", "json"], default="svg")

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as err:
        # a failure no handler of _run names is a defect or a broken
        # install (a submodule is first imported here), not a failed check;
        # traceback is imported only then, as it costs every cold start
        import traceback

        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return 3


def _run(args):
    try:
        A = _parse_matrix(args.matrix)
        if args.command in ("analyze", "figure"):
            # the figure divides by the window, so it needs at least 1
            lowest = 0 if args.command == "analyze" else 1
            if not lowest <= args.window <= WINDOW_MAX:
                raise ValueError(f"--window must lie in [{lowest}, {WINDOW_MAX}], got {args.window}")
        if args.command == "analyze":
            payload = to_json(analyze_report(A, window=args.window))
        elif args.command == "solve":
            bound = args.bound
            if bound is not None and bound < 0:
                raise ValueError(f"--bound must be at least 0, got {bound}")
            if bound is not None and bound > series.default_step_bound(A) and _step_ball(A, bound) > STEP_BALL_MAX:
                raise ValueError(f"--bound {bound}: its step ball exceeds the limit of {STEP_BALL_MAX} points")
            beta = _parse_beta(args.beta)
            payload = to_json(solve_report(A, beta, order=args.order, bound=bound))
        elif args.command == "verify":
            if args.seed < 0:
                raise ValueError(f"--seed must be at least 0, got {args.seed}")
            beta = _parse_beta(args.beta)
            # a tolerance of 0 demands exact agreement of the numerical values
            if not (math.isfinite(args.tol) and args.tol >= 0.0):
                raise ValueError(f"--tol must be finite and at least 0, got {args.tol}")
            report = verify_report(A, beta, tol=args.tol, seed=args.seed, order=args.order)
            payload = to_json(report)
        elif args.command == "cohomology":
            payload = to_json(cohomology_report(A))
        else:
            svg = figure.build_svg(A, window=args.window)
            if args.format == "json":
                payload = to_json({"schema": SCHEMA, "command": "figure", "svg": svg})
            else:
                payload = svg
    except (
        QuadratureError,
        ArithmeticError,
        AssertionError,
        RecursionError,
        MemoryError,
    ) as err:
        print(f"numerical failure: {_reason(err)}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {_reason(err)}", file=sys.stderr)
        return 2

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"error: cannot write {args.output}: {err.strerror or err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)

    if args.command == "verify" and report["status"] != "pass":
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
