"""Command-line interface: every operation as a subcommand.

Output on stdout is deterministic (no timestamps); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification mismatch, 2 usage error
(or a ValueError), 3 internal or numeric failure (an ArithmeticError,
the library's one family of numeric failures, or a MemoryError), and 3
too when the output cannot be written: an OSError from a write or the
final flush, as on a full disk, or a process started with stdout closed,
which exits before any work; each prints one ``error:`` line on stderr.
When the reader of stdout closes early, the next write ends the process
by SIGPIPE, with nothing on stderr.  Big integers are emitted as decimal
strings in JSON output.  Each subcommand imports its own route when it
runs, so a process loads only the modules it needs.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys

from .lattice import Vertex

# The caps are fixed, with no flag to raise them, so the CLI accepts only
# inputs it can finish and print; the library has no caps, and a caller
# who needs a larger size calls it directly.
DEFAULT_CAP_N = 10_000
DEFAULT_CAP_K = 64
# The lower caps keep one call to about 30 s on a 2-vCPU host; the
# measured times are in README's "Resource caps" paragraph.  verify
# takes the default step cap: it stops at its proof length, so its cost
# does not grow with n past that.
CAP_K_VERIFY = 30
CAP_N_TABLE = 3000


class UsageError(Exception):
    pass


def _parse(text: str, kind: type, name: str):
    """Comma-separated integers as a ``kind`` (Vertex or Shape3), one per
    field, else a UsageError naming the fields."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if len(values) != len(kind._fields):
        raise UsageError(f"bad {name} {text!r}; expected "
                         f"{','.join(kind._fields).upper()}")
    return kind(*values)


def _check_caps(k: int | None = None, n: int | None = None,
                cap_k: int = DEFAULT_CAP_K, cap_n: int = DEFAULT_CAP_N) -> None:
    if k is not None and k > cap_k:
        raise UsageError(f"k={k} exceeds the cap {cap_k}")
    if n is not None and n > cap_n:
        raise UsageError(f"n={n} exceeds the cap {cap_n}")


def _cmd_count(args) -> int:
    from .pathcount import degeneracy

    _check_caps(k=args.k, n=args.n)
    print(degeneracy(args.k, args.n, _parse(args.vertex, Vertex, "vertex")))
    return 0


def _cmd_table(args) -> int:
    from .pathcount import grid_rows

    _check_caps(k=args.max_k, n=args.max_n, cap_n=CAP_N_TABLE)
    v = _parse(args.vertex, Vertex, "vertex")
    columns, rows = grid_rows(args.max_k, args.max_n, v, args.all_columns)
    # each level's row is printed as soon as it is done
    if args.format == "csv":
        print("k\\n," + ",".join(str(n) for n in columns))
        for k, row in rows:
            print(f"{k}," + ",".join(str(c) for c in row))
    else:  # item by item, the bytes json.dumps gives the whole
        import json

        print(f'{{"vertex": {json.dumps(list(v))}, '
              f'"columns": {json.dumps(list(columns))}, "rows": [', end="")
        for k, row in rows:
            print(", " * (k > 1) + json.dumps(
                {"k": k, "counts": [str(c) for c in row]}), end="")
        print("]}")
    return 0


def _cmd_genfunc(args) -> int:
    import json

    from .genfunc import generating_function, solve_system
    from .poly import poly_to_json, poly_to_text

    _check_caps(k=args.k)
    if args.vertex:
        v = _parse(args.vertex, Vertex, "vertex")
        sol = {v: generating_function(args.k, v)}
    else:
        sol = solve_system(args.k)
    as_json = args.format == "json"
    dens = {}  # each distinct denominator is formatted once
    if as_json:  # item by item, the bytes json.dumps gives the whole
        print(f'{{"k": {args.k}, "genfuncs": [', end="")
    for n, (v, fn) in enumerate(sol.items()):
        if fn.den not in dens:
            dens[fn.den] = (poly_to_json if as_json else poly_to_text)(fn.den)
        if as_json:
            print(", " * (n > 0) + json.dumps({
                "vertex": [v.i, v.j], "num": poly_to_json(fn.num),
                "den": dens[fn.den]}), end="")
        else:
            print(f"F[{v.i},{v.j}] = ({poly_to_text(fn.num)})"
                  f" / ({dens[fn.den]})")
    if as_json:
        print("]}")
    return 0


def _cmd_det(args) -> int:
    from .genfunc import system_det
    from .poly import poly_to_text

    _check_caps(k=args.k)
    print(poly_to_text(system_det(args.k)))
    return 0


def _cmd_verify(args) -> int:
    from .genfunc import verify_series

    _check_caps(k=args.k, n=args.n, cap_k=CAP_K_VERIFY)
    mismatches = verify_series(args.k, args.n)
    if mismatches:
        for v, n, series, dp in mismatches:
            print(f"MISMATCH vertex=({v.i},{v.j}) n={n} "
                  f"series={series} dp={dp}", file=sys.stderr)
        return 1
    print(f"ok: series coefficients match walk counts for k={args.k}, "
          f"n<={args.n}")
    return 0


def _cmd_qdim(args) -> int:
    from .spectral import lambda_perron, lambda_trig, root_rho, \
        spectral_report

    _check_caps(k=args.k)
    if not 0 < args.tol < math.inf:  # before any route runs
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    if args.method == "trig":
        print(repr(lambda_trig(args.k)))
    elif args.method == "eig":
        print(repr(lambda_perron(args.k, tol=args.tol)))
    elif args.method == "root":
        print(repr(1.0 / root_rho(args.k, tol=args.tol)))
    else:
        import json

        print(json.dumps(spectral_report(args.k, tol=args.tol)._asdict()))
    return 0


def _cmd_syt(args) -> int:
    from .syt import Shape3, audit_published_formula, brute_force_count, \
        hook_count, shape_for_vertex, unrestricted_count

    if args.paper_formula:
        import json

        if args.oracle:
            raise UsageError("--oracle does not apply to --paper-formula")
        _check_caps(n=args.n, cap_n=CAP_N_TABLE)
        print(json.dumps(audit_published_formula(n_max=args.n)))
        return 0
    if args.shape:
        shape = _parse(args.shape, Shape3, "shape")
        _check_caps(n=shape.n)
        count = hook_count(shape)
    else:
        _check_caps(n=args.n)
        v = _parse(args.vertex, Vertex, "vertex")
        count = unrestricted_count(args.n, v)
        shape = shape_for_vertex(args.n, v)
    if args.oracle and shape is not None:
        oracle = brute_force_count(shape)
        if oracle != count:
            print(f"MISMATCH hook={count} brute_force={oracle}",
                  file=sys.stderr)
            return 1
    print(count)
    return 0


def _cmd_reproduce(args) -> int:
    import json

    from .reproduce import reproduce

    report = reproduce(only=args.only)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyondeg",
        description="Exact walk counts, generating functions and growth "
                    "rates for level-restricted 3-row tableaux.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="number of n-step walks to a vertex")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vertex", default="0,0")
    p.set_defaults(func=_cmd_count, parser=p)

    p = sub.add_parser("table", help="grid of walk counts")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--vertex", default="0,0")
    p.add_argument("--all-columns", action="store_true",
                   help="include columns with 3 not dividing n")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table, parser=p)

    p = sub.add_parser("genfunc", help="exact generating function(s)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertex", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_genfunc, parser=p)

    p = sub.add_parser("det", help="system determinant polynomial")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_det, parser=p)

    p = sub.add_parser("verify", help="cross-check series vs walk counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify, parser=p)

    p = sub.add_parser("qdim", help="total quantum dimension")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("trig", "eig", "root", "all"),
                   default="all")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="convergence tolerance (default 1e-12)")
    p.set_defaults(func=_cmd_qdim, parser=p)

    p = sub.add_parser("syt", help="standard-tableau counts")
    p.add_argument("--n", type=int, default=0)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--vertex", default="0,0")
    group.add_argument("--shape", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force enumeration")
    group.add_argument("--paper-formula", action="store_true",
                       help="audit the printed formula against hook lengths")
    p.set_defaults(func=_cmd_syt, parser=p)

    p = sub.add_parser("reproduce", help="run the full golden suite")
    p.add_argument("--only", default=None,
                   help="run a single item (e.g. table1, table2)")
    p.set_defaults(func=_cmd_reproduce, parser=p)

    return parser


def main(argv=None) -> int:
    if hasattr(signal, "SIGPIPE"):  # no traceback when stdout closes early
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact counts may exceed 4300 digits
    if sys.stdout is None:  # started with fd 1 closed: nowhere to print
        print("error: no standard output", file=sys.stderr)
        return 3
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a full disk shows here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except OSError as exc:  # writing stdout failed
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        # what stays in stdout's buffer would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
