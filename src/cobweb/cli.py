"""Command-line front end.

Subcommands expose every computation in the library; numbers are always
printed as decimal strings so big values stay exact in text.  Exit codes:
0 success, 1 check failure (or a stdout closed by its reader), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chains, crosscheck, fib_core, incidence, konvalina, paths_fences, poset
from .digits import decimal

ZETA_MAX_LEVELS = 12
HASSE_MAX_LEVELS = 10
FIB_MAX_N = 4_000_000  # about 0.7 s to compute and 10 s to print its 835 951 digits
FENCE_MAX_N = 200_000  # about 1 s; the sweep's additions grow with n, so the cost is quadratic
KONVALINA_MAX = 1000  # on k and on the weight count; 1000 weights of 2 at k = 1000 take 0.5 s
KONVALINA_MAX_WEIGHT = 9999  # the DP's cost grows with weight size: 1000 of these at k = 1000 take 1 s


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_fib(args) -> int:
    if args.n < 0:
        raise ValueError(f"fib expects n >= 0, got {args.n}")
    if args.n > FIB_MAX_N:
        raise ValueError(f"fib is bounded by n <= {FIB_MAX_N}, got n={args.n}")
    return _emit(f"{decimal(fib_core.fib(args.n))}\n", args.out)


_FIBONOMIAL_METHODS = {
    "def": lambda n, k: fib_core.fibonomial_def(n, k),
    "recA": lambda n, k: fib_core.fibonomial_rec(n, k, "A"),
    "recB": lambda n, k: fib_core.fibonomial_rec(n, k, "B"),
    "chains": chains.fibonomial_via_chains,
    "gv": paths_fences.fibonomial_via_gv,
}


def _cmd_fibonomial(args) -> int:
    if not 0 <= args.k <= args.n:
        raise ValueError(f"need 0 <= k <= n, got n={args.n}, k={args.k}")
    if args.method != "all":
        value = _FIBONOMIAL_METHODS[args.method](args.n, args.k)
        return _emit(f"{decimal(value)}\n", args.out)
    values = {name: fn(args.n, args.k) for name, fn in _FIBONOMIAL_METHODS.items()}
    rc = _emit("".join(f"{decimal(v)}\n" for v in values.values()), args.out)
    if rc:
        return rc
    if len(set(values.values())) > 1:
        detail = ", ".join(f"{name}={decimal(v)}" for name, v in values.items())
        print(f"error: methods disagree: {detail}", file=sys.stderr)
        return 1
    return 0


def _matrix_text(m: incidence.TriangularMatrix, fmt: str) -> str:
    return {"dense": m.to_dense_text, "csv": m.to_csv, "json": m.to_json_text}[fmt]()


def _levels(args, cap: int) -> int:
    if not 0 <= args.levels <= cap:
        raise ValueError(f"levels must be in 0..{cap}, got {args.levels}")
    return args.levels


def _cmd_zeta(args) -> int:
    levels = _levels(args, ZETA_MAX_LEVELS)
    if args.source == "order":
        m = incidence.zeta_from_order(levels)
    else:
        m = incidence.zeta_explicit(fib_core.fib(levels + 2))
    return _emit(_matrix_text(m, args.format), args.out)


def _cmd_mobius(args) -> int:
    m = incidence.mobius(incidence.zeta_from_order(_levels(args, ZETA_MAX_LEVELS)))
    return _emit(_matrix_text(m, args.format), args.out)


def _cmd_chains(args) -> int:
    report = chains.chain_count_report(args.k, args.n)
    if args.format == "json":
        text = json.dumps({"schema": 1, **report.to_json_dict()}, indent=2) + "\n"
    else:
        fibo = chains.fibonomial_via_chains(args.n, args.k)
        text = (
            f"k={report.from_level} n={report.to_level} "
            f"per_source={decimal(report.per_source)} total={decimal(report.total)} "
            f"fibonomial={decimal(fibo)}\n"
        )
    return _emit(text, args.out)


def _cmd_copies(args) -> int:
    root = poset.Vertex(args.level, args.pos)
    return _emit(f"{decimal(poset.count_copies_rooted(root, args.m))}\n", args.out)


def _cmd_konvalina(args) -> int:
    raw = args.weights.split(",")
    if args.k > KONVALINA_MAX or len(raw) > KONVALINA_MAX:
        raise ValueError(
            f"konvalina is bounded by k <= {KONVALINA_MAX} and {KONVALINA_MAX} weights, "
            f"got k={args.k} and {len(raw)} weights"
        )
    for x in raw:  # before int(), whose own digit limit would speak first
        digits = x.strip().lstrip("+").replace("_", "").lstrip("0")
        if digits.isdecimal() and len(digits) > len(str(KONVALINA_MAX_WEIGHT)):
            raise ValueError(
                f"konvalina weights are bounded by {KONVALINA_MAX_WEIGHT}, got {len(digits)} digits"
            )
    weights = konvalina.WeightVector(tuple(int(x) for x in raw))
    if max(weights) > KONVALINA_MAX_WEIGHT:
        raise ValueError(f"konvalina weights are bounded by {KONVALINA_MAX_WEIGHT}, got {max(weights)}")
    fn = konvalina.c_first_kind if args.kind == "first" else konvalina.s_second_kind
    value = fn(weights, args.k)
    if args.brute:
        check = konvalina.brute_sum(weights, args.k, args.kind)
        if check != value:
            print(f"error: DP {decimal(value)} != brute sum {decimal(check)}", file=sys.stderr)
            return 1
    return _emit(f"{decimal(value)}\n", args.out)


def _cmd_gv(args) -> int:
    lines = []
    total = 0
    for subset, det in paths_fences.gv_terms(args.n, args.k):
        total += det
        if args.verbose:
            lines.append(f"R={list(subset)} N={decimal(det)}\n")
    lines.append(f"{decimal(total)}\n")
    return _emit("".join(lines), args.out)


def _cmd_fence(args) -> int:
    if args.n > FENCE_MAX_N:
        raise ValueError(f"fence is bounded by n <= {FENCE_MAX_N}, got n={args.n}")
    value = paths_fences.fence_ideals(args.n)
    if args.brute:
        check = paths_fences.fence_ideals_brute(args.n)
        if check != value:
            print(f"error: sweep {decimal(value)} != enumeration {decimal(check)}", file=sys.stderr)
            return 1
    return _emit(f"{decimal(value)}\n", args.out)


def _cmd_hasse(args) -> int:
    return _emit(poset.to_dot(poset.truncate(_levels(args, HASSE_MAX_LEVELS))), args.out)


def _cmd_crosscheck(args) -> int:
    cfg = crosscheck.CrosscheckConfig(
        max_n=args.max_n,
        oracle_max_n=min(args.oracle_max_n, args.max_n),
    )
    if args.out is None:
        return crosscheck.run_crosschecks(cfg)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            return crosscheck.run_crosschecks(cfg, stream=fh)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact cobweb-poset and fibonomial computations, cross-validated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")
        return p

    p = add("fib", _cmd_fib, "Fibonacci number")
    p.add_argument("n", type=int)

    p = add("fibonomial", _cmd_fibonomial, "fibonomial coefficient by any method")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--method", choices=[*_FIBONOMIAL_METHODS, "all"], default="def")

    p = add("zeta", _cmd_zeta, "zeta matrix of a truncated poset")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--source", choices=["order", "explicit"], default="order")
    p.add_argument("--format", choices=["dense", "csv", "json"], default="dense")

    p = add("mobius", _cmd_mobius, "Moebius matrix of a truncated poset")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--format", choices=["dense", "csv", "json"], default="dense")

    p = add("chains", _cmd_chains, "saturated-chain counts between two levels")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("copies", _cmd_copies, "number of prototype copies below a vertex")
    p.add_argument("level", type=int)
    p.add_argument("pos", type=int)
    p.add_argument("m", type=int)

    p = add("konvalina", _cmd_konvalina, "weighted-box generalized binomial")
    p.add_argument("--weights", required=True, help="comma-separated positive integers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["first", "second"], default="first")
    p.add_argument("--brute", action="store_true", help="cross-check against the literal sum")

    p = add("gv", _cmd_gv, "fibonomial as a binomial-determinant subset sum")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--verbose", action="store_true", help="print one R=[...] N=... line per subset")

    p = add("fence", _cmd_fence, "order-ideal count of the zigzag fence")
    p.add_argument("n", type=int)
    p.add_argument("--brute", action="store_true", help="cross-check against enumeration")

    p = add("hasse", _cmd_hasse, "Hasse diagram as DOT")
    p.add_argument("--levels", type=int, required=True)

    p = add("crosscheck", _cmd_crosscheck, "run the full cross-validation table")
    p.add_argument("--max-n", dest="max_n", type=int, default=10)
    p.add_argument("--oracle-max-n", dest="oracle_max_n", type=int, default=7)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's final flush
        return rc
    except BrokenPipeError:  # the reader closed stdout: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # where that flush now goes
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError, KeyboardInterrupt) as exc:
        print(f"error: aborted by {type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
