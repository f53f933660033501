"""Command-line front end.

Subcommands expose every computation in the library; numbers are always
printed as decimal strings so big values stay exact in text.  Exit codes:
0 success, 1 check failure (or a stdout closed by its reader), 2 usage error.
A subcommand imports the library modules it uses when it runs, and no others.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bigint import decimal

lib = sys.modules[__package__]  # the cobweb package: lib.<module> imports that module on first use

ZETA_MAX_LEVELS = 12
HASSE_MAX_LEVELS = 10
FIB_MAX_N = 4_000_000  # about 0.25 s to compute and 0.4 s to print its 835 951 digits (libmpdec)
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
    return _emit(f"{decimal(lib.fib_core.fib(args.n))}\n", args.out)


_FIBONOMIAL_METHODS = {  # each imports its module and looks its function up only when it runs
    "def": lambda n, k: lib.fib_core.fibonomial_def(n, k),
    "recA": lambda n, k: lib.fib_core.fibonomial_rec(n, k, "A"),
    "recB": lambda n, k: lib.fib_core.fibonomial_rec(n, k, "B"),
    "chains": lambda n, k: lib.chains.fibonomial_via_chains(n, k),
    "gv": lambda n, k: lib.paths_fences.fibonomial_via_gv(n, k),
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


def _matrix_text(m, fmt: str) -> str:
    return {"dense": m.to_dense_text, "csv": m.to_csv, "json": m.to_json_text}[fmt]()


def _levels(args, cap: int) -> int:
    if not 0 <= args.levels <= cap:
        raise ValueError(f"levels must be in 0..{cap}, got {args.levels}")
    return args.levels


def _cmd_zeta(args) -> int:
    levels = _levels(args, ZETA_MAX_LEVELS)
    if args.source == "order":
        m = lib.incidence.zeta_from_order(levels)
    else:
        m = lib.incidence.zeta_explicit(lib.fib_core.fib(levels + 2))
    return _emit(_matrix_text(m, args.format), args.out)


def _cmd_mobius(args) -> int:
    m = lib.incidence.mobius(lib.incidence.zeta_from_order(_levels(args, ZETA_MAX_LEVELS)))
    return _emit(_matrix_text(m, args.format), args.out)


def _cmd_chains(args) -> int:
    fields = lib.chains.chain_count_report(args.k, args.n).to_json_dict()
    if args.format == "json":
        import json
        text = json.dumps({"schema": 1, **fields}, indent=2) + "\n"
    else:
        text = "k={k} n={n} per_source={per_source} total={total} fibonomial={fibonomial}\n".format(**fields)
    return _emit(text, args.out)


def _cmd_copies(args) -> int:
    if args.level > FIB_MAX_N:  # before the Vertex, whose check computes F_level
        raise ValueError(f"copies is bounded by level <= {FIB_MAX_N}, got level={args.level}")
    root = lib.poset.Vertex(args.level, args.pos)
    return _emit(f"{decimal(lib.poset.count_copies_rooted(root, args.m))}\n", args.out)


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
    weights = lib.konvalina.WeightVector(tuple(int(x) for x in raw))
    if max(weights.weights) > KONVALINA_MAX_WEIGHT:
        raise ValueError(f"konvalina weights are bounded by {KONVALINA_MAX_WEIGHT}, got {max(weights.weights)}")
    fn = lib.konvalina.c_first_kind if args.kind == "first" else lib.konvalina.s_second_kind
    value = fn(weights, args.k)
    if args.brute:
        check = lib.konvalina.brute_sum(weights, args.k, args.kind)
        if check != value:
            print(f"error: DP {decimal(value)} != brute sum {decimal(check)}", file=sys.stderr)
            return 1
    return _emit(f"{decimal(value)}\n", args.out)


def _cmd_gv(args) -> int:
    lines = []
    total = 0
    for subset, det in lib.paths_fences.gv_terms(args.n, args.k):
        total += det
        if args.verbose:
            lines.append(f"R={list(subset)} N={decimal(det)}\n")
    lines.append(f"{decimal(total)}\n")
    return _emit("".join(lines), args.out)


def _cmd_fence(args) -> int:
    if args.n > FENCE_MAX_N:
        raise ValueError(f"fence is bounded by n <= {FENCE_MAX_N}, got n={args.n}")
    value = lib.paths_fences.fence_ideals(args.n)
    if args.brute:
        check = lib.paths_fences.fence_ideals_brute(args.n)
        if check != value:
            print(f"error: sweep {decimal(value)} != enumeration {decimal(check)}", file=sys.stderr)
            return 1
    return _emit(f"{decimal(value)}\n", args.out)


def _cmd_hasse(args) -> int:
    return _emit(lib.poset.to_dot(lib.poset.truncate(_levels(args, HASSE_MAX_LEVELS))), args.out)


def _cmd_crosscheck(args) -> int:
    cfg = lib.crosscheck.CrosscheckConfig(max_n=args.max_n, oracle_max_n=min(args.oracle_max_n, args.max_n))
    if args.out is None:
        return lib.crosscheck.run_crosschecks(cfg)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            return lib.crosscheck.run_crosschecks(cfg, stream=fh)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1


_LEVELS = ("--levels", {"type": int, "required": True})
_FORMATS = ("--format", {"choices": ["dense", "csv", "json"], "default": "dense"})

_COMMANDS = {  # name: (help, arguments after --out, a bare name being an int positional), in --help order
    "fib": ("Fibonacci number", ["n"]),
    "fibonomial": ("fibonomial coefficient by any method", [
        "n", "k", ("--method", {"choices": [*_FIBONOMIAL_METHODS, "all"], "default": "def"})]),
    "zeta": ("zeta matrix of a truncated poset", [
        _LEVELS, ("--source", {"choices": ["order", "explicit"], "default": "order"}), _FORMATS]),
    "mobius": ("Moebius matrix of a truncated poset", [_LEVELS, _FORMATS]),
    "chains": ("saturated-chain counts between two levels", [
        "k", "n", ("--format", {"choices": ["text", "json"], "default": "text"})]),
    "copies": ("number of prototype copies below a vertex", ["level", "pos", "m"]),
    "konvalina": ("weighted-box generalized binomial", [
        ("--weights", {"required": True, "help": "comma-separated positive integers"}),
        ("--k", {"type": int, "required": True}), ("--kind", {"choices": ["first", "second"], "default": "first"}),
        ("--brute", {"action": "store_true", "help": "cross-check against the literal sum"})]),
    "gv": ("fibonomial as a binomial-determinant subset sum", [
        "n", "k", ("--verbose", {"action": "store_true", "help": "print one R=[...] N=... line per subset"})]),
    "fence": ("order-ideal count of the zigzag fence", [
        "n", ("--brute", {"action": "store_true", "help": "cross-check against enumeration"})]),
    "hasse": ("Hasse diagram as DOT", [_LEVELS]),
    "crosscheck": ("run the full cross-validation table", [
        ("--max-n", {"type": int, "default": 10}), ("--oracle-max-n", {"type": int, "default": 7})]),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, which reads and reports that command's argv alike."""
    parser = argparse.ArgumentParser(
        prog="cobweb", description="Exact cobweb-poset and fibonomial computations, cross-validated.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            p.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")
            for arg in arguments:
                flag, options = (arg, {"type": int}) if isinstance(arg, str) else arg
                p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_known_args(argv)
    if extra:  # exits: the top-level parser names them, with every subcommand in its usage
        _build_parser().parse_args(argv)
    try:
        rc = globals()[f"_cmd_{args.command}"](args)  # looked up as it runs, so a replaced handler runs
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
