"""Expected outputs, computed without any cobweb code.

Every number here comes by a different route from the library's:
Fibonacci numbers by fast doubling, fibonomials by the primitive-part
product (no big division), zeta and Moebius entries from the level of
each vertex alone, chain counts as elementary symmetric sums of level
sizes, weighted-box counts by Newton's identities, and the CLI's output
bytes rebuilt from its documented formats.  Only the checking process
imports this module, never a process that runs cobweb.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

from workloads import (
    encode_int,
    encode_rows,
    encode_truncation,
    encode_vertices,
    level_of,
    level_offsets,
    level_size,
    vertex_count,
)

# the 25 registered crosschecks, in table order
CROSSCHECK_NAMES = (
    "fibonomial-symmetry", "fibonomial-recurrences", "fibonomial-cross-identity",
    "fibonomial-integrality", "natural-binomial", "linear-index-roundtrip", "order-axioms",
    "edge-counts", "copy-enumeration", "zeta-two-routes", "zeta-row-zeros", "mobius-inverse",
    "eta-nilpotent", "strict-chains-dfs", "copy-count-examples", "root-chains-dfs",
    "fixed-chains-dfs", "chain-division-identity", "recurrence-split", "fibonomial-five-way",
    "boxes-dp-vs-brute", "boxes-specializations", "fence-brute-vs-transfer", "fence-fibonacci",
    "beck-identities",
)


def fib(n: int) -> int:
    """F_n by fast doubling: F_2m = F_m (2F_{m+1} - F_m), F_2m+1 = F_m^2 + F_{m+1}^2."""

    def pair(m: int) -> tuple[int, int]:
        if m == 0:
            return 0, 1
        a, b = pair(m >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return pair(n)[0]


_PARTS: list[int] = []


def _primitive_parts(n: int) -> list[int]:
    """P_0..P_n (at least) with F_d the product of P_e over the divisors e of d."""
    if len(_PARTS) <= n:
        size = max(n + 1, 2 * len(_PARTS), 2049)
        parts = [0, 1]
        while len(parts) < size:
            parts.append(parts[-1] + parts[-2])
        for d in range(1, size):  # P_d is final once every proper divisor is out
            for m in range(2 * d, size, d):
                parts[m] //= parts[d]
        _PARTS[:] = parts
    return _PARTS


def _product(xs: list[int]) -> int:
    """Balanced product tree, so big factors meet big factors."""
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] if i + 1 < len(xs) else xs[i] for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


@lru_cache(maxsize=4096)
def fibonomial(n: int, k: int) -> int:
    """(n, k)_F = prod over d <= n of P_d^(floor(n/d) - floor(k/d) - floor((n-k)/d)).

    Each exponent is 0 or 1 (Knuth & Wilf 1989), so the product needs no
    division at all.
    """
    if k < 0 or k > n:
        return 0
    parts = _primitive_parts(n)
    return _product([parts[d] for d in range(2, n + 1) if n // d - k // d - (n - k) // d])


def fib_factorial_falling(n: int, k: int) -> int:
    """F_n F_{n-1} ... F_{n-k+1}."""
    return _product([fib(m) for m in range(n - k + 1, n + 1)])


# --- incidence algebra by levels ----------------------------------------------


def _levels(max_level: int) -> list[int]:
    return [s for s in range(max_level + 1) for _ in range(level_size(s))]


@lru_cache(maxsize=None)
def zeta_rows(max_level: int) -> tuple[tuple[int, ...], ...]:
    lev = _levels(max_level)
    n = len(lev)
    return tuple(tuple(1 if i == j or lev[i] < lev[j] else 0 for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def mobius_rows(max_level: int) -> tuple[tuple[int, ...], ...]:
    """mu(x, y) depends only on the levels p < q of x and y:
    mu(p, q) = -(1 + sum over p < l < q of |level l| * mu(p, l))."""
    mu = [[0] * (max_level + 1) for _ in range(max_level + 1)]
    for p in range(max_level + 1):
        for q in range(p + 1, max_level + 1):
            mu[p][q] = -(1 + sum(level_size(l) * mu[p][l] for l in range(p + 1, q)))
    lev = _levels(max_level)
    n = len(lev)
    return tuple(
        tuple(1 if i == j else (mu[lev[i]][lev[j]] if lev[i] < lev[j] else 0) for j in range(n))
        for i in range(n)
    )


def export_text(rows, fmt: str) -> str:
    if fmt == "dense":
        return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
    if fmt == "csv":
        return "\n".join(",".join(map(str, row)) for row in rows) + "\n"
    return json.dumps({"schema": 1, "size": len(rows), "rows": [list(r) for r in rows]}, indent=2) + "\n"


def _elementary(values: list[int], k: int) -> int:
    """e_k by Newton's identities: k e_k = sum_i (-1)^(i-1) e_{k-i} p_i."""
    p = [sum(v**i for v in values) for i in range(k + 1)]
    e = [1]
    for m in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * p[i] for i in range(1, m + 1)) // m)
    return e[k]


def _complete(values: list[int], k: int) -> int:
    """h_k by Newton's identities: k h_k = sum_i h_{k-i} p_i."""
    p = [sum(v**i for v in values) for i in range(k + 1)]
    h = [1]
    for m in range(1, k + 1):
        h.append(sum(h[m - i] * p[i] for i in range(1, m + 1)) // m)
    return h[k]


def chain_count(max_level: int, x: int, y: int, length: int) -> int:
    """Strict chains x < ... < y of the given length: one vertex on each of
    length-1 distinct levels strictly between, i.e. e_{length-1} of their sizes."""
    lx, ly = level_of(max_level, x), level_of(max_level, y)
    if lx >= ly:
        return 0
    return _elementary([level_size(l) for l in range(lx + 1, ly)], length - 1)


def maximal_chain_rows(a: int, b: int) -> list[list[int]]:
    if a == b:
        return [[int(i == j) for j in range(level_size(a))] for i in range(level_size(a))]
    through = math.prod(level_size(l) for l in range(a + 1, b))
    return [[through] * level_size(b) for _ in range(level_size(a))]


def sweep(max_level: int, stride: int) -> list[tuple[int, int]]:
    n = vertex_count(max_level)
    off = level_offsets(max_level + 1)
    out = []
    for t in range(n):
        i = (t * stride) % n
        s = level_of(max_level, i)
        out.append((s, i - off[s] + 1))
    return out


def truncation_edges(max_level: int) -> list[tuple[int, int]]:
    off = level_offsets(max_level + 1)
    return [
        (off[s] + u, off[s + 1] + v)
        for s in range(max_level)
        for u in range(level_size(s))
        for v in range(level_size(s + 1))
    ]


# --- expected encodings of in-process results ---------------------------------


@lru_cache(maxsize=None)
def _expected_matrix(kind: str, max_level: int, fmt: str | None) -> bytes:
    rows = zeta_rows(max_level) if kind == "zeta" else mobius_rows(max_level)
    if fmt is None:
        return encode_rows(rows)
    if fmt == "json":
        return json.dumps({"size": len(rows), "rows": [list(r) for r in rows]}, sort_keys=True).encode()
    return export_text(rows, fmt).encode()


def expected(op: str, args: tuple) -> bytes:
    """Encoded result the worker must report for one in-process request."""
    if op in ("def", "chains", "rec"):
        return encode_int(fibonomial(args[0], args[1]))
    if op == "fib":
        return encode_int(fib(args[0]))
    if op == "pipeline":
        return _expected_matrix("mobius", args[0], args[1])
    if op == "explicit":
        return _expected_matrix("zeta", args[0], None)
    if op == "product":  # mu * zeta is the identity
        n = vertex_count(args[0])
        return encode_rows([[int(i == j) for j in range(n)] for i in range(n)])
    if op == "chain_count":
        return encode_int(chain_count(*args))
    if op == "maxchain":
        return encode_rows(maximal_chain_rows(args[1], args[2]))
    if op == "sweep":
        return encode_vertices(sweep(*args))
    if op == "truncate":
        return _expected_truncation(args[0])
    raise ValueError(f"no reference for op {op!r}")


@lru_cache(maxsize=None)
def _expected_truncation(max_level: int) -> bytes:
    return encode_truncation(vertex_count(max_level), truncation_edges(max_level))


_ROW = re.compile(r"^(PASS|FAIL)  ([a-z0-9-]+)")
_SUMMARY = re.compile(r"^(\d+) checks: (\d+) passed, (\d+) failed$")


def crosscheck_table_ok(text: str) -> bool:
    """True when every registered check has a PASS row and none failed.

    Rows may carry more after the name and more checks may be added; the
    PASS/FAIL prefix and the summary line are the parseable contract.
    """
    lines = text.rstrip("\n").split("\n")
    rows = [_ROW.match(line) for line in lines[:-1]]
    summary = _SUMMARY.match(lines[-1])
    if not summary or any(m is None for m in rows):
        return False
    passed = {m.group(2) for m in rows if m.group(1) == "PASS"}
    total, ok, failed = map(int, summary.groups())
    return (
        failed == 0
        and total == ok == len(rows)
        and len(passed) == len(rows)
        and set(CROSSCHECK_NAMES) <= passed
    )


# --- CLI output bytes ---------------------------------------------------------------


def _flag(argv: tuple, name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def hasse_dot(max_level: int) -> str:
    off = level_offsets(max_level + 1)
    lines = ["digraph cobweb {", "  rankdir=BT;"]
    for s in range(max_level + 1):
        for p in range(level_size(s)):
            lines.append(f'  v{off[s] + p} [label="({p + 1},{s})"];')
    for s in range(max_level + 1):
        ids = " ".join(f"v{off[s] + p};" for p in range(level_size(s)))
        lines.append(f"  {{ rank=same; {ids} }}")
    lines += [f"  v{i} -> v{j};" for i, j in truncation_edges(max_level)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cli_stdout(argv: tuple) -> str | None:
    """Exact stdout of a successful ``cobweb <argv>``; None for crosscheck,
    whose table is checked by :func:`crosscheck_table_ok` instead."""
    cmd = argv[0]
    if cmd == "fib":
        return f"{fib(int(argv[1]))}\n"
    if cmd == "fibonomial":
        n, k = int(argv[1]), int(argv[2])
        value = f"{fibonomial(n, k)}\n"
        return value * 5 if _flag(argv, "--method") == "all" else value
    if cmd in ("zeta", "mobius"):
        L = int(_flag(argv, "--levels"))
        rows = zeta_rows(L) if cmd == "zeta" else mobius_rows(L)
        return export_text(rows, _flag(argv, "--format", "dense"))
    if cmd == "chains":
        k, n = int(argv[1]), int(argv[2])
        per_source = fib_factorial_falling(n, n - k)
        total, fibo = level_size(k) * per_source, fibonomial(n, k)
        if _flag(argv, "--format") == "json":
            doc = {"schema": 1, "n": str(n), "k": str(k), "per_source": str(per_source),
                   "total": str(total), "fibonomial": str(fibo)}
            return json.dumps(doc, indent=2) + "\n"
        return f"k={k} n={n} per_source={per_source} total={total} fibonomial={fibo}\n"
    if cmd == "copies":
        level, m = int(argv[1]), int(argv[3])
        return f"{math.prod(math.comb(level_size(level + i), level_size(i)) for i in range(1, m + 1))}\n"
    if cmd == "konvalina":
        w = [int(x) for x in _flag(argv, "--weights").split(",")]
        k = int(_flag(argv, "--k"))
        fn = _elementary if _flag(argv, "--kind") == "first" else _complete
        return f"{fn(w, k)}\n"
    if cmd == "gv":
        return f"{fibonomial(int(argv[1]), int(argv[2]))}\n"
    if cmd == "fence":
        return f"{fib(int(argv[1]) + 2)}\n"
    if cmd == "hasse":
        return hasse_dot(int(_flag(argv, "--levels")))
    if cmd == "crosscheck":
        return None
    raise ValueError(f"no reference for command {cmd!r}")
