"""Seeded request streams for the three benchmark workloads.

Pure Python: nothing here imports cobweb, so the inputs the program sees
are generated outside it.  A request is ``(op, args)`` with ``args`` a
tuple of ints and strings.  Each workload repeats cycles; every cycle
holds the same request classes in the same proportions, and the seed only
jitters the parameters inside each class.  That stratification is what
keeps throughput and the latency percentiles steady from seed to seed,
even though request costs span four orders of magnitude.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from typing import Iterator

WORKLOADS = ("fibonomial-bigint", "incidence-dense", "cli-cold")

Request = tuple[str, tuple]

# ROADMAP fixed points; (2000, 1000) is too slow for the recurrences (420 s)
ROADMAP_POINTS = ((12, 6), (200, 100), (2000, 1000))
REC_POINTS = ((12, 6), (200, 100))


def fib_list(n: int) -> list[int]:
    """F_0..F_n by plain iteration (benchmark-side, not cobweb's)."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out[: n + 1]


_F = fib_list(100)  # level sizes up to level 100; the CLI workload asks for at most 60


def level_size(s: int) -> int:
    return 1 if s == 0 else _F[s]


def level_offsets(max_level: int) -> list[int]:
    """First linear index of each level, by summing level sizes."""
    off = [0]
    for s in range(max_level):
        off.append(off[-1] + level_size(s))
    return off


def level_of(max_level: int, i: int) -> int:
    """Level of the vertex with linear index i."""
    off = level_offsets(max_level + 1)
    return max(s for s in range(max_level + 1) if off[s] <= i)


def vertex_count(max_level: int) -> int:
    return sum(level_size(s) for s in range(max_level + 1))


def _log_uniform(lo: float, hi: float, u: float) -> int:
    return round(lo * (hi / lo) ** u)


def _jitter(rng: random.Random, x: float) -> float:
    """x moved by at most 1%.  Request costs grow like n^2..n^3, so sizes
    drawn anywhere inside their strata would swing a run's total, median
    and tail by tens of percent from seed to seed."""
    return x * (1 + 0.02 * (rng.random() - 0.5))


def _log_grid(rng: random.Random, lo: float, hi: float, m: int) -> list[int]:
    """m sizes at the stratum midpoints of a log-uniform spread over [lo, hi]."""
    return [round(_jitter(rng, _log_uniform(lo, hi, (i + 0.5) / m))) for i in range(m)]


def _lattice(rng: random.Random, lo: float, hi: float, m: int, g: int) -> list[tuple[int, int]]:
    """The m points (n, k) of the Fibonacci lattice (i/m, i*g/m mod 1):
    n on a log grid over [lo, hi] and k/n in its own stratum of (0, 1),
    so every n stratum gets a different k/n stratum."""
    return [(n, min(n, max(1, round(_jitter(rng, n * ((i * g) % m + 0.5) / m)))))
            for i, n in enumerate(_log_grid(rng, lo, hi, m))]


# --- fibonomial-bigint ------------------------------------------------------


def _fibonomial_cycle(rng: random.Random, index: int) -> list[Request]:
    out: list[Request] = []
    for n, k in ROADMAP_POINTS:
        out += [("def", (n, k)), ("chains", (n, k))]
    for n, k in REC_POINTS:
        out += [("rec", (n, k, "A")), ("rec", (n, k, "B"))]
    # def and via_chains on the same (n, k): their costs mirror each other
    # in k, so a pair costs about the same for any k
    pairs = _lattice(rng, 128, LATTICE_MAX_N, 7, 3)
    for i in range(len(pairs)):  # stride order spreads n along the cycle
        n, k = pairs[(i * 3) % len(pairs)]
        out += [("def", (n, k)), ("chains", (n, k))]
    # Two blocks of like-cost requests, where the median and the tail of a
    # run fall: recurrences near (200, 100) and fib near 5*10^4.  Latencies
    # elsewhere spread evenly on a log scale, and an order statistic that
    # falls between two of them moves by their ratio when they swap.
    near = [(n, k) for n in range(198, 203) for k in range(n // 2 - 1, n // 2 + 2)]
    for n, k in rng.sample(near, REC_BLOCK):
        out += [("rec", (n, k, "A")), ("rec", (n, k, "B"))]
    out += [("fib", (n,)) for n in rng.sample(range(49_500, 50_500), FIB_BLOCK)]
    out += [("fib", (n,)) for n in _log_grid(rng, 10_000, 150_000, 4)]
    return out


# The lattice stops at half the range; the ROADMAP point (2000, 1000)
# covers its top.  A def/chains pair near n = 2000 costs two seconds, and
# run.py runs every cycle eight times.
LATTICE_MAX_N = 1024
REC_BLOCK = 6
FIB_BLOCK = 9


# --- incidence-dense ---------------------------------------------------------

INCIDENCE_LEVELS = (8, 9, 10, 11, 12)
PRODUCT_LEVEL = 10  # mobius * zeta is O(N^3); at L = 12 it takes most of a second
FORMATS = ("dense", "csv", "json")


def _incidence_cycle(rng: random.Random, index: int) -> list[Request]:
    # export formats differ in cost, so they rotate rather than being drawn;
    # chain counts and saturated chains span a fixed number of levels, since
    # their cost grows with it
    out: list[Request] = []
    for L in INCIDENCE_LEVELS:
        n = vertex_count(L)
        off = level_offsets(L + 1)
        x = rng.randrange(off[L - 2], off[L - 1])
        y = rng.randrange(off[L], n)
        a = rng.randint(L // 2 - 1, L // 2)
        stride = rng.choice([s for s in range(1, n) if math.gcd(s, n) == 1])
        out += [
            ("pipeline", (L, FORMATS[(index + L) % len(FORMATS)])),
            ("explicit", (L,)),
            ("chain_count", (L, x, y, rng.randint(1, 2))),
            ("maxchain", (L, a, rng.randint(L - 1, L))),
            ("sweep", (L, stride)),
            ("truncate", (L + 2,)),
        ]
    out.append(("product", (PRODUCT_LEVEL,)))
    rng.shuffle(out)
    return out


# --- cli-cold -------------------------------------------------------------------

# Results above 4300 decimal digits: the CLI exits 2 on them today (ROADMAP
# item 2).  run.py runs them once per cli-cold run as a probe, after the
# timed cycles, and the report says whether they still fail.
KNOWN_DEFECT_ARGV = (
    ("fib", "30000"),
    ("fibonomial", "300", "150"),
    ("chains", "3", "400", "--format", "json"),
)


def _cli_cycle(rng: random.Random, index: int) -> list[Request]:
    def fibonomial() -> tuple:
        method = rng.choice(("def", "recA", "recB", "chains", "gv", "all"))
        n = rng.randint(1, 13) if method in ("gv", "all") else rng.randint(1, 60)
        return ("fibonomial", str(n), str(rng.randint(0, n)), "--method", method)

    def crosscheck() -> tuple:
        max_n = rng.randint(1, 4)
        return ("crosscheck", "--max-n", str(max_n), "--oracle-max-n", str(rng.randint(1, max_n)))

    level = rng.randint(0, 4)
    w = sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
    kind = rng.choice(("first", "second"))
    gv_n, cn = rng.randint(1, 13), rng.randint(0, 60)
    argvs = [
        ("fib", str(_log_uniform(10, 4000, rng.random()))),
        fibonomial(),
        fibonomial(),
        fibonomial(),
        ("zeta", "--levels", str(rng.randint(2, 8)),
         "--source", rng.choice(("order", "explicit")), "--format", rng.choice(FORMATS)),
        ("mobius", "--levels", str(rng.randint(2, 8)), "--format", rng.choice(FORMATS)),
        ("chains", str(rng.randint(0, cn)), str(cn), "--format", rng.choice(("text", "json"))),
        ("copies", str(level), str(rng.randint(1, level_size(level))), str(rng.randint(0, 4))),
        ("konvalina", "--weights", ",".join(map(str, w)), "--k", str(rng.randint(0, len(w) if kind == "first" else 8)),
         "--kind", kind) + (("--brute",) if rng.random() < 0.5 else ()),
        ("gv", str(gv_n), str(rng.randint(0, gv_n))),
        ("fence", str(rng.randint(1, 18))) + (("--brute",) if rng.random() < 0.5 else ()),
        ("hasse", "--levels", str(rng.randint(1, 6))),
        # the slowest class, at half a second: once per cycle, so the
        # latency tail (the 11th-slowest request of a run) falls among the
        # dense start-up-bound requests, not between the two classes
        crosscheck(),
    ]
    rng.shuffle(argvs)
    return [("cli", argv) for argv in argvs]


_CYCLES = {
    "fibonomial-bigint": _fibonomial_cycle,
    "incidence-dense": _incidence_cycle,
    "cli-cold": _cli_cycle,
}


# Seconds one cycle takes at the seed commit (Python 3.11, 2 vCPUs).  A run
# executes a fixed number of whole cycles, so every run of a workload does
# the same work in the same proportions, however fast the program or the
# machine is.
NOMINAL_CYCLE_S = {
    "fibonomial-bigint": 2.7,
    "incidence-dense": 1.5,
    "cli-cold": 1.5,
}


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def cycles(workload: str, seed: int | str) -> Iterator[list[Request]]:
    """Endless cycles of ``workload``'s requests; the same seed gives the same cycles."""
    cycle = _CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    for index in itertools.count():
        yield cycle(rng, index)


# --- output encodings, shared by the worker and the reference side ----------------


def encode_int(x: int) -> bytes:
    # hex, not decimal: hex conversion has no digit limit and is linear time
    return format(x, "x").encode()


def encode_rows(rows) -> bytes:
    return "\n".join(",".join(map(str, row)) for row in rows).encode()


def encode_vertices(pairs) -> bytes:
    return ";".join(f"{level},{pos}" for level, pos in pairs).encode()


def encode_truncation(count: int, edges) -> bytes:
    return f"{count}|".encode() + ";".join(f"{i},{j}" for i, j in edges).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
