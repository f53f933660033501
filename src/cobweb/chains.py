"""Saturated-chain counts on the cobweb poset and the copy-count reading
of the fibonomial coefficients they support.

The closed-form counters live next to a deliberately naive DFS oracle that
walks every chain of a truncated poset; the two are cross-checked in the
test suite and the crosscheck harness.
"""

from __future__ import annotations

from .bigint import decimal
from .fib_core import FIBONACCI, _fib_quotient, fib, fibonomial_def, psi_factorial, psi_falling
from .poset import Vertex, level_size, to_linear, truncate
from .record import Record

ORACLE_MAX_N = 8  # 8_F! = 65520 chains; DFS stays well under a second


def max_chains_from_root(n: int) -> int:
    """Saturated chains from the root to level n: the Fibonacci factorial n_F!."""
    return psi_factorial(FIBONACCI, n)


def max_chains_from_fixed(k: int, n: int) -> int:
    """Saturated chains from one fixed level-k vertex to level n.

    The falling product F_n * F_{n-1} * ... * F_{k+1}; the same for every
    source vertex of the level.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return psi_falling(FIBONACCI, n, n - k)


def max_chains_level_to_level(k: int, n: int) -> int:
    """Saturated chains from the whole of level k to level n (k >= 1)."""
    if k == 0:
        raise ValueError("use max_chains_from_root for the root level")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    return level_size(k) * max_chains_from_fixed(k, n)


def fibonomial_via_chains(n: int, k: int) -> int:
    """Fibonomial as the chain-count quotient: chains from a fixed level-k
    vertex to level n, divided by the chain count of one height-(n-k) copy.

    Both are Fibonacci products, F_n * ... * F_{k+1} over (n-k)_F!; the quotient is def's primitive-part
    product ``_fib_quotient(n, n - k)``, where a sieve remainder means a broken build.
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    return _fib_quotient(n, n - k, f"inexact chain division for n={n}, k={k}")


class ChainCountReport(Record):
    """Chain counts from level ``from_level`` to level ``to_level``."""

    __slots__ = ("from_level", "to_level", "per_source", "total")

    def __init__(self, from_level: int, to_level: int, per_source: int, total: int) -> None:
        self._fill(from_level, to_level, per_source, total)

    def to_json_dict(self) -> dict:
        # counts rendered as decimal strings so arbitrary precision survives JSON
        return {
            "n": decimal(self.to_level),
            "k": decimal(self.from_level),
            "per_source": decimal(self.per_source),
            "total": decimal(self.total),
            "fibonomial": decimal(fibonomial_via_chains(self.to_level, self.from_level)),
        }


def chain_count_report(k: int, n: int) -> ChainCountReport:
    """Bundle per-source and whole-level chain counts for levels k -> n."""
    per_source = max_chains_from_fixed(k, n)
    return ChainCountReport(k, n, per_source, level_size(k) * per_source)


class K1DegeneracyReport(Record):
    """Why the copy-count reading needs k > 1, recorded per n."""

    __slots__ = ("n", "value", "flagged", "note")

    def __init__(self, n: int, value: int, flagged: bool, note: str) -> None:
        self._fill(n, value, flagged, note)


def check_k1_degeneracy(n: int) -> K1DegeneracyReport:
    """Report the k = 1 breakdown of the copy-count interpretation.

    The fibonomial (n, 1) = F_n stays perfectly well defined; only the
    level-factor reading fails, because the first two levels have equal
    size and the factor for level 1 is indistinguishable from level 2's.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if fib(1) != fib(2):
        raise AssertionError("F_1 != F_2; the degeneracy premise itself broke")
    return K1DegeneracyReport(
        n=n,
        value=fibonomial_def(n, 1),
        flagged=True,
        note="levels 1 and 2 have equal size; the copy-count reading needs k > 1",
    )


def recurrence_class_split(n: int, k: int) -> tuple[int, int]:
    """The two disjoint-class counts behind the step from (n, .) to (n+1, k).

    Returns (F_{k+1} * (n, k)_F, F_{n-k} * (n, k-1)_F); the sum is the
    fibonomial (n+1, k).
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    first = fib(k + 1) * fibonomial_def(n, k)
    second = fib(n - k) * fibonomial_def(n, k - 1)
    return first, second


def brute_force_max_chains(k: int, n: int, source: Vertex | None = None) -> int:
    """Count saturated chains by explicit DFS over the truncated Hasse diagram.

    Oracle code: every chain is walked, no closed form and no memo.
    ``source`` fixes one level-k start vertex; None sums the whole level.
    """
    if n > ORACLE_MAX_N:
        raise ValueError(f"DFS oracle bound is {ORACLE_MAX_N}, got n={n}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    if source is not None and source.level != k:
        raise ValueError(f"source {source} is not at level {k}")
    t = truncate(n)
    adj: list[list[int]] = [[] for _ in range(t.vertex_count)]
    for i, j in t.edges:
        adj[i].append(j)
    levels = [v.level for v in t.vertices]

    def walk(i: int) -> int:
        if levels[i] == n:
            return 1
        return sum(walk(j) for j in adj[i])

    sources = [source] if source is not None else list(t.vertices_at(k))
    return sum(walk(to_linear(v)) for v in sources)
