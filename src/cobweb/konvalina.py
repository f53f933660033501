"""Generalized binomial coefficients over weighted boxes.

First kind: pick k distinct boxes and one object from each (elementary
symmetric sums).  Second kind: boxes may repeat (complete homogeneous
sums).  Uniform, geometric and arithmetic weights specialize these to
binomial coefficients, Gaussian coefficients and Stirling numbers, and
the classical triangle recurrences are kept alongside as oracles.

No positive integer weights give the fibonomials, of either kind: the
k = 1 column forces w_1 = F_1 = 1 and then w_1 + w_2 = F_2 = 1, so w_2 = 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations, combinations_with_replacement

from .record import Record

BRUTE_MAX_N = 12
BRUTE_MAX_K = 12


class WeightVector(Record):
    """Nondecreasing positive integer weights, one per box."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]) -> None:
        w = tuple(int(x) for x in weights)
        self._fill(w)
        if any(x < 1 for x in w):
            raise ValueError(f"weights must be >= 1, got {w}")
        if any(a > b for a, b in zip(w, w[1:])):
            raise ValueError(f"weights must be nondecreasing, got {w}")


def _weights(w: WeightVector | Iterable[int]) -> tuple[int, ...]:
    if isinstance(w, WeightVector):
        return w.weights
    return WeightVector(tuple(w)).weights


def c_first_kind(w: WeightVector | Iterable[int], k: int) -> int:
    """Selections from k distinct boxes: the elementary symmetric sum e_k(w).

    Computed by the one-box-at-a-time recurrence; rejects k > n since the
    boxes must be distinct.
    """
    ws = _weights(w)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > len(ws):
        raise ValueError(f"first kind needs k <= n, got k={k}, n={len(ws)}")
    row = [1] + [0] * k
    for wi in ws:
        for j in range(k, 0, -1):
            row[j] += wi * row[j - 1]
    return row[k]


def s_second_kind(w: WeightVector | Iterable[int], k: int) -> int:
    """Selections with repeatable boxes: the complete homogeneous sum h_k(w)."""
    ws = _weights(w)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    row = [1] + [0] * k
    for wi in ws:
        for j in range(1, k + 1):
            row[j] += wi * row[j - 1]
    return row[k]


def brute_sum(w: WeightVector | Iterable[int], k: int, kind: str) -> int:
    """Literal summation over all index tuples; the oracle for the DPs."""
    ws = _weights(w)
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    if len(ws) > BRUTE_MAX_N or k > BRUTE_MAX_K:
        raise ValueError(f"brute_sum is bounded by n <= {BRUTE_MAX_N}, k <= {BRUTE_MAX_K}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if kind == "first":
        if k > len(ws):
            raise ValueError(f"first kind needs k <= n, got k={k}, n={len(ws)}")
        tuples = combinations(ws, k)
    else:
        tuples = combinations_with_replacement(ws, k)
    return sum(map(math.prod, tuples))


def specialize(kind: str, n: int, q: int | None = None) -> WeightVector:
    """Classical weight assignments: uniform, geometric(q), arithmetic."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "uniform":
        return WeightVector((1,) * n)
    if kind == "geometric":
        if q is None or q < 1:
            raise ValueError("geometric weights need q >= 1")
        return WeightVector(tuple(q**i for i in range(n)))
    if kind == "arithmetic":
        return WeightVector(tuple(range(1, n + 1)))
    raise ValueError(f"kind must be uniform, geometric or arithmetic, got {kind!r}")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Gaussian coefficient by the exact product formula, q >= 2."""
    if k > n:
        raise ValueError(f"need k <= n, got n={n}, k={k}")
    if q < 2:
        raise ValueError(f"product formula needs q >= 2, got {q}")
    out = 1
    for i in range(1, k + 1):
        out, r = divmod(out * (q ** (n - k + i) - 1), q**i - 1)
        if r:
            raise ArithmeticError(f"inexact step in gaussian_binomial({n}, {k}, {q})")
    return out


# --- classical triangle oracles ---------------------------------------------


def pascal_binomial(n: int, k: int) -> int:
    """Binomial coefficient grown row by row from the additive triangle."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k]


def _stirling(n: int, k: int, weight) -> int:
    """Row n, entry k of the triangle T(i, j) = weight(i, j) T(i-1, j) + T(i-1, j-1), T(0, 0) = 1."""
    if k < 0 or k > n:  # row 0 is (1,); from row 1 on, column 0 stays 0
        return 0
    prev = [1] + [0] * n  # row 0
    for i in range(1, n + 1):
        cur = [0] * (n + 1)
        for j in range(1, i + 1):
            cur[j] = weight(i, j) * prev[j] + prev[j - 1]
        prev = cur
    return prev[k]


def stirling2(n: int, k: int) -> int:
    """Stirling set number by the triangle S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    return _stirling(n, k, lambda i, j: j)


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling cycle number by c(n, k) = (n-1) c(n-1, k) + c(n-1, k-1)."""
    return _stirling(n, k, lambda i, j: i - 1)
