"""Two more independent routes to Fibonacci numbers and fibonomials.

A binomial-determinant sum over index subsets reproduces the fibonomial
coefficients, and the order ideals of a zigzag "fence" poset count out the
Fibonacci sequence itself, together with the two product identities that
ideal count yields.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import combinations, compress

from .fib_core import fib
from .record import Record

GV_MAX_N = 14  # the subset sum has C(N, k) terms
FENCE_BRUTE_MAX = 25


def _binom(a: int, b: int) -> int:
    return 0 if b < 0 or b > a else math.comb(a, b)


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free integer determinant; every division is exact."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def _check_subset(r: Sequence[int], n: int) -> tuple[int, ...]:
    r = tuple(int(x) for x in r)
    if any(a >= b for a, b in zip(r, r[1:])):
        raise ValueError(f"indices must be strictly increasing, got {r}")
    if r and (r[0] < 0 or r[-1] > n):
        raise ValueError(f"indices must lie in 0..{n}, got {r}")
    return r


def path_determinant(r: Sequence[int], n: int) -> int:
    """Determinant of the binomial matrix attached to the index subset r.

    Entry (i, j) is C(r_i, n - r_{k+1-j}), rows indexed by r ascending and
    columns by r descending; the matrix convention is pinned by the
    hand-checked k = 1 and k = 2 cases in the test suite.
    """
    r = _check_subset(r, n)
    k = len(r)
    m = [[_binom(r[i], n - r[k - 1 - j]) for j in range(k)] for i in range(k)]
    return _bareiss_det(m)


def gv_terms(total: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (subset, determinant) pairs whose sum is the fibonomial (total, k)."""
    if total < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got n={total}, k={k}")
    if k > total:
        raise ValueError(f"need k <= {total}, got {k}")
    if total > GV_MAX_N:
        raise ValueError(f"subset sum is bounded by {GV_MAX_N}, got {total}")
    n = total - 1
    for r in combinations(range(n + 1), k):
        yield r, path_determinant(r, n)


def fibonomial_via_gv(total: int, k: int) -> int:
    """Fibonomial (total, k) as the determinant sum over all k-subsets."""
    return sum(det for _, det in gv_terms(total, k))


class FencePoset(Record):
    """Zigzag order on n elements: x_1 < x_2 > x_3 < x_4 ... (or mirrored)."""

    __slots__ = ("n", "up_first")

    def __init__(self, n: int, up_first: bool = True) -> None:
        if n < 1:
            raise ValueError(f"fence needs n >= 1, got {n}")
        self._fill(n, up_first)

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Cover relations as (lower, upper) pairs of 0-based element indices."""
        return tuple((p, p + 1) if (p % 2 == 0) == self.up_first else (p + 1, p) for p in range(self.n - 1))


def iter_fence_ideals(n: int, up_first: bool = True) -> Iterator[frozenset[int]]:
    """Yield every order ideal (down-set) of the n-element fence.

    Backtracks over membership left to right, absent before present, on an
    explicit stack; the fence's only relations are between neighbours, so
    one local check per step suffices.
    """
    # at each step p >= 1, the memberships of p - 1 and p that hold the upper element without the lower
    barred = [(False, True) if lo < hi else (True, False) for lo, hi in FencePoset(n, up_first).cover_pairs()]
    stack = [(True,), (False,)]  # membership prefixes still to extend, the next one on top
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            yield frozenset(compress(range(n), prefix))
            continue
        for c in (True, False):  # absent last, so it is on top and extended first
            if (prefix[-1], c) != barred[len(prefix) - 1]:
                stack.append(prefix + (c,))


def fence_ideals_brute(n: int, up_first: bool = True) -> int:
    """Ideal count by exhaustive enumeration; the oracle for the sweep."""
    if n > FENCE_BRUTE_MAX:
        raise ValueError(f"brute enumeration is bounded by n <= {FENCE_BRUTE_MAX}")
    return sum(1 for _ in iter_fence_ideals(n, up_first))


def fence_ideals(n: int) -> int:
    """Ideal count by a left-to-right sweep over membership states.

    Linear in n and exact for any size; agrees with the enumeration and
    equals F_{n+2} under this library's Fibonacci indexing.
    """
    if n < 1:
        raise ValueError(f"fence needs n >= 1, got {n}")
    out_, in_ = 1, 1  # first element absent / present
    for p in range(n - 1):
        if p % 2 == 0:  # up-step: next element needs the current one
            out_, in_ = out_ + in_, in_
        else:  # down-step: if the current one is in, the next must be
            out_, in_ = out_, out_ + in_
    return out_ + in_


def beck_identity(n: int, k: int, form: int = 1) -> bool:
    """Check one of the two fence-derived Fibonacci product identities.

    Form 1 is F_n = F_k F_{n+1-k} + F_{k-1} F_{n-k}; form 2 is the same
    with k shifted down by one.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if form == 1:
        return fib(n) == fib(k) * fib(n + 1 - k) + fib(k - 1) * fib(n - k)
    if form == 2:
        kk = k - 1
        return fib(n) == fib(kk) * fib(n + 1 - kk) + fib(kk - 1) * fib(n - kk)
    raise ValueError(f"form must be 1 or 2, got {form}")
