"""Fibonacci numbers, generalized sequence factorials, and fibonomials.

Everything is exact: plain Python integers throughout, with
``fractions.Fraction`` only where a quotient is not known to be integral.
"""

from __future__ import annotations

from typing import Callable

from .bigint import _divmod, _product
from .record import Record, set_field


class PsiSequence(Record):
    """An integer sequence that generates factorials and binomials.

    ``values(n)`` must be nonzero for every n >= 1 (the factorial
    machinery divides by these); the value at 0 is unconstrained and
    never enters a product.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: Callable[[int], int]) -> None:
        set_field(self, "name", name)
        set_field(self, "values", values)

    def __call__(self, n: int) -> int:
        return self.values(n)


_FIB_CAP = 4096  # a full table holds about 0.9 MB (0.25 MB filled to n = 2000)
_FIB = [0, 1]  # _FIB[i] = F_i, grown on demand up to _FIB_CAP


def fib(n: int) -> int:
    """n-th Fibonacci number under F_0 = 0, F_1 = F_2 = 1; exact for any n.

    Negative indices follow the recurrence backwards: F_{-n} = (-1)^{n+1} F_n.
    Indices up to 4096 come from a shared prefix table, extended on demand.
    Larger ones are computed by fast doubling over the bits of n,
    F_2m = F_m (2 F_{m+1} - F_m) and F_{2m+1} = F_m^2 + F_{m+1}^2, and are
    not cached.
    """
    if n < 0:  # before the table read: _FIB[-1] would be the last entry
        return fib(-n) if n % 2 else -fib(-n)
    if n < len(_FIB):
        return _FIB[n]
    if n <= _FIB_CAP:
        i = len(_FIB)
        a, b = _FIB[i - 2], _FIB[i - 1]
        ext = []
        for _ in range(i, n + 1):
            a, b = b, a + b
            ext.append(b)
        # one slice assignment publishes the new entries; the table never
        # shrinks, so a concurrent caller never reads past its end
        _FIB[i : i + len(ext)] = ext
        return b
    bits = bin(n)[2:]
    a, b = 0, 1  # (F_m, F_{m+1}) for m = the bits of n read so far
    for bit in bits[:-1]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a * a + b * b if bits[-1] == "1" else a * (2 * b - a)


FIBONACCI = PsiSequence("fibonacci", fib)
NATURAL = PsiSequence("natural", lambda n: n)


def geometric(q: int) -> PsiSequence:
    """Sequence 1, q, q^2, ... (the value at 0 is 0 and never used)."""
    if q < 1:
        raise ValueError(f"geometric ratio must be >= 1, got {q}")
    return PsiSequence(f"geometric({q})", lambda n: q ** (n - 1) if n >= 1 else 0)


def psi_factorial(seq: PsiSequence, n: int) -> int:
    """Product seq(n) * seq(n-1) * ... * seq(1); the empty product is 1."""
    if n < 0:
        raise ValueError(f"psi_factorial expects n >= 0, got {n}")
    values = [seq.values(m) for m in range(1, n + 1)]
    if 0 in values:
        m = values.index(0) + 1
        raise ValueError(f"sequence {seq.name!r} vanishes at {m}; factorial undefined")
    return _product(values)


def psi_falling(seq: PsiSequence, x: int, k: int) -> int:
    """Falling product of k consecutive sequence values descending from seq(x)."""
    if k < 0:
        raise ValueError(f"psi_falling expects k >= 0, got {k}")
    if k > x:
        raise ValueError(f"psi_falling needs k <= x, got x={x}, k={k}")
    return _product([seq.values(m) for m in range(x, x - k, -1)])


def _fib_quotient(n: int, k: int, inexact: str) -> int:
    """F_n * ... * F_{n-k+1} / F_k! for 0 <= k <= n; a remainder raises ArithmeticError(inexact).

    F_j divides F_m when j | m (Lucas: gcd(F_a, F_b) = F_gcd(a, b)), so each F_j, j = k down to 3, is
    divided out of the highest F_m, j | m, that no larger j took; the F_j left over divide the rest.
    """
    top = [fib(m) for m in range(n - k + 1, n + 1)]  # top[i] = F_{n-k+1+i}, divided down in place
    taken, rest, bad = bytearray(k), [], 0  # taken[i]: some F_j has been divided out of top[i]
    for j in range(k, 2, -1):
        i = k - 1 - n % j  # where the highest multiple of j, n - n % j, sits
        while i >= 0 and taken[i]:
            i -= j
        if i < 0:
            rest.append(fib(j))
            continue
        taken[i] = 1
        top[i], r = divmod(top[i], fib(j))
        bad |= r
    q, r = _divmod(_product(top), _product(rest))
    if r or bad:
        raise ArithmeticError(inexact)
    return q


def fibonomial_def(n: int, k: int) -> int:
    """Fibonomial coefficient by its defining quotient of Fibonacci factorials.

    Equals F_n! / (F_k! * F_{n-k}!) = F_n * ... * F_{n-k+1} / F_k!.  ``_fib_quotient`` cancels each F_j
    of F_k! against a multiple F_m first; each division's remainder is checked, so the result is exact.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        raise ValueError(f"fibonomial_def needs k <= n, got n={n}, k={k}")
    return _fib_quotient(n, k, f"inexact division in fibonomial({n}, {k})")


REC_MAX_N = 1000  # the banded DP takes about 7 s at (1000, 500)


def fibonomial_rec(n: int, k: int, form: str = "A") -> int:
    """Fibonomial coefficient by a two-term recurrence, form "A" or "B".

    Total on all k >= 0 and 0 <= n <= REC_MAX_N: (n, 0) is 1, (0, k) is 0
    for k > 0, and anything with k > n is 0.  A larger n is refused.  The
    DP keeps one row of k+1 entries and, in row i, updates only the cells
    max(1, k-(n-i)) <= j <= min(i, k) that can still reach (n, k): about
    n^2/4 big-integer steps at k = n/2.

    Form A steps with coefficients F_{k-1} and F_{n-k+2}; form B with
    F_{k+1} and F_{n-k}.  On the diagonal form B touches F_{-1} = 1.
    """
    if form not in ("A", "B"):
        raise ValueError(f"form must be 'A' or 'B', got {form!r}")
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if n > REC_MAX_N:
        raise ValueError(f"the recurrence is bounded by n <= {REC_MAX_N}, got n={n}")
    if k > n:
        return 0
    f = [fib(i) for i in range(-1, n + 2)]  # f[i + 1] = F_i
    # form A reads F_{j-1} = f[j] and F_{i-j+1} = f[i-j+2];
    # form B reads F_{j+1} = f[j+2] and F_{i-j-1} = f[i-j]
    s = 0 if form == "A" else 2
    row = [1] + [0] * k  # row i of the table, updated in place right to left
    for i in range(1, n + 1):
        t = i + 2 - s
        for j in range(min(i, k), max(1, k - (n - i)) - 1, -1):
            row[j] = f[j + s] * row[j] + f[t - j] * row[j - 1]
    return row[k]


def psi_binomial(seq: PsiSequence, n: int, k: int) -> Fraction:
    """Generalized binomial: falling product over factorial, as an exact rational.

    Integral for the Fibonacci and natural instances; callers wanting an
    int should check ``.denominator == 1``.
    """
    if k > n:
        raise ValueError(f"psi_binomial needs k <= n, got n={n}, k={k}")
    from fractions import Fraction  # imported here: with decimal it adds 4 ms to every start
    return Fraction(psi_falling(seq, n, k), psi_factorial(seq, k))
