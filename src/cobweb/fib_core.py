"""Fibonacci numbers, generalized sequence factorials, and fibonomials.

Everything is exact: plain Python integers throughout, with
``fractions.Fraction`` only where a quotient is not known to be integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class PsiSequence:
    """An integer sequence that generates factorials and binomials.

    ``values(n)`` must be nonzero for every n >= 1 (the factorial
    machinery divides by these); the value at 0 is unconstrained and
    never enters a product.
    """

    name: str
    values: Callable[[int], int]

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


def _product(values: list[int]) -> int:
    """Product of ``values`` by a balanced tree; the empty product is 1.

    Pairing neighbours keeps the factors of each multiplication about
    equal in size, which is where the interpreter's Karatsuba pays off.
    """
    while len(values) > 1:
        paired = [a * b for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0] if values else 1


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


_DIV_LIMIT = 4000  # bits; below it the builtin schoolbook divmod is faster


def _divmod(a: int, b: int) -> tuple[int, int]:
    """Exactly ``divmod(a, b)``, by Burnikel-Ziegler recursion for big b.

    CPython 3.11 divides in quadratic time.  For a >= 0 and a divisor b of
    n > _DIV_LIMIT bits, a is taken in base-2^n digits from the top, and
    each two-digit step is split recursively into half-size divisions, so
    the cost follows multiplication (Karatsuba) instead.
    """
    n = b.bit_length()
    if a < 0 or b <= 0 or n <= _DIV_LIMIT:
        return divmod(a, b)
    q, r = 0, 0
    mask = (1 << n) - 1
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | (a >> shift) & mask, b, n)
        q = q << n | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^n."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1  # make n even, keeping b's top bit set
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """One half-step of _div2n1n: divide a12 * 2^n + a3 by b = b1 * 2^n + b2.

    The quotient is estimated from the top halves alone, then corrected;
    b's top bit is set, so at most two corrections are needed.
    """
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def fibonomial_def(n: int, k: int) -> int:
    """Fibonomial coefficient by its defining quotient of Fibonacci factorials.

    Equals F_n! / (F_k! * F_{n-k}!); the division is asserted exact.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        raise ValueError(f"fibonomial_def needs k <= n, got n={n}, k={k}")
    q, r = _divmod(psi_falling(FIBONACCI, n, k), psi_factorial(FIBONACCI, k))
    if r:
        # cannot happen for the Fibonacci sequence; guards against a broken build
        raise ArithmeticError(f"inexact division in fibonomial({n}, {k})")
    return q


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
    return Fraction(psi_falling(seq, n, k), psi_factorial(seq, k))
