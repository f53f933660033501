"""Fibonacci numbers, generalized sequence factorials, and fibonomials.

Everything is exact: plain Python integers throughout, with
``fractions.Fraction`` only where a quotient is not known to be integral.
"""

from __future__ import annotations

from collections.abc import Callable

from .bigint import _product
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
    Indices up to 4096 come from a shared prefix table, extended on demand. Larger ones are not cached:
    ``_fib_lucas`` doubles (F_m, L_m), L the Lucas numbers, over the bits of m = n // 2 by F_2m = F_m L_m and
    L_2m = L_m^2 - 2(-1)^m, a 1 bit stepping by F_{m+1} = (F_m + L_m)/2 and L_{m+1} = (5F_m + L_m)/2, so each
    bit costs one product and one square. The last bit needs F alone, so it costs one product:
    F_2m = F_m L_m, or F_2m+1 = F_{m+1} L_m - (-1)^m.
    """
    if n < 0:  # before the table read: _FIB[-1] would be the last entry
        return fib(-n) if n % 2 else -fib(-n)
    if n < len(_FIB):
        return _FIB[n]
    if n <= _FIB_CAP:
        start = len(_FIB)
        _FIB[start : n + 1] = _fib_run(_FIB[start - 2], _FIB[start - 1], n + 1 - start)  # never shrinks the table
        return _FIB[n]
    f, l = _fib_lucas(n >> 1)
    return ((f + l) >> 1) * l + (1 if n & 2 else -1) if n & 1 else f * l


def _fib_run(a: int, b: int, count: int) -> list[int]:
    """F_{m+1}..F_{m+count} from a = F_{m-1} and b = F_m, by addition."""
    out = []
    for _ in range(count):
        a, b = b, a + b
        out.append(b)
    return out


def _fib_lucas(m: int) -> tuple[int, int]:
    """(F_m, L_m) for m >= 1, by the doubling that ``fib`` describes."""
    f, l, s = 1, 1, 2  # F_1, L_1 and -2(-1)^1
    for bit in bin(m)[3:]:
        f, l, s = f * l, l * l + s, -2
        if bit == "1":
            f, l, s = (f + l) >> 1, (5 * f + l) >> 1, 2
    return f, l


FIBONACCI = PsiSequence("fibonacci", fib)
NATURAL = PsiSequence("natural", lambda n: n)


def psi_factorial(seq: PsiSequence, n: int) -> int:
    """Product seq(n) * seq(n-1) * ... * seq(1); the empty product is 1."""
    if n < 0:
        raise ValueError(f"psi_factorial expects n >= 0, got {n}")
    values = [seq.values(m) for m in range(n, 0, -1)][::-1]  # read from the top: a table (fib) grows in one call
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


_PRIM = [0, 1, 1]  # _PRIM[d] = P_d, the primitive part of F_d, grown on demand up to _FIB_CAP


def _sieve(lo: int, hi: int, top: int, parts: list[int], inexact: str) -> list[int]:
    """F_lo..F_hi, each F_m divided by P_d for every d | m, 3 <= d <= top, d < m; parts gives P_d for d < lo.

    In ascending d, P_d is what is left of F_d at its turn. A remainder raises ArithmeticError(inexact).
    A window that reaches above _FIB_CAP takes one doubling for F_{lo-1} and the rest by addition.
    """
    if hi <= _FIB_CAP:
        fib(hi)  # grows the table in one call, so the reads below are table hits
        new = [fib(m) for m in range(lo, hi + 1)]
    else:
        f, l = _fib_lucas(lo - 1)
        new = _fib_run((l - f) >> 1, f, hi - lo + 1)
    for d in range(3, top + 1):
        p = parts[d] if d < lo else new[d - lo]
        for m in range(max(2 * d, -(-lo // d) * d), hi + 1, d):
            new[m - lo], r = divmod(new[m - lo], p)
            if r:
                raise ArithmeticError(inexact)
    return new


def _fib_quotient(n: int, k: int, inexact: str) -> int:
    """F_n! / (F_k! * F_{n-k}!) for 0 <= k <= n, dividing single F_m only; a remainder raises ArithmeticError(inexact).

    F_m is the product of the primitive parts P_d, d | m (Knuth & Wilf 1989), so F_n! = prod P_d^floor(n/d)
    and the quotient is the product of the P_d whose e_d = floor(n/d) - floor(k/d) - floor((n-k)/d) is 1.
    Above _FIB_CAP only the P_d, d <= j = min(k, n-k), are sieved. A larger d has e_d = 1 just when it divides
    an m with n-j < m <= n, and then only one, so those P_d multiply to the window's F_m, each sieved to d <= j.
    """
    j = min(k, n - k)
    top = n if n <= _FIB_CAP else j
    parts, lo = _PRIM, len(_PRIM)
    if lo <= top:  # parts above the cap serve this call only
        parts = parts[:lo] + _sieve(lo, top, top, parts, inexact)
        _PRIM[lo : min(top, _FIB_CAP) + 1] = parts[lo : _FIB_CAP + 1]  # publishes a whole checked growth, never shrinks
    quotient = [parts[d] for d in range(3, top + 1) if n // d - k // d - (n - k) // d]
    return _product(quotient + _sieve(n - j + 1, n, j, parts, inexact) if 0 < top < n else quotient)


def fibonomial_def(n: int, k: int) -> int:
    """Fibonomial coefficient by its defining quotient of Fibonacci factorials, F_n! / (F_k! * F_{n-k}!).

    ``_fib_quotient`` evaluates it exactly as a product of Fibonacci primitive parts, each to the power 0
    or 1; the sieve that finds the parts checks every remainder, and no product is ever divided.
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
