"""Big-integer kernels: balanced products, recursive division and decimal strings of any size."""


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


def decimal(value: int) -> str:
    """Exact decimal string of ``value``, however many digits it has; the digit limit is left alone."""
    if value < 0:
        return "-" + decimal(-value)
    powers = [10**600]  # 10^(600 * 2^i), until the square of the last exceeds value
    while 2 * powers[-1].bit_length() - 1 <= value.bit_length():
        powers.append(powers[-1] * powers[-1])
    return _decimal(value, powers, len(powers))


def _decimal(value: int, powers: list[int], i: int) -> str:
    """Digits of 0 <= value < 10^(600 * 2^i), without leading zeros, split by _divmod at powers[i - 1];
    str() prints only values below 10^600, which any digit limit the interpreter accepts (640+) allows."""
    if i == 0:
        return str(value)
    if value < powers[i - 1]:  # no high half at this level
        return _decimal(value, powers, i - 1)
    high, low = _divmod(value, powers[i - 1])
    return _decimal(high, powers, i - 1) + _decimal(low, powers, i - 1).zfill(600 << (i - 1))
