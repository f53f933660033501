"""Big-integer kernels: balanced products and decimal strings of any size."""

_STR_MAX = 10**600  # str() prints below it under any digit limit the interpreter accepts (640+)


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


def decimal(value: int) -> str:
    """Exact decimal string of ``value``, however many digits it has; the digit limit is left alone.

    Below 10^600 this is str().  Above it, value is split by the powers
    2^(1024 * 2^i) into chunks of at most 1024 bits, each converted by
    Decimal(int), and the chunks are joined as hi * 2^w + lo in a private
    exact libmpdec context, as CPython 3.12's _pylong does; str() of that
    Decimal integer gives the digits.  A rounding would raise
    decimal.Inexact.  The caller's decimal context is never touched.
    """
    if -_STR_MAX < value < _STR_MAX:
        return str(value)
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    powers = [Decimal(1 << 1024)]  # 2^(1024 * 2^i), until twice the last width reaches value's bits
    while 1024 << len(powers) < value.bit_length():
        powers.append(exact.multiply(powers[-1], powers[-1]))

    def join(v: int, i: int) -> Decimal:  # 0 <= v < 2^(2048 * 2^i)
        if v.bit_length() <= 1024:
            return Decimal(v)
        w = 1024 << i
        if v.bit_length() <= w:  # no high half at this level
            return join(v, i - 1)
        return exact.add(exact.multiply(join(v >> w, i - 1), powers[i]), join(v & (1 << w) - 1, i - 1))

    return "-" * (value < 0) + str(join(abs(value), len(powers) - 1))
