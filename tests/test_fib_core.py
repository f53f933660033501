import ast
import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobweb import bigint, fib_core
from cobweb.chains import fibonomial_via_chains
from cobweb.fib_core import (
    FIBONACCI,
    NATURAL,
    REC_MAX_N,
    PsiSequence,
    fib,
    fibonomial_def,
    fibonomial_rec,
    geometric,
    psi_binomial,
    psi_factorial,
    psi_falling,
)


def unrolled_fib(n):
    # oracle: literal recurrence unrolling into a list
    seq = [0, 1]
    while len(seq) <= n:
        seq.append(seq[-1] + seq[-2])
    return seq[n]


def pascal_row(n):
    # oracle: additive triangle, no factorials
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def test_fib_base_and_frozen_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(5) == 5
    assert fib(10) == 55


def test_fib_matches_unrolled_recurrence():
    for n in range(60):
        assert fib(n) == unrolled_fib(n)


def test_fib_negative_indices():
    # F_{-n} = (-1)^{n+1} F_n, and the recurrence runs unchanged through 0
    for n in range(61):
        assert fib(-n) == (-1) ** (n + 1) * fib(n)
    for n in range(-62, 0):
        assert fib(n + 2) == fib(n + 1) + fib(n)


def test_psi_factorial_values():
    assert psi_factorial(FIBONACCI, 0) == 1
    assert psi_factorial(FIBONACCI, 5) == 30  # 1*1*2*3*5
    assert psi_factorial(NATURAL, 4) == 24
    assert psi_factorial(FIBONACCI, 7) == 3120


def test_psi_factorial_rejects_zero_value():
    bad = PsiSequence("hits-zero", lambda n: n - 3)
    assert psi_factorial(bad, 2) == 2  # (1-3)*(2-3)
    with pytest.raises(ValueError):
        psi_factorial(bad, 3)


def test_psi_falling_values():
    assert psi_falling(FIBONACCI, 5, 2) == 15  # F_5 * F_4
    assert psi_falling(FIBONACCI, 9, 0) == 1
    assert psi_falling(FIBONACCI, 5, 5) == psi_factorial(FIBONACCI, 5)


def test_psi_falling_rejects_k_above_x():
    with pytest.raises(ValueError):
        psi_falling(FIBONACCI, 3, 4)


def test_fibonomial_def_values():
    assert fibonomial_def(4, 2) == 6
    assert fibonomial_def(5, 3) == 15
    for n in range(12):
        assert fibonomial_def(n, 0) == 1


def test_fibonomial_def_rejects_k_above_n():
    with pytest.raises(ValueError):
        fibonomial_def(3, 4)


def test_fibonomial_rec_values():
    # unrolled once by hand: (5,2) = F_1*(4,2) + F_4*(4,1) = 1*6 + 3*3
    assert fibonomial_rec(5, 2, "A") == 1 * 6 + 3 * 3 == 15
    # and via form B coefficients: F_3*(4,2) + F_2*(4,1) = 2*6 + 1*3
    assert fibonomial_rec(5, 2, "B") == 2 * 6 + 1 * 3 == 15
    assert fibonomial_rec(0, 3, "A") == 0
    assert fibonomial_rec(0, 0, "A") == 1
    assert fibonomial_rec(2, 7, "B") == 0  # k > n extension


def test_fibonomial_rec_rejects_bad_form():
    with pytest.raises(ValueError):
        fibonomial_rec(4, 2, "C")


def test_recurrence_forms_equal_definition():
    for n in range(21):
        for k in range(n + 1):
            want = fibonomial_def(n, k)
            assert fibonomial_rec(n, k, "A") == want
            assert fibonomial_rec(n, k, "B") == want


def test_fibonomial_symmetry():
    for n in range(21):
        for k in range(n + 1):
            assert fibonomial_def(n, k) == fibonomial_def(n, n - k)


def test_cross_identity_between_forms():
    # F_k (n, k) = F_{n-k+1} (n, k-1) is what makes forms A and B agree
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert fib(k) * fibonomial_def(n, k) == fib(n - k + 1) * fibonomial_def(n, k - 1)


def test_fibonomial_integrality_to_60():
    for n in range(61):
        for k in range(n + 1):
            fibonomial_def(n, k)  # would raise ArithmeticError on a remainder


def test_psi_binomial_values():
    assert psi_binomial(NATURAL, 5, 2) == 10
    assert psi_binomial(FIBONACCI, 6, 3) == 60  # 240 / (2*2) in F-factorials
    assert psi_binomial(FIBONACCI, 3, 1) == 2
    with pytest.raises(ValueError):
        psi_binomial(NATURAL, 2, 3)


def test_psi_binomial_natural_matches_pascal():
    for n in range(21):
        row = pascal_row(n)
        for k in range(n + 1):
            got = psi_binomial(NATURAL, n, k)
            assert got == row[k]
            assert got.denominator == 1


def test_psi_binomial_returns_exact_rational():
    odd = PsiSequence("odd", lambda n: 2 * n - 1)
    assert psi_binomial(odd, 3, 2) == Fraction(5, 1)  # (5*3)/(3*1)
    skewed = PsiSequence("squares-plus-one", lambda n: n * n + 1)
    # (17*10*5)/(10*5*2) does not reduce to an integer
    assert psi_binomial(skewed, 4, 3) == Fraction(17, 2)


def test_geometric_sequence():
    g = geometric(3)
    assert [g(n) for n in range(1, 5)] == [1, 3, 9, 27]
    assert psi_factorial(g, 3) == 27
    assert psi_binomial(g, 4, 2) == 3 ** (2 * 2)  # q^(k(n-k))
    with pytest.raises(ValueError):
        geometric(0)


def test_fibonacci_sequence_instance():
    assert FIBONACCI(0) == 0
    assert [FIBONACCI(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]
    assert math.gcd(fibonomial_def(30, 15), 1) >= 1  # big values stay exact ints
    assert isinstance(fibonomial_def(40, 20), int)


def loop_fibs(n):
    # oracle: F_0..F_n by the plain loop, one list
    out = [0, 1]
    for _ in range(n - 1):
        out.append(out[-1] + out[-2])
    return out[: n + 1]


CAP = fib_core._FIB_CAP
FIBS = loop_fibs(3 * CAP)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3 * CAP))
@example(CAP - 1)
@example(CAP)
@example(CAP + 1)
@example(3 * CAP)
def test_fib_matches_plain_loop_across_the_table_cap(n):
    assert fib(n) == FIBS[n]


def test_fib_does_not_depend_on_table_state(monkeypatch):
    # a fresh table, asked for the largest index first, then walking down
    monkeypatch.setattr(fib_core, "_FIB", [0, 1])
    for n in (3 * CAP, CAP + 1, CAP, CAP - 1, 2 * CAP + 7, 100, 3, 0, CAP // 2):
        assert fib(n) == FIBS[n]
    assert len(fib_core._FIB) == CAP + 1  # filled to the cap, never past it
    assert fib_core._FIB == FIBS[: CAP + 1]


LIMIT = bigint._DIV_LIMIT


@st.composite
def division_operands(draw):
    # sizes come from a seeded generator so they spread evenly up to 2*10^5 bits
    rng = random.Random(draw(st.integers(0, 2**32)))
    b_bits = draw(st.sampled_from([2, LIMIT - 1, LIMIT, LIMIT + 1, LIMIT + 2, 2 * LIMIT + 1, 0]))
    b_bits = b_bits or rng.randint(2, 100_000)
    a_bits = rng.randint(b_bits, 200_000)
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    a = rng.getrandbits(a_bits)
    shape = draw(st.sampled_from(["random", "one", "power", "smaller", "multiple"]))
    if shape == "one":
        b = 1
    elif shape == "power":
        b = 1 << b_bits
    elif shape == "smaller":
        a = rng.randrange(b)
    elif shape == "multiple":
        a = b * rng.getrandbits(a_bits - b_bits)
    return a, b


@settings(max_examples=100, deadline=None)
@given(division_operands())
def test_recursive_division_equals_divmod(operands):
    a, b = operands
    assert bigint._divmod(a, b) == divmod(a, b)


def test_recursive_division_edge_cases():
    big = (1 << 50_000) + 12345
    ones = (1 << 9001) - 1  # the top halves of both operands tie, so q starts at 2^n - 1
    for a, b in (
        (big * big + 7, big), (big * big, big), (big - 1, big), (0, big), ((ones << 9001) - 1, ones),
        (-(big * big), big), (big * big, -big), (big * 3, 1), ((1 << 60_000) - 1, 1 << 8000),
    ):
        assert bigint._divmod(a, b) == divmod(a, b)
    with pytest.raises(ZeroDivisionError):
        bigint._divmod(big, 0)


def test_recursive_division_with_a_tiny_limit(monkeypatch):
    # at a 2-bit limit small operands recurse deeply and take every branch:
    # odd splits, tied top halves and the second quotient correction
    monkeypatch.setattr(bigint, "_DIV_LIMIT", 2)
    rng = random.Random(20261018)
    for _ in range(2000):
        b_bits = rng.randint(1, 64)
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        a = rng.getrandbits(rng.randint(0, 300))
        assert bigint._divmod(a, b) == divmod(a, b), (a, b)


def test_big_integer_kernels_have_one_home():
    # a kernel defined, or the limit copied, outside bigint would escape the patches above
    for path in sorted(Path(bigint.__file__).parent.glob("*.py")):
        if path.name != "bigint.py":
            text = path.read_text(encoding="utf-8")
            defs = {node.name for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)}
            assert defs.isdisjoint({"_product", "_divmod", "_div2n1n", "_div3n2n", "decimal"}), path.name
            assert "_DIV_LIMIT" not in text, path.name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_routes_agree_on_random_points(point):
    n, k = point
    want = fibonomial_def(n, k)
    assert fibonomial_rec(n, k, "A") == want
    assert fibonomial_rec(n, k, "B") == want
    assert fibonomial_via_chains(n, k) == want


def plain_quotient(n, k):
    # oracle: builtin divmod of plain products of the loop's F_m, with no Lucas cancellation; only the
    # factors F_{n-k+1..k} that numerator F_{n-k+1..n} and divisor F_{1..k} share are left out of both
    low = max(k, n - k)
    q, r = divmod(math.prod(FIBS[low + 1 : n + 1]), math.prod(FIBS[1 : n - low + 1]))
    assert r == 0
    return q


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example((400, 200))
@example((397, 3))
def test_cancelled_quotients_match_the_plain_quotient(point):
    n, k = point
    want = plain_quotient(n, k)
    assert fibonomial_def(n, k) == want
    assert fibonomial_via_chains(n, k) == want


def test_cancelled_quotients_at_the_edges_of_k_and_the_table():
    points = [(n, k) for n in range(41) for k in {0, 1, 2, 3, n - 1, n} if 0 <= k <= n]
    points += [(n, k) for n in range(CAP - 2, CAP + 4) for k in (0, 1, 2, 3, n - 3, n - 2, n - 1, n)]
    for n, k in points:
        want = plain_quotient(n, k)
        assert fibonomial_def(n, k) == want, (n, k)
        assert fibonomial_via_chains(n, k) == want, (n, k)


def test_fibonomial_def_pinned_at_2000_1000():
    # recorded from the uncancelled falling product over F_1000!, divided in one step
    value = fibonomial_def(2000, 1000)
    assert value.bit_length() == 694242
    digest = hashlib.sha256(format(value, "x").encode()).hexdigest()
    assert digest == "994eaac6b24ebc4aed3896f365585d7db1e525c1a76ef9bd18d58f4cb9b2804d"


def test_cancellation_leaves_one_small_division(monkeypatch):
    # at (2000, 1000) the 244 F_j with no free multiple make 38 406 bits, against 346 kbit for F_1000!
    divisions = []
    real = fib_core._divmod

    def recorded(a, b):
        divisions.append((a.bit_length(), b.bit_length()))
        return real(a, b)

    monkeypatch.setattr(fib_core, "_divmod", recorded)
    fibonomial_def(2000, 1000)
    fibonomial_via_chains(2000, 1000)
    assert divisions == [(732648, 38406)] * 2


def test_fibonomial_def_refuses_an_inexact_division(monkeypatch):
    real = fib_core.fib
    # F_1000 is divided out of F_2000 on its own, so a wrong F_2000 leaves a remainder there
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 2000))
    with pytest.raises(ArithmeticError, match=r"^inexact division in fibonomial\(2000, 1000\)$"):
        fibonomial_def(2000, 1000)
    # at (14, 6) both multiples of 4 in 9..14 go to j = 6 and 5, so F_4 is left for the last division
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 4))
    with pytest.raises(ArithmeticError, match=r"^inexact division in fibonomial\(14, 6\)$"):
        fibonomial_def(14, 6)


def full_table_rec(n, form):
    # oracle: the whole (n+1) x (n+3) table row by row, F_{-1} = 1 by hand
    fibs = loop_fibs(n + 1)

    def f(i):
        return 1 if i == -1 else fibs[i]

    prev = [1] + [0] * (n + 2)
    for i in range(1, n + 1):
        cur = [1] + [0] * (n + 2)
        for j in range(1, i + 1):
            if form == "A":
                cur[j] = f(j - 1) * prev[j] + f(i - j + 1) * prev[j - 1]
            else:
                cur[j] = f(j + 1) * prev[j] + f(i - 1 - j) * prev[j - 1]
        prev = cur
    return prev


def test_banded_recurrence_matches_full_table():
    for form in ("A", "B"):
        for n in range(41):
            want = full_table_rec(n, form)
            for k in range(n + 3):
                assert fibonomial_rec(n, k, form) == want[k], (n, k, form)


def test_fibonomial_rec_is_bounded():
    assert fibonomial_rec(REC_MAX_N, 3, "B") == fibonomial_def(REC_MAX_N, 3)
    for form in ("A", "B"):
        with pytest.raises(ValueError, match=f"bounded by n <= {REC_MAX_N}, got n={REC_MAX_N + 1}"):
            fibonomial_rec(REC_MAX_N + 1, 2, form)
