import ast
import hashlib
import math
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
    with pytest.raises(ValueError, match="vanishes at 3;"):  # the first zero, read from the top
        psi_factorial(bad, 6)


def test_psi_factorial_grows_a_cold_table_in_one_run(monkeypatch):
    monkeypatch.setattr(fib_core, "_FIB", [0, 1])
    runs = []
    real = fib_core._fib_run
    monkeypatch.setattr(fib_core, "_fib_run", lambda a, b, count: runs.append(count) or real(a, b, count))
    assert psi_factorial(FIBONACCI, 300) == math.prod(FIBS[1:301])
    assert runs == [299]


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
    g = PsiSequence("geometric(3)", lambda n: 3 ** (n - 1))
    assert [g(n) for n in range(1, 5)] == [1, 3, 9, 27]
    assert psi_factorial(g, 3) == 27
    assert psi_binomial(g, 4, 2) == 3 ** (2 * 2)  # q^(k(n-k))


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


def pair_doubling(n):
    # oracle: (F_n, F_{n+1}) by doubling on consecutive Fibonacci numbers, no Lucas numbers
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def test_fib_above_the_table_matches_pair_doubling_around_powers_of_two():
    # 2^k - 1, 2^k and 2^k + 1 end on both last bits, with an odd and an even half index
    for k in range(12, 23):
        a, b = pair_doubling(2**k - 1)
        assert (fib(2**k - 1), fib(2**k), fib(2**k + 1)) == (a, b, a + b), k
    assert fib(4 * 10**6) == pair_doubling(4 * 10**6)[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(CAP, 64 * CAP))
@example(3 * CAP + 3)
def test_fib_above_the_table_matches_pair_doubling(n):
    assert fib(n) == pair_doubling(n)[0]


def test_fib_above_the_table_leaves_the_table_as_it_was():
    fib(CAP)
    table, before = fib_core._FIB, list(fib_core._FIB)
    for n in (CAP + 1, 2 * CAP, 10**5 + 1):
        fib(n)
        assert fib_core._FIB is table and len(table) == CAP + 1 and table == before


def counted_kernel(monkeypatch):
    # the Lucas-pair doubling, wrapped to record the index of each call
    calls, kernel = [], fib_core._fib_lucas
    monkeypatch.setattr(fib_core, "_fib_lucas", lambda m: calls.append(m) or kernel(m))
    return calls


@pytest.mark.parametrize("lo", [CAP - 2, CAP - 1, CAP, CAP + 1, CAP + 2, 10**5])
def test_a_window_above_the_table_takes_one_doubling(monkeypatch, lo):
    want = [fib(m) for m in range(lo, lo + 41)]
    calls = counted_kernel(monkeypatch)
    assert fib_core._sieve(lo, lo + 40, 2, [], "unused") == want  # top = 2 divides nothing
    assert calls == [lo - 1]


def test_big_integer_kernels_have_one_home():
    # a kernel defined outside bigint would escape the tests and patches that reach it through bigint
    for path in sorted(Path(bigint.__file__).parent.glob("*.py")):
        if path.name != "bigint.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            assert defs.isdisjoint({"_product", "decimal"}), path.name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_routes_agree_on_random_points(point):
    n, k = point
    want = fibonomial_def(n, k)
    assert fibonomial_rec(n, k, "A") == want
    assert fibonomial_rec(n, k, "B") == want
    assert fibonomial_via_chains(n, k) == want


def plain_quotient(n, k):
    # oracle: builtin divmod of plain products of the loop's F_m, with no primitive parts; only the
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


def test_def_and_chains_divide_no_big_number(monkeypatch):
    # on a fresh table the sieve runs too; each of its divisions is a builtin divmod of some F_m or less
    monkeypatch.setattr(fib_core, "_PRIM", [0, 1, 1])
    small = []
    monkeypatch.setattr(fib_core, "divmod", lambda a, b: small.append((a, b)) or divmod(a, b), raising=False)
    assert fibonomial_def(2000, 1000) == fibonomial_via_chains(2000, 1000)
    assert small and max(a.bit_length() for a, _ in small) == FIBS[2000].bit_length()


def fresh_table(monkeypatch, n=None):
    # an empty kept table of primitive parts, or one grown by the real sieve to n
    monkeypatch.setattr(fib_core, "_PRIM", [0, 1, 1])
    if n is not None:
        fibonomial_def(n, 0)
        assert len(fib_core._PRIM) == min(n, CAP) + 1
    return fib_core._PRIM


def test_fibonomial_def_refuses_an_inexact_division(monkeypatch):
    real = fib_core.fib
    # P_4 = F_4 = 3 divides F_2000, so the sieve leaves a remainder in a wrong F_2000
    fresh_table(monkeypatch)
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 2000))
    with pytest.raises(ArithmeticError, match=r"^inexact division in fibonomial\(2000, 1000\)$"):
        fibonomial_def(2000, 1000)
    # a wrong F_4 = 4 is taken as P_4, which leaves a remainder in F_8 = 21
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 4))
    with pytest.raises(ArithmeticError, match=r"^inexact division in fibonomial\(14, 6\)$"):
        fibonomial_def(14, 6)


PRIM_POINTS = [(0, 0), (1, 1), (2, 1), (3, 1), (12, 6), (40, 17), (400, 200), (1001, 3), (1001, 998), (1002, 501)]
PRIM_POINTS += [(CAP - 1, 2), (CAP, CAP - 3), (CAP + 1, 1), (CAP + 5, CAP + 2)]


@pytest.mark.parametrize("grown", [None, 401, 1001, CAP], ids=lambda n: f"grown_to_{n}")
def test_quotients_do_not_depend_on_the_primitive_part_table(monkeypatch, grown):
    fresh_table(monkeypatch, grown)
    for n, k in PRIM_POINTS:
        want = plain_quotient(n, k)
        assert fibonomial_def(n, k) == want, (grown, n, k)
        assert fibonomial_via_chains(n, n - k) == want, (grown, n, k)
    assert len(fib_core._PRIM) == CAP + 1  # filled to the cap, never past it


def wrong_seed(kernel, at):
    # the doubling with F_at one too big: a window seeded by it gets F_(at+2) and F_(at+3) one too big
    return lambda m: (lambda f, l: (f + (m == at), l))(*kernel(m))


def test_a_growth_that_raises_leaves_the_table_as_it_was(monkeypatch):
    real, kernel = fib_core.fib, fib_core._fib_lucas
    # the first three grow the table; above the cap only the window n-4 < m <= n is sieved, by P_3 and P_4,
    # from one doubling at n-4 = bad-3 and additions, so there the doubling makes F_bad wrong
    for grown, bad in ((None, 152), (401, 1000), (1001, CAP - 4), (CAP, CAP + 4), (4, CAP + 4)):
        table = fresh_table(monkeypatch, grown)
        before = list(table)
        # 4 | bad, so P_4 = F_4 = 3 divides F_bad and the sieve finds the wrong one
        monkeypatch.setattr(fib_core, "fib", lambda i, bad=bad: real(i) + (i == bad))
        monkeypatch.setattr(fib_core, "_fib_lucas", wrong_seed(kernel, bad - 3))
        with pytest.raises(ArithmeticError):
            fibonomial_def(bad + 1, 4)
        assert fib_core._PRIM is table and table == before, (grown, bad)
        monkeypatch.setattr(fib_core, "fib", real)
        monkeypatch.setattr(fib_core, "_fib_lucas", kernel)


def window_quotient(n, k):
    # oracle: the falling product of the window n-j < m <= n over F_j!, j = min(k, n-k), by builtin divmod
    j = min(k, n - k)
    q, r = divmod(math.prod(fib(m) for m in range(n - j + 1, n + 1)), math.prod(FIBS[1 : j + 1]))
    assert r == 0
    return q


def test_a_quotient_above_the_cap_takes_one_doubling_for_its_window(monkeypatch):
    n = 10**5
    want = window_quotient(n, 10)
    calls = counted_kernel(monkeypatch)
    assert fibonomial_def(n, 0) == fibonomial_def(n, n) == 1  # an empty window takes none
    assert calls == []
    assert fibonomial_def(n, 10) == want
    assert calls == [n - 10]  # the window n-10 < m <= n is seeded at F_(n-10)


def test_above_the_cap_the_cost_follows_min_k_n_minus_k(monkeypatch):
    # a sieve to n would make about n ln n divisions; the window sieve makes about j ln j + j
    fresh_table(monkeypatch)
    calls = []

    def counted(a, b):
        calls.append(a)
        if len(calls) > 100:
            raise AssertionError("over the division budget")
        return divmod(a, b)

    monkeypatch.setattr(fib_core, "divmod", counted, raising=False)
    n = 10**5
    assert fibonomial_def(n, 0) == fibonomial_def(n, n) == 1
    assert fibonomial_def(n, 1) == fibonomial_def(n, n - 1) == fib(n)
    assert fibonomial_via_chains(n, 1) == fibonomial_via_chains(n, n - 1) == fib(n)
    assert calls == []
    assert fibonomial_def(n, 10) == fibonomial_via_chains(n, 10) == window_quotient(n, 10)
    assert len(fib_core._PRIM) == 11


@pytest.mark.parametrize("cap", [12, 50])
def test_quotients_across_a_small_cap(monkeypatch, cap):
    # with the cap lowered, n > 2 cap reaches the sieve past the cap, whose parts serve one call only
    monkeypatch.setattr(fib_core, "_FIB_CAP", cap)
    fresh_table(monkeypatch)
    rows = sorted({cap - 1, cap, cap + 1, cap + 2, 2 * cap, 2 * cap + 1, 2 * cap + 2, 2 * cap + 3, 3 * cap + 7})
    for n in rows:
        for k in range(n + 1):
            want = plain_quotient(n, k)
            assert fibonomial_def(n, k) == want, (n, k)
            assert fibonomial_via_chains(n, n - k) == want, (n, k)
            assert len(fib_core._PRIM) <= cap + 1
    assert len(fib_core._PRIM) == cap + 1
    table = fib_core._PRIM
    before = list(table)
    # a sieve of the parts past the cap, cap < d <= 2 cap, that raises leaves the kept table as it was;
    # it is seeded by one doubling at cap, which makes F_(cap+2) and F_(cap+3) wrong; 3 | 12 + 3 and 4 | 50 + 2
    monkeypatch.setattr(fib_core, "_fib_lucas", wrong_seed(fib_core._fib_lucas, cap))
    with pytest.raises(ArithmeticError):
        fibonomial_def(4 * cap, 2 * cap)
    assert fib_core._PRIM is table and table == before


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
