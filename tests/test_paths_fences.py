import math
from itertools import combinations, permutations

import pytest

from cobweb.fib_core import fib, fibonomial_def
from cobweb.paths_fences import (
    FencePoset,
    beck_identity,
    fence_ideals,
    fence_ideals_brute,
    fibonomial_via_gv,
    gv_terms,
    iter_fence_ideals,
    path_determinant,
)


def binom0(a, b):
    return 0 if b < 0 or b > a else math.comb(a, b)


def permanent_style_det(m):
    # oracle: signed permutation expansion, fine for k <= 4
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):  # cycle-count parity
            if seen[start] or perm[start] == start:
                seen[start] = True
                continue
            length = 0
            t = start
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                length += 1
            if length % 2 == 0:
                sign = -sign
        total += sign * math.prod(m[i][perm[i]] for i in range(n))
    return total


def powerset_ideals(n, up_first=True):
    # oracle: filter all 2^n subsets by the cover constraints
    pairs = FencePoset(n, up_first).cover_pairs()
    count = 0
    for mask in range(1 << n):
        ok = all(not (mask >> hi) & 1 or (mask >> lo) & 1 for lo, hi in pairs)
        count += ok
    return count


def test_path_determinant_hand_cases():
    assert path_determinant((0, 2), 2) == 1  # det [[1, 0], [1, 1]]
    assert path_determinant((0, 1), 2) == 0  # det [[0, 0], [1, 0]]
    assert path_determinant((1,), 1) == 1  # C(1, 0)
    assert path_determinant((), 5) == 1  # empty subset


def test_path_determinant_validation():
    with pytest.raises(ValueError):
        path_determinant((2, 1), 3)
    with pytest.raises(ValueError):
        path_determinant((0, 4), 3)
    with pytest.raises(ValueError):
        path_determinant((-1, 2), 3)


def test_bareiss_matches_permutation_expansion():
    for n in range(2, 7):
        for k in range(1, min(n, 4) + 1):
            for r in combinations(range(n + 1), k):
                m = [[binom0(r[i], n - r[k - 1 - j]) for j in range(k)] for i in range(k)]
                assert path_determinant(r, n) == permanent_style_det(m)


def test_gv_frozen_term_values():
    assert dict(gv_terms(3, 2)) == {(0, 1): 0, (0, 2): 1, (1, 2): 1}
    assert fibonomial_via_gv(3, 2) == 2
    assert fibonomial_via_gv(2, 1) == 1
    assert [det for _, det in gv_terms(4, 1)] == [0, 0, 2, 1]
    assert fibonomial_via_gv(4, 1) == 3


def test_gv_matches_definition():
    for total in range(13):
        for k in range(total + 1):
            assert fibonomial_via_gv(total, k) == fibonomial_def(total, k)


def test_gv_bounds():
    with pytest.raises(ValueError):
        fibonomial_via_gv(15, 2)
    with pytest.raises(ValueError):
        fibonomial_via_gv(4, 5)


def test_gv_rejects_negative_arguments():
    for total, k in ((3, -1), (-1, 0), (-2, -3)):
        with pytest.raises(ValueError, match="n, k >= 0"):
            list(gv_terms(total, k))


def test_gv_k1_is_the_pascal_diagonal_sum():
    for total in range(1, 21):
        n = total - 1
        diagonal = sum(binom0(r, n - r) for r in range(n + 1))
        assert diagonal == fib(total)
        if total <= 14:
            assert fibonomial_via_gv(total, 1) == diagonal


def test_fence_cover_pairs():
    assert FencePoset(4).cover_pairs() == ((0, 1), (2, 1), (2, 3))
    assert FencePoset(4, up_first=False).cover_pairs() == ((1, 0), (1, 2), (3, 2))
    with pytest.raises(ValueError):
        FencePoset(0)


def test_fence_ideals_brute_small():
    assert fence_ideals_brute(1) == 2
    assert fence_ideals_brute(3) == 5
    assert fence_ideals_brute(4) == 8
    assert set(iter_fence_ideals(3)) == {
        frozenset(),
        frozenset({0}),
        frozenset({2}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    }


def test_enumerated_ideals_are_down_sets():
    for n in range(1, 9):
        for up_first in (True, False):
            pairs = FencePoset(n, up_first).cover_pairs()
            ideals = list(iter_fence_ideals(n, up_first))
            assert len(ideals) == len(set(ideals))
            for ideal in ideals:
                for lo, hi in pairs:
                    assert not (hi in ideal and lo not in ideal)


def recursive_fence_ideals(n, up_first=True):
    # the order oracle: a recursive generator, absent before present at each position
    pairs = FencePoset(n, up_first).cover_pairs()
    chosen = []

    def extend(p):
        if p == n:
            yield frozenset(i for i, c in enumerate(chosen) if c)
            return
        for c in (False, True):
            if p > 0:
                lo, hi = pairs[p - 1]
                member = {p: c, p - 1: chosen[p - 1]}
                if member[hi] and not member[lo]:
                    continue  # upper element without its lower neighbour
            chosen.append(c)
            yield from extend(p + 1)
            chosen.pop()

    yield from extend(0)


def test_enumerated_ideals_follow_the_recursive_order():
    for n in range(1, 15):
        for up_first in (True, False):
            assert list(iter_fence_ideals(n, up_first)) == list(recursive_fence_ideals(n, up_first))


def test_transfer_matches_enumeration():
    for n in range(1, 19):
        assert fence_ideals(n) == fence_ideals_brute(n)
    for n in range(1, 13):
        assert fence_ideals(n) == fence_ideals_brute(n, up_first=False)
        assert fence_ideals(n) == powerset_ideals(n)
        assert fence_ideals(n) == powerset_ideals(n, up_first=False)


def test_fence_counts_are_fibonacci():
    for n in range(1, 21):
        assert fence_ideals(n) == fib(n + 2)


def test_fence_bounds():
    with pytest.raises(ValueError):
        fence_ideals_brute(26)
    with pytest.raises(ValueError):
        fence_ideals(0)


def test_beck_identity_values():
    assert beck_identity(6, 3, 1)
    assert fib(6) == fib(3) * fib(4) + fib(2) * fib(3) == 8
    assert beck_identity(7, 3, 1)
    assert fib(7) == fib(3) * fib(5) + fib(2) * fib(4) == 13
    for n in range(1, 12):
        assert beck_identity(n, 1, 1)  # F_0 = 0 kills the second term


def test_beck_identity_all_small():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert beck_identity(n, k, 1)
            assert beck_identity(n, k, 2)


def test_beck_identity_validation():
    with pytest.raises(ValueError):
        beck_identity(3, 4, 1)
    with pytest.raises(ValueError):
        beck_identity(3, 0, 1)
    with pytest.raises(ValueError):
        beck_identity(3, 2, 3)
