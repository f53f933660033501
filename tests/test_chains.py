import json

import pytest

from cobweb import fib_core
from cobweb.chains import (
    ORACLE_MAX_N,
    brute_force_max_chains,
    chain_count_report,
    check_k1_degeneracy,
    fibonomial_via_chains,
    greedy_disjoint_copies,
    max_chains_from_fixed,
    max_chains_from_root,
    max_chains_level_to_level,
    recurrence_class_split,
)
from cobweb.fib_core import FIBONACCI, fib, fibonomial_def, psi_factorial
from cobweb.poset import ROOT, Vertex, level_size


def test_dfs_oracle_frozen_values():
    assert brute_force_max_chains(0, 4, ROOT) == 6
    assert brute_force_max_chains(3, 5, Vertex(3, 2)) == 15
    assert brute_force_max_chains(4, 4, Vertex(4, 2)) == 1


def test_max_chains_from_root():
    assert max_chains_from_root(0) == 1
    assert max_chains_from_root(5) == 30
    assert max_chains_from_root(7) == 3120
    for n in range(8):
        assert max_chains_from_root(n) == brute_force_max_chains(0, n, ROOT)


def test_max_chains_from_fixed():
    assert max_chains_from_fixed(2, 4) == 6  # F_4 * F_3
    assert max_chains_from_fixed(3, 3) == 1
    assert max_chains_from_fixed(0, 5) == 30
    with pytest.raises(ValueError):
        max_chains_from_fixed(5, 4)


def test_fixed_count_is_source_independent():
    for n in range(7):
        for k in range(n + 1):
            want = max_chains_from_fixed(k, n)
            for j in range(1, level_size(k) + 1):
                assert brute_force_max_chains(k, n, Vertex(k, j)) == want


def test_max_chains_level_to_level():
    assert max_chains_level_to_level(3, 5) == 2 * 15
    assert max_chains_level_to_level(2, 4) == 6
    assert max_chains_level_to_level(4, 4) == 3
    with pytest.raises(ValueError):
        max_chains_level_to_level(0, 4)
    with pytest.raises(ValueError):
        max_chains_level_to_level(5, 4)


def test_level_to_level_matches_dfs():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert max_chains_level_to_level(k, n) == brute_force_max_chains(k, n)


def test_fibonomial_via_chains_values():
    assert fibonomial_via_chains(4, 2) == 6
    assert fibonomial_via_chains(5, 3) == 15
    assert level_size(3) * fibonomial_via_chains(5, 3) == 30
    assert fibonomial_via_chains(5, 1) == 5
    with pytest.raises(ValueError):
        fibonomial_via_chains(3, 4)


def test_fibonomial_via_chains_equals_def_at_2000_1000():
    assert fibonomial_via_chains(2000, 1000) == fibonomial_def(2000, 1000)


def test_fibonomial_via_chains_refuses_an_inexact_division(monkeypatch):
    real = fib_core.fib
    # a copy's F_1000 is divided out of the fixed vertex's F_2000, so a wrong F_2000 leaves a remainder
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 2000))
    with pytest.raises(ArithmeticError, match=r"^inexact chain division for n=2000, k=1000$"):
        fibonomial_via_chains(2000, 1000)
    # at n=14, k=8 both multiples of 4 in 9..14 go to F_6 and F_5, so F_4 is left for the last division
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 4))
    with pytest.raises(ArithmeticError, match=r"^inexact chain division for n=14, k=8$"):
        fibonomial_via_chains(14, 8)


def test_chain_division_identity():
    # level 1s count times copies times per-copy chains gives the whole level's chains
    for n in range(1, 13):
        for k in range(1, n + 1):
            lhs = (
                level_size(k)
                * fibonomial_via_chains(n, k)
                * psi_factorial(FIBONACCI, n - k)
            )
            assert lhs == max_chains_level_to_level(k, n)


def test_four_routes_agree_to_12():
    from cobweb.fib_core import fibonomial_rec

    for n in range(13):
        for k in range(n + 1):
            want = fibonomial_def(n, k)
            assert fibonomial_rec(n, k, "A") == want
            assert fibonomial_rec(n, k, "B") == want
            assert fibonomial_via_chains(n, k) == want


def test_k1_degeneracy_reports():
    rep = check_k1_degeneracy(4)
    assert rep.flagged and rep.value == 3
    rep = check_k1_degeneracy(5)
    assert rep.flagged and rep.value == 5
    rep = check_k1_degeneracy(2)
    assert rep.flagged and rep.value == 1
    assert fib(1) == fib(2)  # the collision behind the flag
    with pytest.raises(ValueError):
        check_k1_degeneracy(1)


def test_recurrence_class_split_values():
    assert recurrence_class_split(4, 2) == (12, 3)
    for n in range(1, 9):
        assert recurrence_class_split(n, n) == (fib(n + 1), 0)
    assert recurrence_class_split(4, 1) == (3, 2)
    with pytest.raises(ValueError):
        recurrence_class_split(4, 0)
    with pytest.raises(ValueError):
        recurrence_class_split(4, 5)


def test_recurrence_class_split_sums():
    for n in range(1, 21):
        for k in range(1, n + 1):
            first, second = recurrence_class_split(n, k)
            assert first + second == fibonomial_def(n + 1, k)


def test_report_and_json():
    rep = chain_count_report(3, 5)
    assert rep.per_source == 15
    assert rep.total == 30
    assert rep.total == level_size(rep.from_level) * rep.per_source
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert doc == {"n": "5", "k": "3", "per_source": "15", "total": "30", "fibonomial": "15"}


def test_report_from_root_level():
    rep = chain_count_report(0, 5)
    assert rep.per_source == rep.total == 30


def test_oracle_bound():
    bound = ORACLE_MAX_N
    assert bound == 8
    assert brute_force_max_chains(bound, bound, Vertex(bound, 1)) == 1
    with pytest.raises(ValueError, match=f"DFS oracle bound is {bound}, got n={bound + 1}"):
        brute_force_max_chains(0, bound + 1, ROOT)


def test_dfs_source_level_mismatch():
    with pytest.raises(ValueError):
        brute_force_max_chains(2, 4, Vertex(3, 1))


def test_greedy_family_when_each_copy_is_one_chain():
    # heights 1 and 2 give single-chain copies, so greedy recovers the full count
    root = Vertex(2, 1)
    fam1 = greedy_disjoint_copies(root, 1)
    assert len(fam1) == fibonomial_def(3, 2) == 2
    fam2 = greedy_disjoint_copies(root, 2)
    assert len(fam2) == fibonomial_def(4, 2) == 6
    root3 = Vertex(3, 2)
    assert len(greedy_disjoint_copies(root3, 2)) == fibonomial_def(5, 3) == 15


def test_greedy_family_chains_are_disjoint():
    family = greedy_disjoint_copies(Vertex(2, 1), 3)
    seen = set()
    for copy in family:
        for chain in copy.chains():
            assert chain not in seen
            seen.add(chain)
            assert chain[0] == Vertex(2, 1)
            assert [v.level for v in chain] == [2, 3, 4, 5]


def test_greedy_family_can_fall_short_of_the_fibonomial():
    # height 3 copies hold 2 chains each, but each (level-3, level-4) prefix
    # feeds 5 chains, an odd number: no family of two-chain copies can cover
    # them, so greedy stalls at 12 of the 30 chains' worth against a count of 15
    family = greedy_disjoint_copies(Vertex(2, 1), 3)
    assert len(family) == 12 < fibonomial_def(5, 2) == 15


def test_greedy_copy_limit():
    with pytest.raises(ValueError):
        greedy_disjoint_copies(Vertex(2, 1), 3, copy_limit=3)


def test_fibonomial_via_chains_rejects_negative_arguments():
    for n, k in ((5, -1), (-1, 0), (-2, -3)):
        with pytest.raises(ValueError, match=f"need n, k >= 0, got n={n}, k={k}"):
            fibonomial_via_chains(n, k)
