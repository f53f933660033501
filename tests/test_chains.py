import json
from itertools import product

import pytest

from cobweb import fib_core
from cobweb.chains import (
    ORACLE_MAX_N,
    brute_force_max_chains,
    chain_count_report,
    check_k1_degeneracy,
    fibonomial_via_chains,
    max_chains_from_fixed,
    max_chains_from_root,
    max_chains_level_to_level,
    recurrence_class_split,
)
from cobweb.fib_core import FIBONACCI, fib, fibonomial_def, psi_factorial
from cobweb.poset import ROOT, Vertex, enumerate_copies_rooted, level_size


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
            dfs = sum(brute_force_max_chains(k, n, Vertex(k, j)) for j in range(1, level_size(k) + 1))
            assert max_chains_level_to_level(k, n) == dfs


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
    # on a fresh table the sieve sees the wrong F_2000, and P_4 = F_4 = 3 leaves a remainder in it
    monkeypatch.setattr(fib_core, "_PRIM", [0, 1, 1])
    monkeypatch.setattr(fib_core, "fib", lambda i: real(i) + (i == 2000))
    with pytest.raises(ArithmeticError, match=r"^inexact chain division for n=2000, k=1000$"):
        fibonomial_via_chains(2000, 1000)
    # a wrong F_4 = 4 is taken as P_4, which leaves a remainder in F_8 = 21
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


def copy_chains(copy):
    # the maximal chains of a copy: the root, then one vertex of each level subset
    return [(copy.root,) + tail for tail in product(*copy.level_subsets)]


def greedy_family(root, m):
    # take copies in enumeration order whenever their chains avoid every chain already claimed
    claimed, family = set(), []
    for copy in enumerate_copies_rooted(root, m):
        chains = copy_chains(copy)
        if claimed.isdisjoint(chains):
            claimed.update(chains)
            family.append(copy)
    return family


def test_greedy_family_when_each_copy_is_one_chain():
    # levels 1 and 2 hold one vertex each, so every level subset of a height-1 or height-2 copy has size 1:
    # the copy is one chain, distinct copies share no chain, and greedy keeps all of them
    for root, m, n, want in ((Vertex(2, 1), 1, 3, 2), (Vertex(2, 1), 2, 4, 6), (Vertex(3, 2), 2, 5, 15)):
        copies = list(enumerate_copies_rooted(root, m))
        assert all(len(subset) == 1 for copy in copies for subset in copy.level_subsets)
        assert len(greedy_family(root, m)) == len(copies) == fibonomial_def(n, root.level) == want


def test_greedy_family_chains_are_disjoint():
    seen = set()
    for copy in greedy_family(Vertex(2, 1), 3):
        for chain in copy_chains(copy):
            assert chain not in seen
            seen.add(chain)
            assert chain[0] == Vertex(2, 1)
            assert [v.level for v in chain] == [2, 3, 4, 5]


def test_greedy_family_can_fall_short_of_the_fibonomial():
    # at Vertex(2, 1) a height-3 copy fixes one (level-3, level-4) prefix and 2 of the 5 level-5 vertices, so it
    # holds 0 or 2 of the 5 chains through each prefix: an odd count that no chain-disjoint family covers,
    # although (5, 2)_F = 15 copies of 2 chains each would match the 30 chains by count; greedy stalls at 12
    copies = list(enumerate_copies_rooted(Vertex(2, 1), 3))
    assert {tuple(map(len, copy.level_subsets)) for copy in copies} == {(1, 1, fib(3))}
    assert level_size(5) == 5
    assert max_chains_from_fixed(2, 5) == 30 == fib(3) * fibonomial_def(5, 2)
    assert len(greedy_family(Vertex(2, 1), 3)) == 12 < fibonomial_def(5, 2) == 15


def test_fibonomial_via_chains_rejects_negative_arguments():
    for n, k in ((5, -1), (-1, 0), (-2, -3)):
        with pytest.raises(ValueError, match=f"need n, k >= 0, got n={n}, k={k}"):
            fibonomial_via_chains(n, k)
