import math
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb.cli import KONVALINA_MAX_WEIGHT
from cobweb.fib_core import fibonomial_def
from cobweb.konvalina import (
    BRUTE_MAX_K,
    BRUTE_MAX_N,
    WeightVector,
    brute_sum,
    c_first_kind,
    gaussian_binomial,
    pascal_binomial,
    s_second_kind,
    specialize,
    stirling1_unsigned,
    stirling2,
)


def test_weight_vector_validation():
    assert len(WeightVector((1, 2, 2, 5))) == 4
    with pytest.raises(ValueError):
        WeightVector((2, 1))
    with pytest.raises(ValueError):
        WeightVector((0, 1))
    with pytest.raises(ValueError):
        WeightVector((1, -2))


def test_c_first_kind_values():
    assert c_first_kind((1, 1, 1, 1), 2) == 6
    assert c_first_kind((1, 2, 4), 2) == 1 * 2 + 1 * 4 + 2 * 4 == 14
    assert c_first_kind((3, 5, 7), 0) == 1
    with pytest.raises(ValueError):
        c_first_kind((1, 2), 3)


def test_s_second_kind_values():
    assert s_second_kind((1, 2, 4), 2) == 1 + 2 + 4 + 4 + 8 + 16 == 35
    assert s_second_kind((1, 2, 3), 2) == 25
    assert s_second_kind((9,), 0) == 1
    assert s_second_kind((2,), 3) == 8  # one box, repeated


def test_brute_sum_values():
    assert brute_sum((1, 2, 3), 2, "first") == 2 + 3 + 6 == 11
    assert brute_sum((5,), 1, "first") == 5
    assert brute_sum((5,), 1, "second") == 5
    assert brute_sum((1, 1), 2, "second") == 3


def test_brute_sum_bounds_and_kind():
    with pytest.raises(ValueError):
        brute_sum((1,) * 13, 1, "first")
    with pytest.raises(ValueError):
        brute_sum((1, 2), 13, "second")
    with pytest.raises(ValueError):
        brute_sum((1, 2), 1, "third")


# the oracle's whole range, as `konvalina --brute` reaches it: up to 12 boxes, any weight the CLI
# takes, and repeated weights (the sampled ones)
weight_vectors = st.lists(
    st.integers(1, KONVALINA_MAX_WEIGHT) | st.sampled_from([1, 2, KONVALINA_MAX_WEIGHT]),
    min_size=1,
    max_size=BRUTE_MAX_N,
).map(lambda ws: WeightVector(tuple(sorted(ws))))


@settings(max_examples=60, deadline=None)
@given(weight_vectors, st.integers(0, BRUTE_MAX_K))
def test_dp_matches_brute_on_generated_weights(w, k):
    for j in range(len(w) + 1):
        assert c_first_kind(w, j) == brute_sum(w, j, "first")
    for j in range(k + 1):
        assert s_second_kind(w, j) == brute_sum(w, j, "second")


def test_dp_matches_literal_index_sums():
    # one more route: sum over index tuples, not weight tuples
    w = (1, 3, 3, 4)
    for k in range(5):
        first = sum(
            math.prod(w[i] for i in idx) for idx in combinations(range(4), k)
        )
        assert c_first_kind(w, k) == first
    for k in range(6):
        second = sum(
            math.prod(w[i] for i in idx)
            for idx in combinations_with_replacement(range(4), k)
        )
        assert s_second_kind(w, k) == second


def test_specialize_shapes():
    assert specialize("uniform", 4).weights == (1, 1, 1, 1)
    assert specialize("geometric", 3, 2).weights == (1, 2, 4)
    assert specialize("arithmetic", 3).weights == (1, 2, 3)
    with pytest.raises(ValueError):
        specialize("harmonic", 3)
    with pytest.raises(ValueError):
        specialize("geometric", 3)


def test_uniform_specialization_is_binomial():
    for n in range(1, 11):
        w = specialize("uniform", n)
        for k in range(n + 1):
            assert c_first_kind(w, k) == pascal_binomial(n, k) == math.comb(n, k)
        for k in range(11):
            assert s_second_kind(w, k) == math.comb(n + k - 1, k)


def test_geometric_specialization_is_gaussian():
    assert specialize("geometric", 4, 2) == WeightVector((1, 2, 4, 8))
    for q in (2, 3):
        for n in range(1, 7):
            w = specialize("geometric", n, q)
            for k in range(n + 1):
                assert c_first_kind(w, k) == q ** (k * (k - 1) // 2) * gaussian_binomial(n, k, q)
            for k in range(7):
                assert s_second_kind(w, k) == gaussian_binomial(n + k - 1, k, q)


def test_arithmetic_specialization_is_stirling():
    assert s_second_kind(specialize("arithmetic", 3), 2) == stirling2(5, 3) == 25
    assert c_first_kind(specialize("arithmetic", 3), 2) == stirling1_unsigned(4, 2) == 11
    for n in range(1, 8):
        w = specialize("arithmetic", n)
        for k in range(8):
            assert s_second_kind(w, k) == stirling2(n + k, n)
        for k in range(n + 1):
            assert c_first_kind(w, k) == stirling1_unsigned(n + 1, n + 1 - k)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 2, 2) == 7
    for n in range(7):
        assert gaussian_binomial(n, 0, 2) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(4, 2, 1)


def test_gaussian_binomial_symmetry():
    for q in (2, 3):
        for n in range(9):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_triangle_oracles_against_known_rows():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert [stirling1_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert stirling2(0, 0) == stirling1_unsigned(0, 0) == 1
    for n in range(10):
        for k in range(n + 1):
            assert pascal_binomial(n, k) == math.comb(n, k)


def test_no_weight_vector_gives_fibonomials():
    # the k = 1 column pins w_1 = 1 and then demands w_1 + w_2 = F_2 = 1
    for coef in (c_first_kind, s_second_kind):
        ones = [(w1,) for w1 in range(1, 7) if all(coef((w1,), k) == fibonomial_def(1, k) for k in range(2))]
        assert ones == [(1,)]
        for w1, w2 in combinations_with_replacement(range(1, 7), 2):
            assert coef((w1, w2), 1) != fibonomial_def(2, 1)
