import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cobweb.fib_core import fib
from cobweb.incidence import (
    TriangularMatrix,
    _antichain_block_ends,
    _back_substitute,
    chain_count,
    eta,
    maximal_chain_matrix,
    mobius,
    zeta_explicit,
    zeta_from_order,
)
from cobweb.poset import Vertex, from_linear, level_size, leq, to_linear, truncate


def brute_mobius(z):
    # oracle: the textbook interval recursion mu(x, y) = -sum_{x <= t < y} mu(x, t)
    n = z.size
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        out[x][x] = 1
        for y in range(x + 1, n):
            if not z.entry(x, y):
                continue
            out[x][y] = -sum(
                out[x][t] for t in range(x, y) if z.entry(x, t) and z.entry(t, y)
            )
    return out


def dfs_strict_chains(z, x, y):
    # oracle: walk every strict chain from x to y
    total = 0
    for t in range(x + 1, y + 1):
        if z.entry(x, t):
            total += 1 if t == y else dfs_strict_chains(z, t, y)
    return total


def test_matrix_rejects_lower_entries_and_nonsquare():
    with pytest.raises(ValueError):
        TriangularMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        TriangularMatrix([[1, 0, 0], [0, 1, 0]])


def test_matrix_is_immutable():
    m = TriangularMatrix.identity(3)
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(TypeError):
        m.rows[0][0] = 5


def test_matrix_arithmetic():
    a = TriangularMatrix([[1, 2], [0, 1]])
    b = TriangularMatrix([[1, 3], [0, 1]])
    assert (a * b).rows == ((1, 5), (0, 1))
    assert (a - b).rows == ((0, -1), (0, 0))
    assert (a + b).rows == ((2, 5), (0, 2))
    assert a.power(0) == TriangularMatrix.identity(2)
    assert a.power(3).rows == ((1, 6), (0, 1))


def test_zeta_from_order_examples():
    z3 = zeta_from_order(3)
    assert [z3.entry(3, j) for j in (3, 4)] == [1, 0]
    for L in range(6):
        z = zeta_from_order(L)
        assert all(z.entry(i, i) == 1 for i in range(z.size))
    z6 = zeta_from_order(6)
    assert [z6.entry(8, j) for j in range(9, 13)] == [0, 0, 0, 0]
    assert [z6.entry(8, j) for j in range(13, 21)] == [1] * 8


def test_zeta_explicit_examples():
    z = zeta_explicit(16)
    assert [z.entry(5, j) for j in range(5, 10)] == [1, 0, 0, 1, 1]
    assert all(z.entry(0, j) == 1 for j in range(16))
    assert [z.entry(11, j) for j in range(11, 16)] == [1, 0, 1, 1, 1]


def test_zeta_routes_agree():
    for L in range(11):
        assert zeta_from_order(L) == zeta_explicit(fib(L + 2))


def test_zeta_explicit_rejects_empty():
    with pytest.raises(ValueError):
        zeta_explicit(0)


def test_zeta_row_zero_runs():
    # row of (j, s) holds level_size(s) - j forbidden zeros right of the diagonal;
    # the top level agrees because F_{L+2} - F_{L+1} = F_L
    for L in (5, 8, 10):
        z = zeta_from_order(L)
        for x in range(z.size):
            v = from_linear(x)
            run = sum(1 for j in range(x + 1, z.size) if z.entry(x, j) == 0)
            assert run == level_size(v.level) - v.pos


def test_mobius_small_values():
    z = zeta_from_order(4)
    m = mobius(z)
    assert all(m.entry(i, i) == 1 for i in range(m.size))
    assert m.entry(0, to_linear(Vertex(1, 1))) == -1
    # interval with two middle elements
    assert m.entry(to_linear(Vertex(2, 1)), to_linear(Vertex(4, 1))) == 1


def test_mobius_matches_interval_recursion():
    for L in range(7):
        z = zeta_from_order(L)
        assert mobius(z).rows == tuple(tuple(r) for r in brute_mobius(z))


def test_mobius_is_exact_inverse():
    for L in range(11):
        z = zeta_from_order(L)
        m = mobius(z)
        ident = TriangularMatrix.identity(z.size)
        assert m * z == ident
        assert z * m == ident


def test_mobius_rejects_non_unitriangular():
    z = zeta_from_order(3)
    with pytest.raises(ValueError):
        mobius(eta(z))


def ordinal_sum_zeta(sizes):
    # zeta of antichains of the given sizes stacked in order: i <= j iff
    # i == j or i's block lies strictly below j's
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    return [[1 if i == j or block[i] < block[j] else 0 for j in range(n)] for i in range(n)]


block_sizes = st.lists(
    st.one_of(st.just(1), st.integers(1, 6), st.sampled_from([1, 2, 3, 5, 8])), max_size=7
)


def assert_exact_inverse(z, m):
    ident = TriangularMatrix.identity(z.size)
    assert m * z == ident
    assert z * m == ident


@settings(max_examples=150, deadline=None)
@given(block_sizes)
def test_mobius_level_route_matches_back_substitution(sizes):
    z = TriangularMatrix(ordinal_sum_zeta(sizes))
    ends = _antichain_block_ends(z.rows)
    assert ends == [sum(sizes[: b + 1]) for b in range(len(sizes))]
    m = mobius(z)
    assert m == _back_substitute(z)
    assert_exact_inverse(z, m)


@settings(max_examples=150, deadline=None)
@given(block_sizes.filter(lambda sizes: len(sizes) >= 2), st.data())
def test_mobius_falls_back_when_one_relation_is_missing(sizes, data):
    rows = ordinal_sum_zeta(sizes)
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    b = data.draw(st.integers(0, len(sizes) - 2))
    c = data.draw(st.integers(b + 1, len(sizes) - 1))
    i = data.draw(st.integers(starts[b], starts[b] + sizes[b] - 1))
    j = data.draw(st.integers(starts[c], starts[c] + sizes[c] - 1))
    # two adjacent singletons with their relation dropped merge into one
    # antichain of size two, which is an ordinal sum again
    assume(not (c == b + 1 and sizes[b] == sizes[c] == 1))
    rows[i][j] = 0
    z = TriangularMatrix(rows)
    assert _antichain_block_ends(z.rows) is None
    m = mobius(z)
    assert m == _back_substitute(z)
    assert_exact_inverse(z, m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    .map(lambda upper: (n, upper))
))
def test_mobius_inverts_general_unitriangular_matrices(case):
    n, upper = case
    assume(any(x not in (0, 1) for x in upper))  # not a zeta matrix at all
    entries = iter(upper)
    z = TriangularMatrix(
        [[1 if i == j else next(entries) if j > i else 0 for j in range(n)] for i in range(n)]
    )
    assert _antichain_block_ends(z.rows) is None
    m = mobius(z)
    assert m == _back_substitute(z)
    assert_exact_inverse(z, m)


def test_chain_count_examples():
    z = zeta_from_order(4)
    y = to_linear(Vertex(3, 1))
    assert chain_count(z, 0, y, 1) == 1
    assert chain_count(z, 0, y, 2) == 2  # through (1,1) or (1,2)
    total = sum(chain_count(z, 0, y, t) for t in range(1, 5))
    assert total == 4 == dfs_strict_chains(z, 0, y)


def dfs_chains_of_length(z, x, y, steps):
    # oracle: walk every strict chain from x to y with exactly ``steps`` steps
    if steps == 1:
        return 1 if x < y and z.entry(x, y) else 0
    return sum(
        dfs_chains_of_length(z, t, y, steps - 1) for t in range(x + 1, y) if z.entry(x, t)
    )


def test_chain_count_matches_dfs_for_each_length():
    for L in range(6):
        z = zeta_from_order(L)
        for x in range(z.size):
            for y in range(x + 1, z.size):
                for t in range(1, L + 2):
                    assert chain_count(z, x, y, t) == dfs_chains_of_length(z, x, y, t)


def test_chain_count_is_zero_on_the_diagonal_and_beyond_the_height():
    L = 5
    z = zeta_from_order(L)
    for x in range(z.size):
        assert chain_count(z, x, x, 1) == 0
        assert chain_count(z, x, x, 3) == 0
        for y in range(z.size):
            assert chain_count(z, x, y, L + 1) == 0
            assert chain_count(z, x, y, L + 4) == 0


def naive_product(a, b):
    # oracle: the textbook triple loop over plain lists
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def upper_triangular(n):
    # n x n matrices with entries in -3..3 on and above the diagonal
    rows = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    return rows.map(lambda m: [[x if j >= i else 0 for j, x in enumerate(r)] for i, r in enumerate(m)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(upper_triangular(n), upper_triangular(n))))
def test_product_matches_naive_triple_loop(pair):
    a, b = pair
    got = TriangularMatrix(a) * TriangularMatrix(b)
    assert [list(row) for row in got.rows] == naive_product(a, b)


def test_chain_count_argument_checks():
    z = zeta_from_order(3)
    with pytest.raises(ValueError):
        chain_count(z, 0, 99, 1)
    with pytest.raises(ValueError):
        chain_count(z, 0, 1, 0)


def test_eta_powers_count_all_strict_chains():
    for L in range(7):
        z = zeta_from_order(L)
        e = eta(z)
        totals = e - e
        p = e
        for _ in range(max(L, 1)):
            totals = totals + p
            p = p * e
        for x in range(z.size):
            for y in range(x + 1, z.size):
                assert totals.entry(x, y) == dfs_strict_chains(z, x, y)


def test_eta_nilpotency():
    for L in range(8):
        e = eta(zeta_from_order(L))
        assert e.power(L + 1).is_zero()
        if L >= 1:
            assert not e.power(L).is_zero()


def test_maximal_chain_matrix_examples():
    m = maximal_chain_matrix(5, 0, 3)
    assert m == [[1, 1]]
    assert sum(m[0]) == 2
    m = maximal_chain_matrix(5, 2, 4)
    assert m == [[2, 2, 2]]
    assert all(sum(row) == 6 for row in m)
    m = maximal_chain_matrix(5, 3, 3)
    assert m == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        maximal_chain_matrix(5, 4, 2)


def test_maximal_chain_matrix_row_sums_are_falling_products():
    for n in range(1, 7):
        for k in range(n + 1):
            m = maximal_chain_matrix(n, k, n)
            want = 1
            for s in range(k + 1, n + 1):
                want *= level_size(s)
            assert all(sum(row) == want for row in m)


def test_matrix_exports():
    z = zeta_from_order(3)
    csv = z.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "1,1,1,1,1"
    assert lines[3] == "0,0,0,1,0"
    doc = json.loads(json.dumps(z.to_json_dict()))
    assert doc["size"] == 5
    assert doc["rows"][3] == [0, 0, 0, 1, 0]
    dense = z.to_dense_text()
    assert dense.split("\n")[0] == "1 1 1 1 1"


def test_exports_render_big_integers_exactly():
    m = mobius(zeta_from_order(9))
    top = max(abs(x) for row in m.rows for x in row)
    assert str(top) in m.to_csv()  # decimal rendering, never scientific


def test_order_route_uses_the_order_itself():
    # spot-check a truncation against leq directly
    t = truncate(5)
    z = zeta_from_order(5)
    for i, u in enumerate(t.vertices):
        for j, v in enumerate(t.vertices):
            assert z.entry(i, j) == (1 if leq(u, v) else 0)
