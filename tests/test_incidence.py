import copy
import json
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobweb import incidence
from cobweb.chains import brute_force_max_chains
from cobweb.cli import ZETA_MAX_LEVELS, main
from cobweb.fib_core import fib
from cobweb.incidence import (
    TriangularMatrix,
    _back_substitute,
    _staircase,
    _vec_mat_chains,
    chain_count,
    eta,
    maximal_chain_matrix,
    mobius,
    zeta_explicit,
    zeta_from_order,
)
from cobweb.poset import CobwebTruncation, Vertex, from_linear, level_size, leq, to_linear, truncate


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


def test_kept_closure_fields_cannot_be_deleted():
    z = zeta_from_order(3)
    size, form = z.size, z.level_form()
    for name in ("_levels", "_rows", "rows"):
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert zeta_from_order(3) is z and z.size == size and z.level_form() is form


def test_matrix_arithmetic():
    a = TriangularMatrix([[1, 2], [0, 1]])
    b = TriangularMatrix([[1, 3], [0, 1]])
    assert (a * b).rows == ((1, 5), (0, 1))
    with pytest.raises(TypeError):  # no sum: nothing in the library adds matrices
        a + b
    with pytest.raises(TypeError):  # no difference: eta subtracts the diagonal itself
        a - b
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
        # the closure reads off its bitsets the level form the staircase was built from
        assert zeta_from_order(L).level_form() == zeta_explicit(fib(L + 2)).level_form()


def test_closure_rows_and_level_form_match_the_validating_constructor():
    for L in range(15):
        z = zeta_from_order(L)
        checked = TriangularMatrix(z.rows)  # __init__ coerces and checks every entry
        assert z.rows == checked.rows and checked.level_form() is None
        assert z.level_form() == zeta_explicit(fib(L + 2)).level_form()
        assert all(type(x) is int for row in z.rows for x in row)


def level_built_matrices():
    # every kind of matrix the library builds with a level form
    for L in range(15):
        yield zeta_from_order(L)
    for size in range(1, fib(11) + 1):
        yield zeta_explicit(size)
    for L in range(9):
        z = zeta_from_order(L)
        m, e = mobius(z), eta(z)
        yield from (m, e, eta(e), m * z, z * m, e * m, e.power(2), e.power(L + 1), z.power(3))


def test_a_level_form_regenerates_its_rows(monkeypatch):
    monkeypatch.setattr(incidence, "_ZETA", {})  # fresh closures, whose rows no other test has read
    for m in {id(m): m for m in level_built_matrices()}.values():  # e.power(1) is e: each object once
        form = m.level_form()
        # neither construction nor the level routes, the size or the text build the N^2 rows
        m.size, m.to_dense_text(), m.to_csv(), m.to_json_text(), chain_count(m, 0, m.size - 1, 2)
        assert callable(m._rows) and m.level_form() is form
        rows = m.rows
        assert _staircase(*form) == list(rows) and type(rows) is tuple
        assert m.rows is rows and not callable(m._rows)  # built once, then kept
        with pytest.raises(AttributeError):
            m.rows = rows
        assert TriangularMatrix(m.rows).level_form() is None  # only the library's constructors set one


def test_every_matrix_can_be_copied_and_pickled(monkeypatch):
    monkeypatch.setattr(incidence, "_ZETA", {})  # fresh closures, whose rows no other test has read
    broken, _ = closure_of_edited_edges(monkeypatch, 5, lambda edges: edges[1:])  # a closure with no form
    monkeypatch.setattr(incidence, "truncate", truncate)
    z = zeta_from_order(7)
    for m in (zeta_explicit(5), mobius(z), eta(z).power(2), z, TriangularMatrix([[1, 2], [0, 3]]), broken):
        form = m.level_form()
        copies = copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))
        for c in copies:
            assert type(c) is TriangularMatrix and c.level_form() == form
            assert callable(c._rows) == callable(m._rows) == (form is not None)  # a form is copied, not rows
        assert all(c == m for c in copies)
    assert broken.level_form() is None and broken == TriangularMatrix(broken.rows)


def validated_closure(t):
    # oracle: the closure as zeta_from_order takes it, its rows given to the validating constructor
    n = t.vertex_count
    reach = [1 << i for i in range(n)]
    for i, j in sorted(t.edges, reverse=True):
        reach[i] |= reach[j]
    return TriangularMatrix([[r >> j & 1 for j in range(n)] for r in reach])


def closure_of_edited_edges(monkeypatch, L, edit):
    # zeta_from_order and the oracle on truncate(L) with its cover edges edited: (matrix or error) each
    t = truncate(L)
    edited = CobwebTruncation(L, t.vertices, tuple(edit(list(t.edges))))
    monkeypatch.setattr(incidence, "truncate", lambda max_level: edited)
    results = []
    for build in (lambda: zeta_from_order(L), lambda: validated_closure(edited)):
        try:
            results.append(build())
        except ValueError as exc:
            results.append(str(exc))
    return results


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_closure_of_broken_covers_matches_the_validating_constructor(L, data):
    t = truncate(L)
    z = zeta_from_order(L)
    pick = st.integers(0, len(t.edges) - 1)
    with pytest.MonkeyPatch.context() as mp:
        # one cover edge dropped: the relation is no ordinal sum any more
        gap = data.draw(pick)
        got, want = closure_of_edited_edges(mp, L, lambda edges: edges[:gap] + edges[gap + 1 :])
        assert got.rows == want.rows and got.level_form() is None
        # a redundant transitive edge: the same relation and level form
        i, j = data.draw(st.sampled_from([(i, j) for i in range(z.size) for j in range(i + 1, z.size) if z.entry(i, j)]))
        got, want = closure_of_edited_edges(mp, L, lambda edges: edges + [(i, j)])
        assert got.rows == want.rows == z.rows and got.level_form() == z.level_form()
        # an edge down the order: the same error, naming the same row
        i, j = tuple(t.edges)[data.draw(pick)]
        got, want = closure_of_edited_edges(mp, L, lambda edges: edges + [(j, i)])
        assert got == want and want.startswith("nonzero entry below the diagonal in row ")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.booleans(), st.randoms(use_true_random=False), st.data())
def test_closure_does_not_depend_on_the_edge_order(L, drop, down, rnd, data):
    edges = list(truncate(L).edges)
    if drop:  # no level form
        del edges[data.draw(st.integers(0, len(edges) - 1))]
    if down:  # an edge down the order: an error naming the first row below the diagonal
        i = data.draw(st.integers(1, fib(L + 2) - 1))
        edges.append((i, data.draw(st.integers(0, i - 1))))
    shuffled = rnd.sample(edges, len(edges))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "_ZETA", {})
        got, _ = closure_of_edited_edges(mp, L, lambda _: shuffled)
        want, _ = closure_of_edited_edges(mp, L, lambda _: sorted(edges))
    if down:
        assert got == want and want.startswith("nonzero entry below the diagonal in row ")
    else:
        assert got.rows == want.rows and got.level_form() == want.level_form()


def test_zeta_routes_stay_independent(monkeypatch, capsys):
    closed = [zeta_from_order(L) for L in range(13)]
    want = [z.rows for z in closed]  # read before the patch
    real = incidence._staircase

    def broken(ends, diag, table):
        # every earlier block loses its ones over the last block
        return real(ends, diag, [row[:-1] + (0,) for row in table])

    monkeypatch.setattr(incidence, "_staircase", broken)
    monkeypatch.setattr(incidence, "_ZETA", {})  # rebuilt, not read back from the table
    for L, z in enumerate(closed):
        again = zeta_from_order(L)
        assert callable(again._rows)  # so its rows are built while the patch is active
        assert again.rows == want[L] and again.level_form() == z.level_form()
    assert main(["crosscheck", "--max-n", "4"]) == 1
    assert "FAIL  zeta-two-routes: explicit zeta at L=1" in capsys.readouterr().out


def test_a_repeated_closure_is_the_same_object():
    for L in range(ZETA_MAX_LEVELS + 1):
        assert zeta_from_order(L) is zeta_from_order(L)


def test_an_edited_truncation_gets_its_own_closure(monkeypatch):
    L = 6
    real = zeta_from_order(L)
    t = truncate(L)
    covers = tuple(t.edges)
    i, j = covers[0]
    k = next(k for k in range(j + 1, t.vertex_count) if real.entry(i, k) and (i, k) not in covers)
    edits = [
        covers[1:],  # a cover edge dropped
        ((i, k),) + covers[1:],  # a cover edge swapped for a transitive one: as many edges
        covers + ((t.vertex_count - 1, 0),),  # an edge down the order
    ]
    for edges in edits:
        with monkeypatch.context() as mp:
            got, want = closure_of_edited_edges(mp, L, lambda _: edges)
        assert got == want != real
        again = zeta_from_order(L)
        assert again.rows == real.rows == zeta_explicit(fib(L + 2)).rows
        assert again.level_form() == real.level_form()
    # the same edges over one vertex more: a closure of its own size
    grown = CobwebTruncation(L, t.vertices + (Vertex(L + 1, 1),), t.edges)
    monkeypatch.setattr(incidence, "truncate", lambda max_level: grown)
    assert zeta_from_order(L).size == real.size + 1


def test_no_closure_is_kept_above_the_cap(monkeypatch):
    assert incidence._ZETA_CAP == ZETA_MAX_LEVELS
    monkeypatch.setattr(incidence, "_ZETA", {})
    for L in range(ZETA_MAX_LEVELS + 3):
        zeta_from_order(L)
    assert sorted(incidence._ZETA) == list(range(ZETA_MAX_LEVELS + 1))
    assert zeta_from_order(ZETA_MAX_LEVELS + 1) is not zeta_from_order(ZETA_MAX_LEVELS + 1)


def test_zeta_explicit_is_the_leading_block_at_every_size():
    L = 9
    full = zeta_from_order(L).rows
    for size in range(1, fib(L + 2) + 1):
        assert zeta_explicit(size).rows == tuple(row[:size] for row in full[:size])


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
    ends = tuple(sum(sizes[: b + 1]) for b in range(len(sizes)))
    z = TriangularMatrix._from_levels(ends, 1, ((1,) * len(sizes),) * len(sizes))
    assert [list(row) for row in z.rows] == ordinal_sum_zeta(sizes)
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
    rows[i][j] = 0
    z = TriangularMatrix(rows)
    assert z.level_form() is None
    m = mobius(z)
    assert m == _back_substitute(z)
    assert_exact_inverse(z, m)
    # chain_count falls back to the dense route too
    above = [[t for t in range(x + 1, z.size) if z.entry(x, t)] for x in range(z.size)]
    for x in range(z.size):
        for steps in range(1, 4):
            ends = Counter(chain_ends(above, x, steps))
            assert [chain_count(z, x, y, steps) for y in range(z.size)] == [ends[y] for y in range(z.size)]


def chain_ends(above, x, steps):
    # oracle: the last element of every strict chain from x with exactly ``steps`` steps, by DFS
    if steps == 0:
        yield x
        return
    for t in above[x]:
        yield from chain_ends(above, t, steps - 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    .map(lambda upper: (n, upper))
))
def test_mobius_inverts_general_unitriangular_matrices(case):
    n, upper = case
    entries = iter(upper)
    z = TriangularMatrix(
        [[1 if i == j else next(entries) if j > i else 0 for j in range(n)] for i in range(n)]
    )
    assert z.level_form() is None
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
    # n x n matrices on and above the diagonal: zeros, small entries and entries up to 2**200
    entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200))
    rows = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return rows.map(lambda m: [[x if j >= i else 0 for j, x in enumerate(r)] for i, r in enumerate(m)])


def column_sum_pair(n, a_entry, b_entry):
    # row 0 of a and the last column of b are full, so entry (0, n-1) of a * b is n * a_entry * b_entry
    a = [[a_entry if i == 0 else 0 for j in range(n)] for i in range(n)]
    b = [[b_entry if j == n - 1 else 0 for j in range(n)] for i in range(n)]
    return a, b


# 2**(8w - 1) - 1 is the largest value a w-byte slot holds; 2**63 - 1 = 7 * 9271 * 142123242012031
ON_THE_SLOT_EDGE = [column_sum_pair(7, sign * 9271, 142123242012031) for sign in (1, -1)]
ON_THE_SLOT_EDGE += [column_sum_pair(1, sign, 2**bits - 1) for sign in (1, -1) for bits in (23, 63, 127, 255)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(upper_triangular(n), upper_triangular(n))))
@example(([], []))
@example(([[0] * 3] * 3, [[0, 2**200, -1], [0, 0, 1], [0, 0, 0]]))
@example(column_sum_pair(1, 1, -(2**63)))
def test_product_matches_naive_triple_loop(pair):
    a, b = pair
    got = TriangularMatrix(a) * TriangularMatrix(b)
    assert [list(row) for row in got.rows] == naive_product(a, b)


@pytest.mark.parametrize("pair", ON_THE_SLOT_EDGE)
def test_product_on_the_slot_edge(pair):
    a, b = pair
    got = (TriangularMatrix(a) * TriangularMatrix(b)).entry(0, len(a) - 1)
    assert got == naive_product(a, b)[0][-1] and abs(got) == 2 ** (abs(got).bit_length()) - 1


def test_matrix_entries_must_be_integers():
    rows = TriangularMatrix([[True, False], [0, True]]).rows
    assert rows == ((1, 0), (0, 1)) and all(type(x) is int for row in rows for x in row)
    for bad in (2.5, "3", Fraction(1, 2)):
        with pytest.raises(TypeError):
            TriangularMatrix([[1, bad], [0, 1]])


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
        powers = [e]
        for _ in range(max(L, 1) - 1):
            powers.append(powers[-1] * e)
        for x in range(z.size):
            for y in range(x + 1, z.size):
                assert sum(p.entry(x, y) for p in powers) == dfs_strict_chains(z, x, y)


def test_eta_nilpotency():
    for L in range(8):
        e = eta(zeta_from_order(L))
        assert e.level_form()[1] == 0
        assert e.power(L + 1).is_zero()
        if L >= 1:
            assert not e.power(L).is_zero()


def test_eta_of_a_level_form_is_the_dense_subtraction():
    def dense_eta(z):
        return TriangularMatrix([[a - (i == j) for j, a in enumerate(row)] for i, row in enumerate(z.rows)])

    for L in range(11):
        z = zeta_from_order(L)
        for _ in range(2):  # eta(z) and eta(eta(z)), diagonals 0 and -1
            ends, d, table = z.level_form()
            got, want = eta(z), dense_eta(z)
            assert got.rows == want.rows and got.level_form() == (ends, d - 1, table)
            z = got
    # mu's form: the same table with diagonal 0
    mu = mobius(zeta_from_order(5))
    ends, _, table = mu.level_form()
    assert eta(mu).rows == dense_eta(mu).rows and eta(mu).level_form() == (ends, 0, table)
    plain = TriangularMatrix([[1, 2, 0], [0, 1, 3], [0, 0, 1]])  # no ordinal sum: the dense route
    assert plain.level_form() is eta(plain).level_form() is None
    assert eta(plain).rows == ((0, 2, 0), (0, 0, 3), (0, 0, 0))


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


def test_maximal_chain_matrix_matches_dfs():
    # oracle: the DFS walks every saturated chain of the truncated Hasse diagram
    for L in range(8):
        for b in range(L + 1):
            for a in range(b + 1):
                m = maximal_chain_matrix(L, a, b)
                assert len(m) == level_size(a)
                for j, row in enumerate(m, start=1):
                    assert len(row) == level_size(b)
                    assert sum(row) == brute_force_max_chains(a, b, Vertex(a, j))
                    if a < b:
                        assert len(set(row)) == 1
                    else:
                        assert row == [int(i == j) for i in range(1, len(row) + 1)]


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


def level_tables(blocks):
    # table[b][c] for blocks b < c, drawn from -3..3, multi-digit values and +-2**200
    entries = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6), st.sampled_from([2**200, -(2**200)]))
    row = st.lists(entries, min_size=blocks, max_size=blocks)
    rows = st.lists(row, min_size=blocks, max_size=blocks)
    return rows.map(lambda t: tuple(tuple(x * (c > b) for c, x in enumerate(r)) for b, r in enumerate(t)))


# random ordinal sums of 1-6 blocks of 1-5 vertices, with two tables on their blocks
ordinal_sums = st.lists(st.integers(1, 5), min_size=1, max_size=6).flatmap(
    lambda sizes: st.tuples(
        st.just(tuple(sum(sizes[: b + 1]) for b in range(len(sizes)))),
        level_tables(len(sizes)),
        level_tables(len(sizes)),
    )
)


def generic_join(rows, sep):
    return "\n".join(sep.join(str(x) for x in row) for row in rows) + "\n"


def json_dumps_text(m):
    # oracle: the CLI's JSON document as json.dumps writes it
    return json.dumps({"schema": 1, **m.to_json_dict()}, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(ordinal_sums, st.integers(-2, 2), st.integers(-2, 2))
def test_level_arithmetic_matches_the_dense_kernels(case, da, db):
    ends, ta, tb = case
    a = TriangularMatrix._from_levels(ends, da, ta)
    b = TriangularMatrix._from_levels(ends, db, tb)
    product = a * b
    assert product.level_form()[0] == ends
    # rows rebuilt without a table: the Kronecker product
    assert product == TriangularMatrix(a.rows) * TriangularMatrix(b.rows)
    assert [list(row) for row in product.rows] == naive_product(a.rows, b.rows)
    u = TriangularMatrix._from_levels(ends, 1, ta)
    assert mobius(u) == _back_substitute(u)
    for x in range(a.size):
        for y in range(a.size):
            for t in (1, 3):
                assert chain_count(a, x, y, t) == _vec_mat_chains(a.rows, x, y, t)
    assert a.to_dense_text() == generic_join(a.rows, " ")
    assert a.to_csv() == generic_join(a.rows, ",")
    assert a.to_json_text() == json_dumps_text(a)


@given(ordinal_sums, st.integers(-2, 2))
@example(((1, 3), ((False, True), (False, False)), None), True)  # bools are stored as the ints 0 and 1
def test_trusted_level_rows_match_the_validating_constructor(case, diag):
    ends, table, _ = case
    m = TriangularMatrix._from_levels(ends, diag, table)
    assert m.rows == TriangularMatrix(_staircase(ends, diag, table)).rows
    assert m.level_form() == (ends, diag, table)
    # every entry read off the table by the blocks of its row and column
    block = [sum(end <= i for end in ends) for i in range(ends[-1])]
    want = [[diag if i == j else table[b][c] if b < c else 0 for j, c in enumerate(block)]
            for i, b in enumerate(block)]
    assert [list(row) for row in m.rows] == want
    assert all(type(x) is int for row in m.rows for x in row)


@given(st.integers(2, 6).flatmap(upper_triangular), st.data())
def test_public_constructor_checks_every_entry(rows, data):
    n = len(rows)
    assert TriangularMatrix(rows).rows == tuple(map(tuple, rows))
    for cut in (rows[:-1], [row[:-1] for row in rows]):
        with pytest.raises(ValueError, match="square"):
            TriangularMatrix(cut)
    i = data.draw(st.integers(1, n - 1))
    below = [list(row) for row in rows]
    below[i][data.draw(st.integers(0, i - 1))] = data.draw(st.integers(1, 9) | st.integers(-9, -1))
    with pytest.raises(ValueError, match="below the diagonal"):
        TriangularMatrix(below)
    bad = [list(row) for row in rows]
    bad[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = data.draw(
        st.sampled_from([2.5, "3", Fraction(1, 2), None])
    )
    with pytest.raises(TypeError):
        TriangularMatrix(bad)


@given(st.integers(0, 8).flatmap(upper_triangular))
@example([])
def test_json_text_matches_json_dumps(rows):
    m = TriangularMatrix(rows)
    assert m.to_json_text() == json_dumps_text(m)
