import json
import math
from itertools import chain, combinations, product

import pytest

from cobweb import fib_core, poset
from cobweb.fib_core import fib
from cobweb.incidence import zeta_from_order
from cobweb.poset import (
    ROOT,
    CobwebCopy,
    Vertex,
    count_copies_rooted,
    covers,
    enumerate_copies_rooted,
    from_linear,
    leq,
    level_size,
    to_dot,
    to_json_dict,
    to_linear,
    truncate,
)


def brute_copy_count(root, m):
    # oracle: literally enumerate the level-subset choices
    k = root.level
    total = 1
    for i in range(1, m + 1):
        pool = range(1, level_size(k + i) + 1)
        total *= sum(1 for _ in combinations(pool, level_size(i)))
    return total


def test_level_size_values():
    assert level_size(0) == 1
    assert level_size(1) == 1
    assert level_size(5) == 5
    assert level_size(8) == 21


def test_vertex_validation():
    with pytest.raises(ValueError):
        Vertex(3, 0)
    with pytest.raises(ValueError):
        Vertex(3, 3)  # level 3 holds only 2 vertices
    with pytest.raises(ValueError):
        Vertex(-1, 1)
    assert Vertex(3, 2).pos == 2


def test_a_pos_below_the_level_is_checked_without_fibonacci(monkeypatch):
    # F_s >= s - 1: the shortcut must accept exactly what the full check accepts
    for level in range(40):
        for pos in range(-1, level + 3):
            try:
                Vertex(level, pos)
            except ValueError:
                assert not 1 <= pos <= level_size(level)
            else:
                assert 1 <= pos <= level_size(level)

    def capped(n):
        assert n <= fib_core._FIB_CAP, "F_n computed above the table"
        return fib(n)

    monkeypatch.setattr(poset, "fib", capped)
    assert Vertex(10**6, 5).pos == 5
    with pytest.raises(ValueError, match=r"^pos must be in 1\.\.2 at level 3, got 3$"):
        Vertex(3, 3)


def test_to_linear_values():
    assert to_linear(ROOT) == 0
    assert to_linear(Vertex(3, 1)) == 3  # F_4 + 0
    assert to_linear(Vertex(5, 3)) == 10  # F_6 + 2


def test_from_linear_values():
    assert from_linear(0) == ROOT
    assert from_linear(4) == Vertex(3, 2)
    assert from_linear(12) == Vertex(5, 5)


def test_linear_roundtrip_and_monotone_levels():
    prev_level = 0
    for i in range(fib(14)):  # everything through level 12
        v = from_linear(i)
        assert to_linear(v) == i
        assert v.level >= prev_level
        prev_level = v.level


def test_leq_examples():
    assert not leq(Vertex(3, 1), Vertex(3, 2))
    assert leq(Vertex(3, 1), Vertex(3, 1))
    assert leq(Vertex(3, 2), Vertex(5, 3))
    assert not leq(Vertex(5, 3), Vertex(3, 2))


def test_leq_is_partial_order_up_to_level_7():
    verts = truncate(7).vertices
    for u in verts:
        assert leq(u, u)
    for u, v in product(verts, repeat=2):
        if leq(u, v) and leq(v, u):
            assert u == v
    for u, v in product(verts, repeat=2):
        if not leq(u, v):
            continue
        for w in verts:
            if leq(v, w):
                assert leq(u, w)


def test_leq_matches_the_closure_of_the_cover_edges():
    # zeta_from_order reads only the cover edges, so it is an oracle for leq
    z = zeta_from_order(7)
    for u, v in product(truncate(7).vertices, repeat=2):
        assert z.entry(to_linear(u), to_linear(v)) == leq(u, v)


def test_covers_examples():
    assert covers(Vertex(2, 1), Vertex(3, 2))
    assert not covers(Vertex(2, 1), Vertex(4, 1))
    assert covers(ROOT, Vertex(1, 1))
    assert not covers(Vertex(3, 1), Vertex(3, 2))


def test_truncate_counts():
    assert truncate(5).vertex_count == 13  # 1+1+1+2+3+5
    t0 = truncate(0)
    assert t0.vertex_count == 1
    assert t0.edges == ()
    t3 = truncate(3)
    assert t3.vertex_count == 5
    assert len(t3.edges) == 4  # 1*1 + 1*1 + 1*2


def test_truncate_vertex_count_is_fibonacci():
    for L in range(11):
        t = truncate(L)
        assert t.vertex_count == fib(L + 2)
        assert t.vertex_count == sum(level_size(s) for s in range(L + 1))


def test_truncate_edges_complete_between_levels():
    t = truncate(6)
    for L in range(6):
        want = level_size(L) * level_size(L + 1)
        got = sum(1 for i, _ in t.edges if t.vertices[i].level == L)
        assert got == want
    for i, j in t.edges:
        assert t.vertices[j].level == t.vertices[i].level + 1


def test_truncate_edges_match_per_vertex_construction():
    # the edge list as built vertex by vertex through to_linear
    for L in range(13):
        want = [
            (to_linear(Vertex(s, j)), to_linear(Vertex(s + 1, q)))
            for s in range(L)
            for j in range(1, level_size(s) + 1)
            for q in range(1, level_size(s + 1) + 1)
        ]
        assert truncate(L).edges == tuple(want)


def test_truncations_share_their_edge_blocks(monkeypatch):
    top = poset._EDGE_CAP + 1
    for levels in (range(top, -1, -1), range(top + 1)):
        monkeypatch.setattr(poset, "_EDGE_BLOCKS", [])  # an empty table for each order
        for L in levels:
            first = [to_linear(Vertex(s, 1)) for s in range(L + 2)]  # first index of each level
            want = chain.from_iterable(
                product(range(first[s], first[s + 1]), range(first[s + 1], first[s + 2])) for s in range(L)
            )
            assert truncate(L).edges == tuple(want)
            assert len(poset._EDGE_BLOCKS) == min(max(levels[0], L), poset._EDGE_CAP)
    for L in range(top):
        shorter, longer = truncate(L).edges, truncate(L + 1).edges
        assert longer[: len(shorter)] == shorter
    # up to the cap the edge tuples are the table's own; above it they are built per call
    assert all(e is f for e, f in zip(truncate(top - 1).edges, truncate(top).edges))
    assert truncate(top).edges[-1] is not truncate(top).edges[-1]


def test_truncations_share_their_vertex_levels(monkeypatch):
    top = poset._EDGE_CAP + 1
    for levels in (range(top, -1, -1), range(top + 1)):
        monkeypatch.setattr(poset, "_LEVELS", [])  # an empty table for each order
        for L in levels:
            want = tuple(Vertex(s, j) for s in range(L + 1) for j in range(1, level_size(s) + 1))
            assert truncate(L).vertices == want
            assert len(poset._LEVELS) == min(max(levels[0], L), poset._EDGE_CAP) + 1
    for L in range(top):
        shorter, longer = truncate(L).vertices, truncate(L + 1).vertices
        assert longer[: len(shorter)] == shorter
    # through level _EDGE_CAP the vertices are the table's own; above it they are built per call
    assert all(u is v for u, v in zip(truncate(top - 1).vertices, truncate(top).vertices))
    assert truncate(top).vertices[-1] is not truncate(top).vertices[-1]
    t = truncate(top)
    assert all(t.vertices_at(s) == t.vertices[to_linear(Vertex(s, 1)) :][: level_size(s)] for s in range(top + 1))


def test_vertices_at():
    t = truncate(5)
    assert t.vertices_at(0) == (ROOT,)
    assert len(t.vertices_at(5)) == 5
    with pytest.raises(ValueError):
        t.vertices_at(6)


def test_count_copies_rooted_values():
    for m in range(6):
        assert count_copies_rooted(ROOT, m) == 1
    assert count_copies_rooted(Vertex(2, 1), 2) == math.comb(2, 1) * math.comb(3, 1) == 6
    assert count_copies_rooted(Vertex(3, 1), 1) == 3


def test_count_copies_matches_enumeration():
    for k in range(7):
        for m in range(7 - k):
            for j in range(1, level_size(k) + 1):
                root = Vertex(k, j)
                want = brute_copy_count(root, m)
                assert count_copies_rooted(root, m) == want
                assert sum(1 for _ in enumerate_copies_rooted(root, m)) == want


def test_cobweb_copy_validation():
    root = Vertex(2, 1)
    good = CobwebCopy(root, ((Vertex(3, 2),), (Vertex(4, 1),)))
    assert good.m == 2
    assert list(good.chains()) == [(root, Vertex(3, 2), Vertex(4, 1))]
    with pytest.raises(ValueError):  # wrong level
        CobwebCopy(root, ((Vertex(4, 1),),))
    with pytest.raises(ValueError):  # wrong subset size
        CobwebCopy(root, ((Vertex(3, 1), Vertex(3, 2)),))


def test_copy_chain_count_is_prototype_factorial():
    root = Vertex(2, 1)
    for copy in enumerate_copies_rooted(root, 3):
        # a height-3 copy holds 3_F! = 2 maximal chains
        assert sum(1 for _ in copy.chains()) == 2
        break


def test_to_dot_structure():
    dot1 = to_dot(truncate(1))
    assert dot1.count("label=") == 2
    assert dot1.count("->") == 1
    dot3 = to_dot(truncate(3))
    assert dot3.count("label=") == 5
    assert dot3.count("->") == 4
    assert dot3.startswith("digraph")
    assert dot3.count("{") == dot3.count("}")
    assert dot3.count("rank=same") == 4
    assert '"(2,3)"' in dot3


def test_to_json_dict_roundtrip():
    t = truncate(4)
    doc = json.loads(json.dumps(to_json_dict(t)))
    assert doc["max_level"] == 4
    assert doc["vertices"] == t.vertex_count == 8
    assert len(doc["edges"]) == len(t.edges)
    assert doc["edges"][0] == [0, 1]
