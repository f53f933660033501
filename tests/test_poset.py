import gc
import math
import pickle
import tracemalloc
from itertools import chain, combinations, count, pairwise, product
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import fib_core, poset
from cobweb.fib_core import fib
from cobweb.incidence import zeta_from_order
from cobweb.poset import (
    ROOT,
    CobwebCopy,
    CobwebTruncation,
    Vertex,
    count_copies_rooted,
    enumerate_copies_rooted,
    from_linear,
    leq,
    level_size,
    to_dot,
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
    for i in range(fib(poset._KEPT + 2)):  # every vertex of the kept truncations, read off truncate(_KEPT)
        v = from_linear(i)
        assert to_linear(v) == i
        assert v.level >= prev_level
        prev_level = v.level
    assert prev_level == poset._KEPT
    # past the kept truncations: level s - 1 starts at F_s
    for s in range(poset._KEPT + 3, 60):
        for i in (fib(s) - 1, fib(s), fib(s) + 1):
            v = from_linear(i)
            assert to_linear(v) == i
            assert v.level == (s - 1 if i >= fib(s) else s - 2)
    with pytest.raises(ValueError, match=r"^linear index must be >= 0, got -1$"):
        from_linear(-1)


def test_from_linear_reads_the_kept_truncation(monkeypatch):
    n = fib(poset._KEPT + 2)
    assert all(from_linear(i) is truncate(poset._KEPT).vertices[i] for i in range(n))
    monkeypatch.setattr(poset, "_TRUNCATIONS", [])  # a cold table: the first call fills it
    assert all(from_linear(i) is truncate(poset._KEPT).vertices[i] for i in range(n))

    def no_fib(k):
        raise AssertionError(f"fib({k}) called")

    monkeypatch.setattr(poset, "fib", no_fib)  # a warm table: no Fibonacci number is computed below F_{_KEPT+2}
    assert all(from_linear(i) is poset._TRUNCATIONS[poset._KEPT].vertices[i] for i in range(n))
    with pytest.raises(AssertionError, match=r"^fib\(\d+\) called$"):  # past them the levels are walked
        from_linear(n)


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


def test_truncate_counts():
    assert truncate(5).vertex_count == 13  # 1+1+1+2+3+5
    t0 = truncate(0)
    assert t0.vertex_count == 1
    assert tuple(t0.edges) == ()
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
        assert tuple(truncate(L).edges) == tuple(want)


def kept_edges(L):
    """The cover pairs of truncate(L) from the level starts alone, ascending."""
    first = [to_linear(Vertex(s, 1)) for s in range(L + 2)]  # first index of each level
    blocks = [(range(first[s], first[s + 1]), range(first[s + 1], first[s + 2])) for s in range(L)]
    return chain.from_iterable(product(*block) for block in blocks)


def kept_truncation(L):
    """The vertices and edges of truncate(L), from the level starts alone."""
    vertices = tuple(Vertex(s, j) for s in range(L + 1) for j in range(1, level_size(s) + 1))
    return vertices, tuple(kept_edges(L))


def is_truncate(t, L):
    return (t.max_level, t.vertices, tuple(t.edges)) == (L, *kept_truncation(L))


def test_truncate_edges_ascend():
    # both sides of the cap: the kept truncations and those grown per call
    for L in range(poset._KEPT + 3):
        assert all(e < f for e, f in pairwise(truncate(L).edges))


def test_truncate_from_an_empty_table_allocates_no_pairs(monkeypatch):
    monkeypatch.setattr(poset, "_TRUNCATIONS", [])
    fib(poset._KEPT + 2)  # fib's own table is warm, so only the truncations are traced
    tracemalloc.start()
    try:
        truncate(poset._KEPT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000  # its 142 130 cover pairs, as tuples of ints, would take 9.8 MB


def test_kept_truncations_hold_no_pair_objects(monkeypatch):
    top = poset._KEPT + 1
    for levels in (range(top, -1, -1), range(top + 1)):
        monkeypatch.setattr(poset, "_TRUNCATIONS", [])  # an empty table for each order
        for L in levels:
            assert tuple(truncate(L).edges) == kept_truncation(L)[1]
            assert len(poset._TRUNCATIONS) == min(max(levels[0], L), poset._KEPT) + 1
    # up to the cap the truncations are the table's own; above it one is grown per call
    assert all(truncate(L) is poset._TRUNCATIONS[L] for L in range(top))
    assert truncate(top) is not truncate(top)
    # every object the kept table reaches, classes aside: the only tuples are the vertices and the level starts
    reached, todo = {}, list(poset._TRUNCATIONS)
    while todo:
        obj = todo.pop()
        if id(obj) not in reached and not isinstance(obj, type):
            reached[id(obj)] = obj
            todo += gc.get_referents(obj)
    tuples = {i for i, obj in reached.items() if type(obj) is tuple}
    assert tuples == {id(part) for t in poset._TRUNCATIONS for part in (t.vertices, t.edges.starts)}
    assert all(len(t.edges.starts) == t.max_level + 2 for t in poset._TRUNCATIONS)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, poset._KEPT + 3))
def test_the_edge_view_reads_as_the_tuple_of_its_pairs(L):
    edges = truncate(L).edges
    size = sum(1 for _ in kept_edges(L))
    assert len(edges) == size == sum(1 for _ in edges)
    assert bool(edges) == (L > 0)
    assert all(map(eq, edges, kept_edges(L)))
    again = pickle.loads(pickle.dumps(edges))
    assert again == edges and not again != edges and again is not edges
    if L <= poset._KEPT + 1:  # the tuple itself: 24 MB at L = 15, 62 MB at 16 and 163 MB at 17
        kept = kept_truncation(L)[1]
        assert tuple(edges) == kept and edges != kept  # it reads as its pairs, and compares as a record
    assert edges != truncate(L + 1).edges


def test_a_library_truncation_compares_and_hashes_by_its_starts(monkeypatch):
    t = truncate(poset._KEPT)
    tracemalloc.start()
    try:
        hash(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # hashing its 142 130 cover pairs one by one would build them all

    def pair_by_pair(edges):
        raise AssertionError("the edge view was walked")

    kept = [truncate(L) for L in range(poset._KEPT + 3)]
    monkeypatch.setattr(poset._CoverEdges, "__iter__", pair_by_pair)
    monkeypatch.setattr(poset, "_TRUNCATIONS", [])  # each is rebuilt, a new object
    for L, old in enumerate(kept):
        t = truncate(L)
        assert t is not old and t == old and not t != old and hash(t) == hash(old)
        assert t.edges == old.edges and hash(t.edges) == hash(old.edges)
        assert t != kept[L - 1 if L else 1]  # a neighbour: another level, other starts


def test_level_vertices_match_the_validating_constructor():
    for s in range(18):
        level = poset._level(s)
        assert level == tuple(Vertex(s, j) for j in range(1, level_size(s) + 1))
        assert all(type(v) is Vertex for v in level)


def test_an_interleaved_growth_never_shrinks_the_table(monkeypatch):
    grow, interleaved = poset._grow, []

    def growing_the_table_first(t):  # stands in for another caller's growth, published in between
        if not interleaved:
            interleaved.append(t)
            truncate(poset._KEPT)
        return grow(t)

    monkeypatch.setattr(poset, "_TRUNCATIONS", [])
    monkeypatch.setattr(poset, "_grow", growing_the_table_first)
    assert is_truncate(truncate(3), 3)
    assert len(poset._TRUNCATIONS) == poset._KEPT + 1
    assert all(map(is_truncate, poset._TRUNCATIONS, count()))
    assert truncate(poset._KEPT) is poset._TRUNCATIONS[-1]


def test_truncations_share_their_vertex_levels(monkeypatch):
    top = poset._KEPT + 1
    for levels in (range(top, -1, -1), range(top + 1)):
        monkeypatch.setattr(poset, "_TRUNCATIONS", [])  # an empty table for each order
        for L in levels:
            assert truncate(L).vertices == kept_truncation(L)[0]
            assert len(poset._TRUNCATIONS) == min(max(levels[0], L), poset._KEPT) + 1
    for L in range(top):
        shorter, longer = truncate(L).vertices, truncate(L + 1).vertices
        assert longer[: len(shorter)] == shorter
        assert all(u is v for u, v in zip(shorter, longer))
    # through level _KEPT the vertices are the table's own; above it the new level is built per call
    assert truncate(top).vertices[-1] is not truncate(top).vertices[-1]


def test_truncate_leaves_the_collector_as_it_found_it(monkeypatch):
    grow = poset._grow

    def failing(t):  # a build that breaks half way, above the entries already kept
        if t.max_level == 6:
            raise RuntimeError("no level 7")
        return grow(t)

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(poset, "_TRUNCATIONS", [])
            truncate(poset._KEPT + 1)
            assert gc.isenabled() is enabled
            monkeypatch.setattr(poset, "_TRUNCATIONS", [])
            truncate(3)
            monkeypatch.setattr(poset, "_grow", failing)
            with pytest.raises(RuntimeError, match="no level 7"):
                truncate(9)
            assert gc.isenabled() is enabled
            assert 4 <= len(poset._TRUNCATIONS) <= 7
            assert all(map(is_truncate, poset._TRUNCATIONS, count()))
            monkeypatch.setattr(poset, "_grow", grow)
            assert (truncate(9).vertices, tuple(truncate(9).edges)) == kept_truncation(9)
            assert all(map(is_truncate, poset._TRUNCATIONS, count()))
            assert len(poset._TRUNCATIONS) == 10
    finally:
        (gc.enable if was_enabled else gc.disable)()


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
                copies = list(enumerate_copies_rooted(root, m))
                assert len(copies) == want
                # built without __init__: each copy must pass the validating constructor
                assert all(copy == CobwebCopy(root, tuple(map(tuple, copy.level_subsets))) for copy in copies)


def test_cobweb_copy_validation():
    root = Vertex(2, 1)
    good = CobwebCopy(root, ((Vertex(3, 2),), (Vertex(4, 1),)))
    assert good.root == root and good.level_subsets == ((Vertex(3, 2),), (Vertex(4, 1),))
    with pytest.raises(ValueError):  # wrong level
        CobwebCopy(root, ((Vertex(4, 1),),))
    with pytest.raises(ValueError):  # wrong subset size
        CobwebCopy(root, ((Vertex(3, 1), Vertex(3, 2)),))


def test_copy_chain_count_is_prototype_factorial():
    # a height-3 copy holds 3_F! = 2 maximal chains: one vertex from each of its level subsets
    for copy in enumerate_copies_rooted(Vertex(2, 1), 3):
        assert math.prod(map(len, copy.level_subsets)) == 2
        assert len(set(product(*copy.level_subsets))) == 2


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
    # a hand-built truncation: rank groups of its own vertices, numbered by position as the nodes are
    assert to_dot(CobwebTruncation(3, (ROOT, Vertex(1, 1)), ((0, 1),))) == (
        'digraph cobweb {\n  rankdir=BT;\n  v0 [label="(1,0)"];\n  v1 [label="(1,1)"];\n'
        "  { rank=same; v0; }\n  { rank=same; v1; }\n  v0 -> v1;\n}\n"
    )
    top = CobwebTruncation(3, (Vertex(3, 2),), ())
    assert to_dot(top) == 'digraph cobweb {\n  rankdir=BT;\n  v0 [label="(2,3)"];\n  { rank=same; v0; }\n}\n'
