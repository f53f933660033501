"""The Fibonacci cobweb poset.

A graded poset whose level s holds F_s vertices (one vertex at level 0),
with every vertex of a level lying below every vertex of the next level.
This module builds level-truncated copies of it, the canonical linear
indexing of its vertices, and the prototype sub-poset copies rooted at a
chosen vertex.
"""

from __future__ import annotations

import math
from functools import total_ordering
from itertools import chain, combinations, product
from typing import Iterator

from .fib_core import fib
from .record import Record, set_field


def level_size(s: int) -> int:
    """Number of vertices at level s: one at the root level, F_s above it."""
    if s < 0:
        raise ValueError(f"level must be >= 0, got {s}")
    return 1 if s == 0 else fib(s)


@total_ordering
class Vertex(Record):
    """Poset element (level, pos) with pos 1-based inside its level, ordered by (level, pos)."""

    __slots__ = ("level", "pos")

    def __init__(self, level: int, pos: int) -> None:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        # F_s >= s - 1, so a pos below the level needs no Fibonacci number
        if not 1 <= pos < level and not 1 <= pos <= level_size(level):
            raise ValueError(f"pos must be in 1..{level_size(level)} at level {level}, got {pos}")
        set_field(self, "level", level)
        set_field(self, "pos", pos)

    def _values(self) -> tuple:  # what ==, hash and < compare; faster than the generic one
        return self.level, self.pos

    def __lt__(self, other):
        return self._values() < other._values() if other.__class__ is self.__class__ else NotImplemented


ROOT = Vertex(0, 1)


def to_linear(v: Vertex) -> int:
    """Canonical linear index: 0 for the root, F_{s+1} + pos - 1 at level s."""
    if v.level == 0:
        return 0
    return fib(v.level + 1) + v.pos - 1


def from_linear(i: int) -> Vertex:
    """Inverse of to_linear: level s is the block F_{s+1} <= i < F_{s+2}."""
    if i < 0:
        raise ValueError(f"linear index must be >= 0, got {i}")
    if i == 0:
        return ROOT
    s = 1
    while fib(s + 2) <= i:
        s += 1
    return Vertex(s, i - fib(s + 1) + 1)


def leq(u: Vertex, v: Vertex) -> bool:
    """Partial order: u <= v iff u = v or u sits on a strictly lower level."""
    return u == v or u.level < v.level


def covers(u: Vertex, v: Vertex) -> bool:
    """v covers u iff v is one level up (inter-level edges are complete)."""
    return v.level == u.level + 1


class CobwebTruncation(Record):
    """All levels 0..max_level with the complete bipartite cover edges.

    ``vertices`` is in linear-index order, ``edges`` holds cover pairs as
    linear indices.  Immutable after construction.
    """

    __slots__ = ("max_level", "vertices", "edges")

    def __init__(self, max_level: int, vertices: tuple[Vertex, ...], edges: tuple[tuple[int, int], ...]):
        self._fill(max_level, vertices, edges)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def vertices_at(self, s: int) -> tuple[Vertex, ...]:
        if not 0 <= s <= self.max_level:
            raise ValueError(f"level {s} outside 0..{self.max_level}")
        return _LEVELS[s] if s < len(_LEVELS) else _level(s)


_EDGE_CAP = 14  # blocks 0..13, all of truncate(14): 142 130 edges in 9.1 MB; with block 14, 23.9 MB
_EDGE_BLOCKS: list[tuple[tuple[int, int], ...]] = []  # [s] = _edge_block(s), grown up to _EDGE_CAP
_LEVELS: list[tuple[Vertex, ...]] = []  # [s] = _level(s), grown through level _EDGE_CAP: 987 vertices


def _level(s: int) -> tuple[Vertex, ...]:
    """The vertices of level s, in linear-index order."""
    return tuple(Vertex(s, j) for j in range(1, level_size(s) + 1))


def _edge_block(s: int) -> tuple[tuple[int, int], ...]:
    """Cover pairs from level s to level s+1: every pair of the two levels' linear index ranges."""
    start = sum(map(level_size, range(s)))  # level s starts after the levels below it
    mid = start + level_size(s)
    return tuple(product(range(start, mid), range(mid, mid + level_size(s + 1))))


def _shared(table: list, build, kept: int, count: int) -> Iterator:
    """The items of build(0), ..., build(count - 1): the first ``kept`` from ``table``, the rest built."""
    # one slice assignment publishes the missing entries; as fib's table, it never shrinks
    table[len(table) : kept] = map(build, range(len(table), kept))
    return chain.from_iterable(chain(table[:kept], map(build, range(kept, count))))


def truncate(max_level: int) -> CobwebTruncation:
    """Build the truncation at ``max_level``; vertex count is F_{max_level+2}.

    Every truncation chains the same levels ``_level(s)`` and edge blocks ``_edge_block(s)``;
    those up to level ``_EDGE_CAP`` are built once and shared by all calls, later ones per call.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    kept = min(max_level, _EDGE_CAP)
    vertices = tuple(_shared(_LEVELS, _level, kept + 1, max_level + 1))
    # cumulative level sizes must telescope to a Fibonacci number
    if len(vertices) != fib(max_level + 2):
        raise AssertionError("level-size bookkeeping broke; this is a bug")
    return CobwebTruncation(max_level, vertices, tuple(_shared(_EDGE_BLOCKS, _edge_block, kept, max_level)))


def to_dot(t: CobwebTruncation) -> str:
    """Render the Hasse diagram as DOT, one same-rank group per level."""
    lines = ["digraph cobweb {", "  rankdir=BT;"]
    for i, v in enumerate(t.vertices):
        lines.append(f'  v{i} [label="({v.pos},{v.level})"];')
    for s in range(t.max_level + 1):
        ids = " ".join(f"v{to_linear(v)};" for v in t.vertices_at(s))
        lines.append(f"  {{ rank=same; {ids} }}")
    for i, j in t.edges:
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(t: CobwebTruncation) -> dict:
    """JSON-ready form: {"max_level": L, "vertices": N, "edges": [[i, j], ...]}."""
    return {
        "max_level": t.max_level,
        "vertices": t.vertex_count,
        "edges": [[i, j] for i, j in t.edges],
    }


class CobwebCopy(Record):
    """A copy of the height-m prototype rooted at ``root``.

    ``level_subsets[i]`` is the chosen subset of the level root.level+i+1,
    of the prototype's size for height i+1.  Because inter-level edges are
    complete, any such choice induces an isomorphic copy.
    """

    __slots__ = ("root", "level_subsets")

    def __init__(self, root: Vertex, level_subsets: tuple[tuple[Vertex, ...], ...]) -> None:
        set_field(self, "root", root)
        set_field(self, "level_subsets", level_subsets)
        k = root.level
        for i, subset in enumerate(level_subsets, start=1):
            want = level_size(i)
            if len(subset) != len(set(subset)) or len(subset) != want:
                raise ValueError(f"subset {i} must hold {want} distinct vertices")
            if any(v.level != k + i for v in subset):
                raise ValueError(f"subset {i} must live on level {k + i}")

    @property
    def m(self) -> int:
        return len(self.level_subsets)

    def chains(self) -> Iterator[tuple[Vertex, ...]]:
        """All maximal chains of the copy, root included; there are m_F! of them."""
        for tail in product(*self.level_subsets):
            yield (self.root,) + tail


def count_copies_rooted(root: Vertex, m: int) -> int:
    """Number of height-m prototype copies rooted at ``root``.

    A copy picks level_size(i) vertices out of level_size(root.level + i)
    at each height i, independently, so the count is a product of ordinary
    binomial coefficients.
    """
    if m < 0:
        raise ValueError(f"height must be >= 0, got {m}")
    k = root.level
    out = 1
    for i in range(1, m + 1):
        out *= math.comb(level_size(k + i), level_size(i))
    return out


def enumerate_copies_rooted(root: Vertex, m: int) -> Iterator[CobwebCopy]:
    """Yield every height-m copy rooted at ``root`` in deterministic order."""
    if m < 0:
        raise ValueError(f"height must be >= 0, got {m}")
    k = root.level
    pools = [combinations(_level(k + i), level_size(i)) for i in range(1, m + 1)]
    for chosen in product(*pools):
        yield CobwebCopy(root, tuple(chosen))
