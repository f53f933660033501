"""The Fibonacci cobweb poset.

A graded poset whose level s holds F_s vertices (one vertex at level 0),
with every vertex of a level lying below every vertex of the next level.
This module builds level-truncated copies of it, the canonical linear
indexing of its vertices, and the prototype sub-poset copies rooted at a
chosen vertex.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import partial, total_ordering
from itertools import chain, combinations, product, repeat

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
    """Inverse of to_linear: the vertex ``truncate(_KEPT).vertices[i]`` itself below F_{_KEPT+2};
    past it, level s is the block F_{s+1} <= i < F_{s+2}, found a level at a time."""
    if i < 0:
        raise ValueError(f"linear index must be >= 0, got {i}")
    kept = (_TRUNCATIONS[_KEPT] if len(_TRUNCATIONS) > _KEPT else truncate(_KEPT)).vertices
    if i < len(kept):
        return kept[i]
    s = _KEPT + 1
    while fib(s + 2) <= i:
        s += 1
    return _vertex(s, i - fib(s + 1) + 1)  # 1 <= pos <= F_s by the level found


_SET_LEVEL, _SET_POS = Vertex.level.__set__, Vertex.pos.__set__  # the slots' own setters: a third faster than set_field


def _vertex(level: int, pos: int) -> Vertex:
    """A vertex whose pos the caller knows to fit its level: no ``__init__``, whose check calls fib."""
    v = Vertex.__new__(Vertex)
    _SET_LEVEL(v, level)
    _SET_POS(v, pos)
    return v


def leq(u: Vertex, v: Vertex) -> bool:
    """Partial order: u <= v iff u = v or u sits on a strictly lower level."""
    return u == v or u.level < v.level


class _CoverEdges(Record):
    """The cover pairs (i, j) of a library truncation, read off its ``starts``: the first linear index of
    each level, then the vertex count.  Levels a..b and b..c give ``product(range(a, b), range(b, c))``, and
    ``_cover_heads`` gives each source in a..b the one object ``range(b, c)``; no pair is kept.  Like any
    record it compares and hashes by its ``starts``, in O(L), so it never equals a tuple of the same pairs."""

    __slots__ = ("starts",)

    def __init__(self, starts: tuple[int, ...]) -> None:
        self._fill(starts)

    def __len__(self) -> int:
        s = self.starts
        return sum((b - a) * (c - b) for a, b, c in zip(s, s[1:], s[2:]))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        s = self.starts
        return chain.from_iterable(map(product, map(range, s, s[1:]), map(range, s[1:], s[2:])))


class CobwebTruncation(Record):
    """All levels 0..max_level with the complete bipartite cover edges.

    ``vertices`` is in linear-index order: level s is ``level_size(s)`` vertices from ``to_linear(Vertex(s, 1))`` on.
    ``edges`` holds cover pairs as linear indices: a view over the level starts in a library truncation,
    any tuple of pairs in a hand-built one, never equal to it; ``_cover_heads`` reads both.  Immutable once built.
    """

    __slots__ = ("max_level", "vertices", "edges")

    def __init__(self, max_level: int, vertices: tuple[Vertex, ...], edges: tuple[tuple[int, int], ...] | _CoverEdges):
        self._fill(max_level, vertices, edges)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def _cover_heads(t: CobwebTruncation) -> list:
    """Each vertex's cover heads by linear index, one hashable object each (``zeta_from_order`` keys on them)."""
    if not isinstance(t.edges, _CoverEdges):  # a hand-built truncation's pairs, bucketed in edge order
        heads = [[] for _ in range(t.vertex_count)]
        for i, j in t.edges:
            heads[i].append(j)
        return list(map(tuple, heads))
    s = t.edges.starts  # level a..b covers range(b, c): one object for its b - a vertices, read off no pair
    heads = [h for a, b, c in zip(s, s[1:], s[2:]) for h in repeat(range(b, c), b - a)]
    return heads + [()] * (t.vertex_count - len(heads))  # the last level, and any vertex past the view: ()


_KEPT = 14  # truncate(0..14) kept whole: 987 vertices in truncate(14), its 142 130 edges a view over 16 starts
_TRUNCATIONS: list[CobwebTruncation] = []  # [L] = truncate(L), grown in order up to _KEPT


def _level(s: int) -> tuple[Vertex, ...]:
    """The vertices of level s, in linear-index order."""
    return tuple(map(partial(_vertex, s), range(1, level_size(s) + 1)))


def _grow(t: CobwebTruncation) -> CobwebTruncation:
    """The truncation one level above ``t``: its vertices, then level s's; its edge view, one start longer."""
    s = t.max_level + 1
    vertices = t.vertices + _level(s)
    if len(vertices) != fib(s + 2):  # cumulative level sizes must telescope to a Fibonacci number
        raise AssertionError("level-size bookkeeping broke; this is a bug")
    return CobwebTruncation(s, vertices, _CoverEdges(t.edges.starts + (len(vertices),)))


def truncate(max_level: int) -> CobwebTruncation:
    """The truncation at ``max_level``; vertex count is F_{max_level+2}, ``edges`` in ascending (i, j) order.

    Each one is the one below it grown by a level, and its ``edges`` is a view over the level starts
    that holds no pair.  Those through level ``_KEPT`` are built once and returned again, the same
    immutable object; one above it is grown from ``truncate(_KEPT)`` per call.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if max_level < len(_TRUNCATIONS):
        return _TRUNCATIONS[max_level]
    grown = _TRUNCATIONS[-1:] or [CobwebTruncation(0, (ROOT,), _CoverEdges((0, 1)))]
    while grown[-1].max_level < max_level:
        grown.append(_grow(grown[-1]))
    # one slice assignment, as long as the growth's kept part, publishes it by index: none is ever removed
    start, kept = grown[0].max_level, grown[: _KEPT + 1 - grown[0].max_level]
    _TRUNCATIONS[start : start + len(kept)] = kept
    return grown[-1]


def to_dot(t: CobwebTruncation) -> str:
    """Render the Hasse diagram as DOT, one same-rank group per level of its vertices."""
    lines = ["digraph cobweb {", "  rankdir=BT;"]
    ranks: dict[int, list[str]] = {}  # level -> its vertices, numbered by position as the nodes are
    for i, v in enumerate(t.vertices):
        lines.append(f'  v{i} [label="({v.pos},{v.level})"];')
        ranks.setdefault(v.level, []).append(f"v{i};")
    lines += (f"  {{ rank=same; {' '.join(ids)} }}" for ids in ranks.values())
    for i, j in t.edges:
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    for chosen in product(*pools):  # valid by construction: set the fields without __init__
        copy = CobwebCopy.__new__(CobwebCopy)
        set_field(copy, "root", root)
        set_field(copy, "level_subsets", chosen)
        yield copy
