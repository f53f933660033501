"""Exact integer incidence-algebra matrices for truncated cobweb posets.

The zeta matrix is materialized two independent ways (closing the Hasse
diagram's cover edges, and the closed staircase formula).  A truncation is
an ordinal sum of antichains, so zeta, mu, eta and their products have a
level form, a table over pairs of blocks, on which inverses, products, chain
counts and text export take O(L^3) or less.  Other matrices use the dense
kernels (back-substitution, products that pack rows into ints, vector
steps), which stay the oracles for the level routes.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial, reduce
from itertools import accumulate, chain, compress, count, repeat, takewhile
from math import prod
from operator import add, index, mul, or_

from .fib_core import fib
from .poset import _KEPT, _cover_heads, level_size, truncate


class TriangularMatrix:
    """Immutable square integer matrix with nothing below the diagonal.

    One the library builds on an ordinal sum of blocks has a level form ``(ends, diag, table)``:
    block ends, the diagonal, and table[b][c] for c > b, every entry from block b to block c.
    A library-built matrix builds its N^2 rows on their first read; level routes and exports read none."""

    __slots__ = ("_rows", "_levels")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(map(index, row)) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for i, row in enumerate(rows):
            if any(row[:i]):
                raise ValueError(f"nonzero entry below the diagonal in row {i}")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_levels", None)  # rows alone: the dense kernels serve it

    # construction helpers -------------------------------------------------

    @classmethod
    def _trusted(cls, levels, build=None) -> "TriangularMatrix":
        """Trusted path, no ``__init__``, for what the library computed from ints, square and upper triangular: its
        level form ``levels`` as built, or None, and ``build()``, by default the staircase, for the rows' first read."""
        m = cls.__new__(cls)
        object.__setattr__(m, "_rows", build or partial(_staircase, *levels))
        object.__setattr__(m, "_levels", levels)
        return m

    @classmethod
    def _from_levels(cls, ends, diag, table) -> "TriangularMatrix":
        """A level form from outside the library's arithmetic (copy, pickle, tests), coerced by ``index``."""
        return cls._trusted((tuple(map(index, ends)), index(diag), tuple(tuple(map(index, row)) for row in table)))

    @classmethod
    def identity(cls, n: int) -> "TriangularMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # basic protocol --------------------------------------------------------

    @property
    def rows(self) -> tuple:
        if callable(self._rows):  # the one place library rows are built: once, on the first read
            object.__setattr__(self, "_rows", tuple(self._rows()))
        return self._rows

    @property
    def size(self) -> int:  # a level form's size is its last block end: no rows are built
        return len(self.rows) if self._levels is None else max(self._levels[0], default=0)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, TriangularMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"TriangularMatrix(size={self.size})"

    def __setattr__(self, name, *value) -> None:
        raise AttributeError("TriangularMatrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle: a level form is rebuilt as one, any other from its rows
        return (type(self)._from_levels, self._levels) if self._levels else (type(self), (self.rows,))

    def level_form(self):
        """``(ends, diag, table)`` as the constructor that built the matrix set it, or None."""
        return self._levels

    def is_unitriangular(self) -> bool:
        return all(row[i] == 1 for i, row in enumerate(self.rows))

    # exact arithmetic ------------------------------------------------------

    def __mul__(self, other: "TriangularMatrix") -> "TriangularMatrix":
        """Exact product: of the tables if both level forms have the same blocks,
        else by Kronecker substitution: each row of ``other`` is packed into one
        int, entry j in byte slot j, wide enough for n * max|self| * max|other|
        and a sign, and lifted by half a slot so that no entry borrows.  Row i
        is one big-int sum of the packed rows.  This shares no code with the
        tables or ``_back_substitute``, so it is an oracle for both.
        """
        if self.size != other.size:
            raise ValueError("size mismatch")
        a, b = self.level_form(), other.level_form()
        if a and b and a[0] == b[0]:
            sizes = _sizes(a[0])
            table = tuple(_level_row(sizes, r, a[1], row, b[1], b[2]) for r, row in enumerate(a[2]))
            return TriangularMatrix._trusted((a[0], a[1] * b[1], table))
        n = self.size
        w = (n * _entry_bound(self.rows) * _entry_bound(other.rows)).bit_length() // 8 + 1
        lift = 1 << (8 * w - 1)
        lifts = int.from_bytes(lift.to_bytes(w, "little") * n, "little")  # a lift in every slot
        packed = []
        for row in other.rows:
            cells = map(int.to_bytes, map(add, row, repeat(lift)), repeat(w), repeat("little"))
            packed.append(int.from_bytes(b"".join(cells), "little"))
        out = []
        for row in self.rows:
            coeffs = [c for c in row if c]
            total = sum(map(mul, coeffs, compress(packed, row))) + (1 - sum(coeffs)) * lifts
            data = total.to_bytes(n * w, "little")
            out.append([int.from_bytes(data[j : j + w], "little") - lift for j in range(0, n * w, w)])
        return TriangularMatrix(out)

    def power(self, t: int) -> "TriangularMatrix":
        if t < 0:
            raise ValueError(f"power expects t >= 0, got {t}")
        # from self, not the identity: a product keeps a level form only if both factors have one
        return reduce(mul, repeat(self, t - 1), self) if t else TriangularMatrix.identity(self.size)

    def is_zero(self) -> bool:
        return all(not any(row) for row in self.rows)

    # export -----------------------------------------------------------------

    def to_dense_text(self) -> str:
        return "\n".join([*self._lines(" "), ""]) or "\n"

    def to_csv(self) -> str:
        return "\n".join([*self._lines(","), ""]) or "\n"

    def to_json_text(self) -> str:
        """``json.dumps({"schema": 1, **self.to_json_dict()}, indent=2) + "\\n"``, one entry a line, joined once."""
        lines = self._lines(",\n      ")
        head, tail = ("[\n    [\n      ", "\n    ]\n  ]") if lines else ("[", "]")
        lines[:1] = [f'{{\n  "schema": 1,\n  "size": {self.size},\n  "rows": {head}' + "".join(lines[:1])]
        lines[-1] += tail + "\n}\n"
        return "\n    ],\n    [\n      ".join(lines)

    def _lines(self, sep: str) -> list[str]:
        """Each row's entries joined by ``sep``; of a level form, a slice of its block's text window, then the tail."""
        form = self.level_form()
        if form is None:
            return [sep.join(map(str, row)) for row in self.rows]
        ends, diag, table = form
        sizes, d, w, lines = _sizes(ends), str(diag), len(sep) + 1, []
        for b, (end, size) in enumerate(zip(ends, sizes)):
            window = ("0" + sep) * (end - 1) + d + (sep + "0") * (size - 1)  # row k starts at cell size-1-k
            tail = "".join((sep + str(v)) * s for v, s in zip(table[b][b + 1 :], sizes[b + 1 :]))
            span = (end - 1) * w + len(d)
            lines += [window[o : o + span] + tail for o in range((size - 1) * w, -1, -w)]
        return lines

    def to_json_dict(self) -> dict:
        form = self.level_form()
        rows = [list(row) for row in self.rows] if form is None else _staircase(*form, seq=list)
        return {"size": self.size, "rows": rows}


def _entry_bound(rows) -> int:
    """Largest absolute entry, at least 1 so a zero factor still leaves room for the other."""
    return max(max(map(max, rows), default=0), -min(map(min, rows), default=0), 1)


_ZETA: dict[int, tuple] = {}  # L -> (the truncation closed, zeta_from_order(L)) for L <= _KEPT


def zeta_from_order(max_level: int) -> TriangularMatrix:
    """Zeta matrix as the reflexive-transitive closure of the Hasse diagram.

    Row i is the int bitset of the vertices reachable from i; covers lead to later indices, so the rows
    close from the last vertex down, each ORing in the rows of its heads from ``poset._cover_heads``, one
    range a level for a library view and no pair walked; equal heads above their sources share one OR.  Only the
    cover edges and the linear order are read, nothing of the staircase route:
    the rows are expanded from the bitsets on their first read, and the level
    form is read off the bitsets by ``_reach_levels``.  A closure through ``_KEPT``, the
    levels poset keeps, is kept with the truncation it closed and returned again, the same
    immutable matrix, only while ``truncate`` returns that very truncation.
    """
    t = truncate(max_level)
    kept = _ZETA.get(max_level)
    if kept and kept[0] is t:
        return kept[1]
    n = t.vertex_count
    reach = [1 << i for i in range(n)]
    shared: dict[tuple | range, int] = {}  # heads -> the OR of their rows, kept only if all lie above their source
    for i, hs in reversed([*enumerate(_cover_heads(t))]):  # a later head's row is closed, an earlier one's its own bit
        if (up := shared.get(hs)) is None:  # a hit came from a later source, so these heads lie above i too
            up = reduce(or_, map(reach.__getitem__, hs), 0)
            if hs and min(hs) > i:
                shared[hs] = up
        reach[i] |= up
    for i, r in enumerate(reach):
        if r >> i << i != r:
            raise ValueError(f"nonzero entry below the diagonal in row {i}")

    def rows():  # only ever from the bitsets, never from the level form or the staircase
        digits = bytes.maketrans(b"01", b"\0\1")
        return (tuple(format(r, f"0{n}b")[::-1].encode().translate(digits)) for r in reach)
    z = TriangularMatrix._trusted(_reach_levels(reach), rows)
    if max_level <= _KEPT:
        _ZETA[max_level] = t, z
    return z


def zeta_explicit(size: int) -> TriangularMatrix:
    """Zeta matrix from the closed formula zeta = zeta1 - zeta0.

    zeta1 is the all-ones upper triangle (diagonal included).  zeta0
    punches out, for the vertex at linear index x = F_{s+1}+k of level s,
    the F_s - k - 1 = F_{s+2} - x - 1 same-level columns to its right.
    So level s is a staircase block ending at F_{s+2}, clipped at
    ``size``, with ones after it.  No poset machinery is used here; the
    construction depends only on Fibonacci numbers.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    ends = (*takewhile(size.__gt__, map(fib, count(2))), index(size))  # level s ends before index F_{s+2}
    return TriangularMatrix._trusted((ends, 1, ((1,) * len(ends),) * len(ends)))


def mobius(z: TriangularMatrix) -> TriangularMatrix:
    """Exact inverse of a unitriangular matrix.

    On an ordinal sum of antichains (a level form with diagonal 1 and all ones above the block diagonal, as every
    cobweb zeta) mu(b, c) = (-1)^(c-b) prod_{b<l<c} (|B_l| - 1), Hall's alternating sum of chain counts, in O(L^2).
    Any other matrix falls back to back-substitution, which is also the oracle for the closed form."""
    form = z.level_form()
    if form is None or form[1] != 1 or any(v != 1 for b, row in enumerate(form[2]) for v in row[b + 1 :]):
        return _back_substitute(z)
    sizes, table = _sizes(form[0]), []
    for b in range(len(sizes)):  # mu(b, b + 1) = -1, then a factor 1 - |B_l| for each block l passed
        table.append((0,) * (b + 1) + tuple(accumulate((1 - s for s in sizes[b + 1 :]), mul, initial=-1))[:-1])
    return TriangularMatrix._trusted((form[0], 1, tuple(table)))


def _reach_levels(reach: list[int]):
    """Level form of the zeta matrix whose row i is the bitset ``reach[i]``, or None, in O(N)
    int operations.  Each block ends at the first bit right of its first row's own bit; each
    row of the block must be its own bit and every bit from the block end on."""
    n = len(reach)
    ends = []
    start = 0
    while start < n:
        r = reach[start] >> start + 1
        end = start + (r & -r).bit_length() if r else n
        tail = (1 << n) - (1 << end)  # every bit from end on
        if any(reach[i] != 1 << i | tail for i in range(start, end)):
            return None
        ends.append(end)
        start = end
    return tuple(ends), 1, ((1,) * len(ends),) * len(ends)


def _sizes(ends) -> list[int]:
    return [end - start for start, end in zip((0, *ends), ends)]


def _staircase(ends, diag: int, table, seq=tuple) -> list:
    """Rows of the level form ``(ends, diag, table)``, each a ``seq``: row i of block b reads ``diag``
    at i, zeros to the block end, then table[b][c] across each block c > b.  A block's rows are copies
    of one template, zeros then the block's tail, each taken with its diagonal cell set, then cleared."""
    sizes, rows = _sizes(ends), []
    for b, (end, size) in enumerate(zip(ends, sizes)):
        base = [0] * end + [*chain.from_iterable(map(repeat, table[b][b + 1 :], sizes[b + 1 :]))]
        for i in range(end - size, end):
            base[i] = diag
            rows.append(seq(base))
            base[i] = 0
    return rows


def _level_row(sizes, b: int, da: int, row, db: int, tb, cols=None) -> tuple[int, ...]:
    """Table row b of A * B from A's diagonal ``da`` and table row ``row``, and B's (``db``, ``tb``): zeros to b, then
    each entry (or those at ``cols``) in O(L): P(b, c) = da B(b, c) + A(b, c) db + sum_{b<l<c} |B_l| A(b, l) B(l, c)."""
    return (0,) * (b + 1) + tuple(
        da * tb[b][c] + row[c] * db + sum(sizes[l] * row[l] * tb[l][c] for l in range(b + 1, c))
        for c in cols or range(b + 1, len(sizes))
    )


def _back_substitute(z: TriangularMatrix) -> TriangularMatrix:
    """Exact inverse of a unitriangular matrix by back-substitution."""
    if not z.is_unitriangular():
        raise ValueError("mobius needs a unitriangular matrix")
    n = z.size
    rows = z.rows
    out = []
    for i in range(n):
        y = [0] * n
        y[i] = 1
        for t in range(i, n):
            c = y[t]
            if not c:
                continue
            rt = rows[t]
            for j in range(t + 1, n):
                if rt[j]:
                    y[j] -= c * rt[j]
        out.append(y)
    return TriangularMatrix(out)


def eta(z: TriangularMatrix) -> TriangularMatrix:
    """Strict-order part zeta - delta; its powers count strict chains.  Of a level
    form it is the same form with the diagonal one less."""
    form = z.level_form()
    if form is None:
        return TriangularMatrix([[a - (i == j) for j, a in enumerate(row)] for i, row in enumerate(z.rows)])
    return TriangularMatrix._trusted((form[0], form[1] - 1, form[2]))


def chain_count(z: TriangularMatrix, x: int, y: int, length: int) -> int:
    """Number of strict chains x = z_0 < z_1 < ... < z_length = y.

    Entry (x, y) of eta^length with eta = zeta - delta.  Only row x is
    carried, so eta is never built: on a level form it is the table row of
    x's block, stepped length - 2 times in O(L^2), then y's entry alone in O(L)
    (length 1 reads the table; x = y is (diag - 1)^length); else ``_vec_mat_chains``.
    """
    n = z.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"indices must be in 0..{n - 1}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    form = z.level_form()
    if form is None:
        return _vec_mat_chains(z.rows, x, y, length)
    ends, diag, table = form
    b, c, e = bisect_right(ends, x), bisect_right(ends, y), diag - 1
    if x == y or b >= c or length == 1:  # length 1 reads the table; eta^length is 0 within and below x's block
        return e**length if x == y else table[b][c] if b < c else 0
    sizes, d, row = _sizes(ends), e, table[b]  # row x of eta: e at x, then the table row of its block
    for _ in range(length - 2):
        d, row = d * e, _level_row(sizes, b, d, row, e, table)
    return _level_row(sizes, b, d, row, e, table, (c,))[-1]


def _vec_mat_chains(rows, x: int, y: int, length: int) -> int:
    """Dense ``chain_count``: row x of eta stepped by v <- v*zeta - v, summing
    only the rows with a nonzero coefficient."""
    vec = list(rows[x])
    vec[x] -= 1
    for _ in range(length - 1):
        coeffs = [c for c in vec if c]
        cols = zip(*compress(rows, vec))
        vec = [sum(map(mul, coeffs, col)) - v for col, v in zip(cols, vec)] or [0] * len(vec)
    return vec[y]


def maximal_chain_matrix(max_level: int, from_level: int, to_level: int) -> list[list[int]]:
    """Saturated-chain counts between two levels, vertex by vertex.

    Each vertex covers its whole next level, so every entry is the product
    of the sizes of the levels strictly between; zero steps give the identity.
    """
    if not 0 <= from_level <= to_level <= max_level:
        raise ValueError(
            f"need 0 <= from_level <= to_level <= max_level, got {from_level}, {to_level}, {max_level}"
        )
    rows = level_size(from_level)
    if from_level == to_level:
        return [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    count = prod(map(level_size, range(from_level + 1, to_level)))
    return [[count] * level_size(to_level) for _ in range(rows)]
