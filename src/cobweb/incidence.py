"""Exact integer incidence-algebra matrices for truncated cobweb posets.

The zeta matrix is materialized two independent ways (closing the Hasse
diagram's cover edges, and the closed staircase formula).  The Moebius
matrix of an ordinal sum of antichains, which every cobweb truncation is,
comes from a recurrence on the level table; any other unitriangular matrix,
and the oracle the level route is checked against, use back-substitution.
Powers of eta = zeta - delta count strict chains; products pack rows into ints.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import prod
from operator import add, index, mul

from .fib_core import fib
from .poset import level_size, truncate


class TriangularMatrix:
    """Immutable square integer matrix with nothing below the diagonal."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(tuple(map(index, row)) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for i, row in enumerate(rows):
            if any(row[:i]):
                raise ValueError(f"nonzero entry below the diagonal in row {i}")
        object.__setattr__(self, "rows", rows)

    # construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "TriangularMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # basic protocol --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, TriangularMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"TriangularMatrix(size={self.size})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError("TriangularMatrix is immutable")

    def is_unitriangular(self) -> bool:
        return all(self.rows[i][i] == 1 for i in range(self.size))

    # exact arithmetic ------------------------------------------------------

    def __mul__(self, other: "TriangularMatrix") -> "TriangularMatrix":
        """Exact product by Kronecker substitution: each row of ``other`` is
        packed into one int, entry j in byte slot j, wide enough for
        n * max|self| * max|other| and a sign, and lifted by half a slot so
        that no entry borrows.  Row i is one big-int sum of the packed rows.
        ``_back_substitute`` shares none of this code, so it stays an
        independent oracle for mu * zeta = delta.
        """
        if self.size != other.size:
            raise ValueError("size mismatch")
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

    def __add__(self, other: "TriangularMatrix") -> "TriangularMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return TriangularMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "TriangularMatrix") -> "TriangularMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return TriangularMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def power(self, t: int) -> "TriangularMatrix":
        if t < 0:
            raise ValueError(f"power expects t >= 0, got {t}")
        out = TriangularMatrix.identity(self.size)
        for _ in range(t):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return all(not any(row) for row in self.rows)

    # export -----------------------------------------------------------------

    def to_dense_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows) + "\n"

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.rows) + "\n"

    def to_json_dict(self) -> dict:
        return {"size": self.size, "rows": [list(row) for row in self.rows]}


def _entry_bound(rows) -> int:
    """Largest absolute entry, at least 1 so a zero factor still leaves room for the other."""
    return max(max(map(max, rows), default=0), -min(map(min, rows), default=0), 1)


def zeta_from_order(max_level: int) -> TriangularMatrix:
    """Zeta matrix as the reflexive-transitive closure of the Hasse diagram.

    Row i is the int bitset of the vertices reachable from i; covers lead to
    later indices, so the rows close from the last vertex down.  Only the
    cover edges and the linear order are read, nothing of the staircase route.
    """
    t = truncate(max_level)
    n = t.vertex_count
    reach = [1 << i for i in range(n)]
    for i, j in sorted(t.edges, reverse=True):
        reach[i] |= reach[j]
    digits = bytes.maketrans(b"01", b"\0\1")
    return TriangularMatrix([format(r, f"0{n}b")[::-1].encode().translate(digits) for r in reach])


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
    ends: list[int] = []
    while not ends or ends[-1] < size:
        ends.append(min(fib(len(ends) + 2), size))  # level s ends before index F_{s+2}
    return TriangularMatrix(_staircase(ends, [(1,) * (size - end) for end in ends]))


def mobius(z: TriangularMatrix) -> TriangularMatrix:
    """Exact inverse of a unitriangular matrix.

    When ``z`` is the zeta matrix of an ordinal sum of antichains (every
    cobweb truncation is one), mu between distinct vertices depends only on
    their blocks and comes from the level recurrence
    mu(b, c) = -(1 + sum_{b<l<c} |B_l| mu(b, l)).  Any other matrix falls
    back to back-substitution, which is also the oracle for the level route.
    """
    ends = _antichain_block_ends(z.rows)
    if ends is None:
        return _back_substitute(z)
    sizes = [end - start for start, end in zip([0, *ends], ends)]
    tails = []
    for b in range(len(sizes)):
        # mu(b, c) for every later block c, each repeated |B_c| times
        tail: list[int] = []
        partial = 1  # 1 + sum over the blocks l passed so far of |B_l| mu(b, l)
        for size in sizes[b + 1 :]:
            mu = -partial
            tail += [mu] * size
            partial += size * mu
        tails.append(tuple(tail))
    return TriangularMatrix(_staircase(ends, tails))


def _antichain_block_ends(rows: tuple[tuple[int, ...], ...]) -> list[int] | None:
    """End indices of the blocks if ``rows`` is the zeta matrix of an ordinal
    sum of antichains, else None: each block ends at the first one right of
    its first row's diagonal, and the whole matrix must be that staircase.
    """
    n = len(rows)
    ends = []
    start = 0
    while start < n:  # a sentinel one at index n ends the last block
        start = (rows[start] + (1,)).index(1, start + 1)
        ends.append(start)
    if list(rows) != _staircase(ends, [(1,) * (n - end) for end in ends]):
        return None
    return ends


def _staircase(ends: list[int], tails: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Rows of an ordinal sum of blocks ending at ``ends``.

    Row i of block b reads the diagonal one, zeros up to the block end,
    then ``tails[b]``, which holds the entries of every later block.
    """
    zeros = (0,) * (ends[-1] if ends else 0)
    rows = []
    start = 0
    for end, tail in zip(ends, tails):
        rows.extend(zeros[:i] + (1,) + zeros[: end - i - 1] + tail for i in range(start, end))
        start = end
    return rows


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
    """Strict-order part zeta - delta; its powers count strict chains."""
    return z - TriangularMatrix.identity(z.size)


def chain_count(z: TriangularMatrix, x: int, y: int, length: int) -> int:
    """Number of strict chains x = z_0 < z_1 < ... < z_length = y.

    Entry (x, y) of eta^length with eta = zeta - delta.  Only row x is
    carried: it starts as row x of eta and is stepped by v <- v*zeta - v,
    so eta itself is never built.  ``_back_substitute`` does not use this
    product and stays the independent oracle.
    """
    n = z.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"indices must be in 0..{n - 1}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    vec = list(z.rows[x])
    vec[x] -= 1
    for _ in range(length - 1):
        vec = [a - b for a, b in zip(_vec_mat(vec, z.rows), vec)]
    return vec[y]


def _vec_mat(vec, rows) -> list[int]:
    """Row vector times matrix, summing only the rows with a nonzero coefficient."""
    coeffs = [c for c in vec if c]
    cols = zip(*compress(rows, vec))
    return [sum(map(mul, coeffs, col)) for col in cols] or [0] * len(rows[0])


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
