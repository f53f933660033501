"""Exact integer incidence-algebra matrices for truncated cobweb posets.

The zeta matrix is materialized two independent ways (straight from the
order relation, and from the closed staircase formula).  The Moebius matrix
of an ordinal sum of antichains, which every cobweb truncation is, comes from
a recurrence on the level table; any other unitriangular matrix, and the
oracle the level route is checked against, use exact back-substitution.
Powers of eta = zeta - delta count strict chains.
"""

from __future__ import annotations

from itertools import compress
from operator import mul

from .fib_core import fib
from .poset import Vertex, leq, level_size, to_linear, truncate


class TriangularMatrix:
    """Immutable square integer matrix with nothing below the diagonal."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(tuple(map(int, row)) for row in rows)
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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, TriangularMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"TriangularMatrix(size={self.size})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError("TriangularMatrix is immutable")

    def is_unitriangular(self) -> bool:
        return all(self.rows[i][i] == 1 for i in range(self.size))

    # exact arithmetic ------------------------------------------------------

    def __mul__(self, other: "TriangularMatrix") -> "TriangularMatrix":
        """Exact product: row i is row i of ``self`` times ``other``.

        ``_back_substitute`` shares none of this code, so it stays an
        independent oracle for mu * zeta = delta.
        """
        if self.size != other.size:
            raise ValueError("size mismatch")
        return TriangularMatrix([_vec_mat(row, other.rows) for row in self.rows])

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


def zeta_from_order(max_level: int) -> TriangularMatrix:
    """Zeta matrix read off the order relation of the truncated poset."""
    t = truncate(max_level)
    verts = t.vertices
    return TriangularMatrix(
        [[1 if leq(u, v) else 0 for v in verts] for u in verts]
    )


def zeta_explicit(size: int) -> TriangularMatrix:
    """Zeta matrix from the closed formula zeta = zeta1 - zeta0.

    zeta1 is the all-ones upper triangle (diagonal included).  zeta0
    punches out, for the vertex at linear index F_{s+1}+k of level s, the
    F_s - k - 1 same-level columns to its right.  No poset machinery is
    used here; the construction depends only on Fibonacci numbers.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    z1 = [[1 if j >= i else 0 for j in range(size)] for i in range(size)]
    z0 = [[0] * size for _ in range(size)]
    s = 1
    while fib(s + 1) < size:
        fs = fib(s)
        base = fib(s + 1)
        for k in range(max(fs - 1, 0)):  # larger k leave the inner sum empty
            x = base + k
            if x >= size:
                break
            for r in range(1, fs - k):
                y = x + r
                if y < size:
                    z0[x][y] = 1
        s += 1
    return TriangularMatrix(z1) - TriangularMatrix(z0)


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
    return _ordinal_sum_mobius(ends)


def _antichain_block_ends(rows: tuple[tuple[int, ...], ...]) -> list[int] | None:
    """End indices of the blocks if ``rows`` is the zeta matrix of an ordinal
    sum of antichains, else None.

    Row i of block [start, end) must read 0...0 1 0...0 1...1: the diagonal
    one, zeros up to the block end, ones after it.  Whole rows are compared.
    """
    n = len(rows)
    zeros = (0,) * n
    ends = []
    start = 0
    while start < n:
        try:
            end = rows[start].index(1, start + 1)
        except ValueError:
            end = n
        ones = (1,) * (n - end)
        for i in range(start, end):
            if rows[i] != zeros[:i] + (1,) + zeros[: end - i - 1] + ones:
                return None
        ends.append(end)
        start = end
    return ends


def _ordinal_sum_mobius(ends: list[int]) -> TriangularMatrix:
    """Moebius matrix of the ordinal sum of antichains ending at ``ends``."""
    n = ends[-1] if ends else 0
    starts = [0, *ends[:-1]]
    sizes = [end - start for start, end in zip(starts, ends)]
    zeros = (0,) * n
    rows = []
    for b, (start, end) in enumerate(zip(starts, ends)):
        # mu(b, c) for every later block c, each repeated |B_c| times
        tail: list[int] = []
        partial = 1  # 1 + sum over the blocks l passed so far of |B_l| mu(b, l)
        for size in sizes[b + 1 :]:
            mu = -partial
            tail += [mu] * size
            partial += size * mu
        shared = tuple(tail)
        rows.extend(zeros[:i] + (1,) + zeros[: end - i - 1] + shared for i in range(start, end))
    return TriangularMatrix(rows)


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

    The product of the per-step cover matrices read off the truncation's
    edge list; entry (u, v) counts saturated chains from the u-th vertex
    of from_level to the v-th vertex of to_level.  Zero steps give the
    identity.
    """
    if not 0 <= from_level <= to_level <= max_level:
        raise ValueError(
            f"need 0 <= from_level <= to_level <= max_level, got {from_level}, {to_level}, {max_level}"
        )
    t = truncate(max_level)
    offset = [to_linear(Vertex(s, 1)) for s in range(max_level + 1)]
    level_of = [v.level for v in t.vertices]
    steps = {
        s: [[0] * level_size(s + 1) for _ in range(level_size(s))]
        for s in range(from_level, to_level)
    }
    for i, j in t.edges:  # one pass, each edge counted in its source level's step
        s = level_of[i]
        if from_level <= s < to_level:
            steps[s][i - offset[s]][j - offset[s + 1]] += 1
    size0 = level_size(from_level)
    result = [[1 if i == j else 0 for j in range(size0)] for i in range(size0)]
    for s in range(from_level, to_level):
        result = [_vec_mat(row, steps[s]) for row in result]
    return result
