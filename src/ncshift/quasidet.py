"""Quasideterminant engines.

Two evaluators cover everything in scope:

* a symbolic expansion for almost-upper-triangular n x n matrices A with
  algebra entries on and above the diagonal, given as a function entry(i, j)
  of 1-indexed i <= j.  It carries the outer sign of every Jacobi-Trudi,
  Nagelsbach-Kostka, ribbon and translation formula (Gelfand, Krob, Lascoux,
  Leclerc, Retakh, Thibon, "Noncommutative symmetric functions", 1995); for a
  unit subdiagonal it is

      (-1)^(n-1) |A|_{1n} = sum over 1 <= l_1 < ... < l_k < n of
                 (-1)^(n-1+k)  a_{1,l_1} a_{l_1+1,l_2} ... a_{l_k+1,n};

* an exact numeric evaluator for matrices whose entries are square rational
  matrices, using the defining formula
  |A|_{pq} = a_{pq} - row_p(A^{pq}) ((A^{pq})^{-1} col_q(A^{pq})) with the
  minor, the row and the column flattened to rational matrices: one inverse
  and two products, each done on integers over common denominators.  The
  bracketed solve does not read row p, so it is its own step (solve_minor)
  for callers that box several rows against one minor.

Any nonzero rational subdiagonal is accepted in the symbolic engine:
left-scaling a non-boxed row leaves the quasideterminant unchanged, so rows
are normalized first.  A rational factor on the boxed column scales it.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import NCElement
from .params import as_fraction


def max_reseed_default() -> int:
    """Resampling budget for singular draws; NCSHIFT_MAX_RESEED overrides.

    Raises ValueError unless the variable holds a non-negative integer.
    """
    raw = os.environ.get("NCSHIFT_MAX_RESEED", "16")
    if not raw.strip().isdecimal():
        raise ValueError(f"NCSHIFT_MAX_RESEED must be a non-negative integer, got {raw!r}")
    return int(raw)


class ShapeError(ValueError):
    """Matrix does not have the declared Hessenberg shape."""


class SingularMinor(ArithmeticError):
    """A flattened minor turned out to be singular."""


class ExhaustedRetries(RuntimeError):
    """Every sampled matrix hit a singular minor."""


# -- symbolic engine ---------------------------------------------------------


def hessenberg_quasidet(
    n: int,
    entry: Callable[[int, int], NCElement | MatValue],
    subdiag: Sequence[Fraction | int] | None = None,
) -> NCElement | MatValue:
    """(-1)^(n-1) |A|_{1n} for an n x n almost-upper-triangular matrix A.

    entry(i, j) is the NCElement at the 1-indexed position (i, j) for
    i <= j; the expansion asks for each of these n(n+1)/2 entries exactly
    once.  subdiag gives the scalar entries at positions (i+1, i), default
    all 1; every entry below the subdiagonal is zero.  The expansion only
    multiplies, subtracts, negates and scales entries, so they may also be
    MatValue blocks, the subdiagonal then holding multiples of the identity.
    """
    if n < 1:
        raise ShapeError(f"need n >= 1, got {n}")
    if subdiag is None:
        subdiag = [1] * (n - 1)
    if len(subdiag) != n - 1:
        raise ShapeError("need exactly n-1 subdiagonal entries")
    # row i is divided by the subdiagonal entry to its left
    scale = [Fraction(1), Fraction(1)] + [Fraction(1) / as_fraction(c) for c in subdiag]

    def scaled(i: int, j: int) -> NCElement | MatValue:
        e = entry(i, j)
        return e.scale(scale[i]) if scale[i] != 1 else e

    # tail[i] accumulates the expansion over rows i..n
    tail = {}
    for i in range(n, 0, -1):
        acc = scaled(i, n)
        for m in range(i, n):
            acc = acc - scaled(i, m) * tail[m + 1]
        tail[i] = acc
    return tail[1] if n % 2 else -tail[1]


# -- exact rational matrices --------------------------------------------------


class MatValue:
    """Immutable square matrix of exact rationals."""

    __slots__ = ("data", "n")

    def __init__(self, data):
        self.data = tuple(tuple(as_fraction(x) for x in row) for row in data)
        self.n = len(self.data)
        for row in self.data:
            if len(row) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def _of(cls, data: tuple) -> "MatValue":
        """Wrap a square tuple of tuples of Fractions without coercing it."""
        out = object.__new__(cls)
        out.data = data
        out.n = len(data)
        return out

    @staticmethod
    def identity(n: int) -> "MatValue":
        return MatValue([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int) -> "MatValue":
        return MatValue([[0] * n for _ in range(n)])

    @staticmethod
    def scalar(n: int, c) -> "MatValue":
        c = as_fraction(c)
        return MatValue([[c if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatValue):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def _plus_scalar(self, c: Fraction) -> "MatValue":
        """self + c Id: only the diagonal entries change."""
        return MatValue._of(
            tuple(row[:i] + (row[i] + c,) + row[i + 1 :] for i, row in enumerate(self.data))
        )

    def __add__(self, other) -> "MatValue":
        """Entrywise sum; a rational c is read as c Id."""
        if not isinstance(other, MatValue):
            return self._plus_scalar(as_fraction(other))
        return MatValue._of(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.data, other.data)
            )
        )

    def __sub__(self, other) -> "MatValue":
        """Entrywise difference; a rational c is read as c Id."""
        if not isinstance(other, MatValue):
            return self._plus_scalar(-as_fraction(other))
        return MatValue._of(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.data, other.data)
            )
        )

    def __neg__(self) -> "MatValue":
        return MatValue._of(tuple(tuple(-a for a in row) for row in self.data))

    def scale(self, c) -> "MatValue":
        c = as_fraction(c)
        return MatValue._of(tuple(tuple(c * a for a in row) for row in self.data))

    def __mul__(self, other: "MatValue") -> "MatValue":
        if not isinstance(other, MatValue):
            return self.scale(other)
        return MatValue._of(_product(self.data, other.data))

    __rmul__ = scale

    def inverse(self) -> "MatValue":
        """Fraction-free Gauss-Jordan; raises SingularMinor if singular.

        With rows cleared to integers M = diag(den) A, Bareiss's update keeps
        every entry an integer minor of [M | I], so each division is exact.
        """
        n = self.n
        cleared = _cleared(self.data)
        m = [ints + [int(i == j) for j in range(n)] for i, (_, ints) in enumerate(cleared)]
        prev = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col]), None)
            if piv is None:
                raise SingularMinor("singular matrix")
            m[col], m[piv] = m[piv], m[col]
            pivot_row = m[col]
            p = pivot_row[col]
            for r in range(n):
                if r != col:
                    f = m[r][col]
                    m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], pivot_row)]
            prev = p
        # the left block is now prev * I, and A^{-1} = M^{-1} diag(den)
        dens = [den for den, _ in cleared]
        inv = [[Fraction(x * den, prev) for x, den in zip(row[n:], dens)] for row in m]
        return MatValue._of(tuple(map(tuple, inv)))

    def det(self) -> Fraction:
        """Fraction-free Bareiss elimination on a denominator-cleared copy."""
        n = self.n
        if n == 0:
            return Fraction(1)
        cleared = _cleared(self.data)
        denom = math.prod(den for den, _ in cleared)
        m = [ints for _, ints in cleared]
        sign = 1
        prev = 1
        for col in range(n - 1):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                sign = -sign
            for r in range(col + 1, n):
                for c in range(col + 1, n):
                    m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
                m[r][col] = 0
            prev = m[col][col]
        return Fraction(sign * m[n - 1][n - 1], 1) / denom

    def to_json(self) -> list:
        return [[str(x) for x in row] for row in self.data]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.data) + "]"

    __repr__ = __str__


def _cleared(vectors) -> list[tuple[int, list[int]]]:
    """Each vector of Fractions as (common denominator, integer numerators)."""
    out = []
    for v in vectors:
        den = math.lcm(*(x.denominator for x in v))
        out.append((den, [x.numerator * (den // x.denominator) for x in v]))
    return out


def _product(left: Sequence[Sequence[Fraction]], right: Sequence[Sequence[Fraction]]) -> tuple:
    """Product of rectangular Fraction matrices: one integer dot product per entry."""
    cols = _cleared(zip(*right))
    return tuple(
        tuple(Fraction(sum(a * b for a, b in zip(r, c)), dr * dc) for dc, c in cols)
        for dr, r in _cleared(left)
    )


def _flatten(blocks: Sequence[Sequence[MatValue]], d: int) -> MatValue:
    rows = []
    for brow in blocks:
        for r in range(d):
            rows.append([x for blk in brow for x in blk.data[r]])
    return MatValue(rows)


def solve_minor(minor: Sequence[Sequence[MatValue]], col: Sequence[MatValue]) -> tuple:
    """M^{-1} c, flattened, for the block minor M and the block column c beside it.

    This is the half of the Schur-complement form of |A|_{pq} (Gelfand,
    Gelfand, Retakh, Wilson, "Quasideterminants", 2005) that does not read the
    boxed row, so quasideterminants that differ only in that row can share it.
    Raises SingularMinor if M is singular; an empty minor gives the empty solve.
    """
    if not col:
        return ()
    inv = _flatten(minor, col[0].n).inverse()
    return _product(inv.data, [r for blk in col for r in blk.data])


def schur_complement(corner: MatValue, row: Sequence[MatValue], solved: tuple) -> MatValue:
    """a_pq - row (M^{-1} c): the quasideterminant from its corner, the rest of
    the boxed row and the solve_minor of the other rows."""
    if not solved:
        return corner
    flat = [[x for blk in row for x in blk.data[r]] for r in range(corner.n)]
    return corner - MatValue._of(_product(flat, solved))


def block_quasidet(
    blocks: Sequence[Sequence[MatValue]], p: int, q: int
) -> MatValue:
    """|A|_{pq} for an n x n matrix of d x d rational blocks (1-indexed p, q)."""
    n = len(blocks)
    for brow in blocks:
        if len(brow) != n:
            raise ValueError("block matrix must be square")
    rows = [i for i in range(n) if i != p - 1]
    cols = [j for j in range(n) if j != q - 1]
    solved = solve_minor(
        [[blocks[i][j] for j in cols] for i in rows], [blocks[i][q - 1] for i in rows]
    )
    return schur_complement(blocks[p - 1][q - 1], [blocks[p - 1][j] for j in cols], solved)


# -- randomized property checks ----------------------------------------------

#: sampling pool for random rational matrices
RANDOM_POOL = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]


def random_mat(rng: random.Random, d: int) -> MatValue:
    return MatValue([[rng.choice(RANDOM_POOL) for _ in range(d)] for _ in range(d)])


def verify_bazin(
    n: int,
    k: int,
    d: int,
    seed: int,
    variant: str = "corrected",
) -> bool:
    """Check the Bazin-type identity on a random 2n x n block matrix.

    The right-hand side is always the three-factor product

        |A_(k..n-1, n+1..n+k)|_{n+k,n} |A_(k..n+k-1)|_{n,n}^{-1} |A_(1..n)|_{nn}.

    Under variant="printed" the left-hand side is |B|_{1k} with
    b_{ij} = |A_(i..i+n-2, n+j)|_{n+j,n}, the display as published.  That
    reading only survives for commuting entries (d = 1): transposing the
    source theorem moved the quasiminor windows without adjusting the
    quasideterminant conventions.  Under variant="corrected" the window is
    indexed by the column and the quasideterminant boxes the bottom-left
    corner, |B|_{k1} with b_{ij} = |A_(j..j+n-2, n+i)|_{n+i,n} (the transpose
    of the printed B), which holds for matrix entries of any size.

    Singular draws are retried with incremented seeds, at most
    max_reseed_default() times.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")
    draws = max_reseed_default() + 1
    for attempt in range(draws):
        rng = random.Random(seed + attempt)
        A = [[random_mat(rng, d) for _ in range(n)] for _ in range(2 * n)]

        def quasiminor(rows: list[int], pos: int, q: int) -> MatValue:
            # pos is the 1-indexed position of the boxed row within the list;
            # the list may repeat a row label, in which case the block is a
            # legitimate zero of the identity, not a sampling failure.
            return block_quasidet([A[i - 1] for i in rows], pos, q)

        try:
            B = [
                [
                    quasiminor(list(range(i, i + n - 1)) + [n + j], n, n)
                    for j in range(1, k + 1)
                ]
                for i in range(1, k + 1)
            ]
            if variant == "printed":
                lhs = block_quasidet(B, 1, k)
            else:
                lhs = block_quasidet(list(zip(*B)), k, 1)
            rows1 = list(range(k, n)) + list(range(n + 1, n + k + 1))
            f1 = quasiminor(rows1, len(rows1), n)
            rows2 = list(range(k, n + k))
            f2 = quasiminor(rows2, rows2.index(n) + 1, n)
            f3 = quasiminor(list(range(1, n + 1)), n, n)
            rhs = f1 * f2.inverse() * f3
        except SingularMinor:
            continue
        return lhs == rhs
    raise ExhaustedRetries(f"no nonsingular sample in {draws} draws")
