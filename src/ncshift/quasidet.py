"""Quasideterminant engines.

Two evaluators cover everything in scope:

* a symbolic expansion for almost-upper-triangular n x n matrices A with
  algebra entries on and above the diagonal, given as a function entry(i, j)
  of 1-indexed i <= j.  It carries the outer sign of every Jacobi-Trudi,
  Nagelsbach-Kostka, ribbon and translation formula (Gelfand, Krob, Lascoux,
  Leclerc, Retakh, Thibon, "Noncommutative symmetric functions", 1995); for a
  unit subdiagonal it is

      (-1)^(n-1) |A|_{1n} = sum over 1 <= l_1 < ... < l_k < n of
                 (-1)^(n-1+k)  a_{1,l_1} a_{l_1+1,l_2} ... a_{l_k+1,n}.

  Its entries are NCElements only, and each row of its recursion is one
  LinComb.sum_of_products call;

* an exact numeric evaluator for matrices whose entries are square rational
  matrices, using the defining formula
  |A|_{pq} = a_{pq} - row_p(A^{pq}) ((A^{pq})^{-1} col_q(A^{pq})) with the
  minor, the row and the column flattened to rational matrices: one
  elimination of [minor | column] and one product.  The bracketed solve does
  not read row p, so it is its own step (solve_minor) for callers that box
  several rows against one minor.

A MatValue is integer numerators over one positive denominator, in lowest
terms; every operation works on the integers (inverses and solves by Bareiss
elimination), lifts blocks to the lcm of their denominators and reduces its
result once.  Only values that are returned are reduced: a flattened minor,
row or column is integer rows over the lcm of its block denominators, passed
unreduced to the elimination and the product, and the shifted-power step
(times_shifted) and the scaled sum (combination) are each one integer
computation with one reduction.  A rational from outside -- a matrix entry or a
scalar operand c of +, -, scale and scalar, read as c Id -- is split once into
(numerator, denominator) by params._ratio, so an int operand builds no
Fraction; random_mat draws integer numerators over 2.

Randomized checks evaluate at seeded random points and redraw a point whose
quasiminor is singular.  first_nonsingular is the one draw loop: it spends
the reseed budget MAX_RESEED on the points a caller supplies and raises
ExhaustedRetries when every one of them is singular.

Any nonzero rational subdiagonal is accepted in the symbolic engine:
left-scaling a non-boxed row leaves the quasideterminant unchanged, so rows
are normalized first.  A rational factor on the boxed column scales it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, count, islice
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .algebra import NCElement
from .params import _ratio, as_fraction

#: redraws a randomized check may spend on singular points: 1 + MAX_RESEED draws in all
MAX_RESEED = 16


class ShapeError(ValueError):
    """Matrix does not have the declared Hessenberg shape."""


class SingularMinor(ArithmeticError):
    """A flattened minor turned out to be singular."""


class ExhaustedRetries(RuntimeError):
    """Every sampled matrix hit a singular minor."""


def first_nonsingular(points: Iterable, check: Callable):
    """check(point) at the first of at most 1 + MAX_RESEED points, taken
    lazily, where it raises no SingularMinor; ExhaustedRetries if every one does."""
    draws = MAX_RESEED + 1
    for point in islice(points, draws):
        try:
            return check(point)
        except SingularMinor:
            continue
    raise ExhaustedRetries(f"no nonsingular sample in {draws} draws")


# -- symbolic engine ---------------------------------------------------------


def hessenberg_quasidet(
    n: int,
    entry: Callable[[int, int], NCElement],
    subdiag: Sequence[Fraction | int] | None = None,
) -> NCElement:
    """(-1)^(n-1) |A|_{1n} for an n x n almost-upper-triangular matrix A.

    entry(i, j) is the NCElement at the 1-indexed position (i, j) for
    i <= j; the expansion asks for each of these n(n+1)/2 entries exactly
    once.  subdiag gives the scalar entries at positions (i+1, i), default
    all 1; a zero one is a ShapeError.  Every entry below the subdiagonal
    is zero.
    """
    if n < 1:
        raise ShapeError(f"need n >= 1, got {n}")
    if subdiag is None:
        subdiag = [1] * (n - 1)
    if len(subdiag) != n - 1:
        raise ShapeError("need exactly n-1 subdiagonal entries")
    # row i is divided by the subdiagonal entry to its left
    scale = [Fraction(1), Fraction(1)]
    for i, c in enumerate(map(as_fraction, subdiag), 2):
        if not c:
            raise ShapeError(f"zero subdiagonal entry at ({i}, {i - 1})")
        scale.append(1 / c)

    def scaled(i: int, j: int) -> NCElement:
        e = entry(i, j)
        return e.scale(scale[i]) if scale[i] != 1 else e

    # tail[i] is the expansion over rows i..n
    tail = {}
    for i in range(n, 0, -1):
        pairs = ((scaled(i, m), tail[m + 1]) for m in range(i, n))
        tail[i] = scaled(i, n) - NCElement.sum_of_products(pairs, add)
    return tail[1] if n % 2 else -tail[1]


# -- exact rational matrices --------------------------------------------------


class MatValue:
    """Immutable square matrix of exact rationals.

    num is a tuple of rows of integer numerators over den, one positive int,
    always in lowest terms: gcd(den, *entries) == 1.  So equal matrices have
    equal (num, den), which == and hash compare.  data builds the entries as
    Fractions, for printing.
    """

    __slots__ = ("num", "den", "n")

    def __init__(self, data):
        rows = [[_ratio(x) for x in row] for row in data]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        # over the lcm of the denominators the numerators are coprime to it
        den = math.lcm(*(q for row in rows for _, q in row))
        self.num = tuple(tuple(p * (den // q) for p, q in row) for row in rows)
        self.den = den
        self.n = len(rows)

    @property
    def data(self) -> tuple:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    @staticmethod
    def identity(n: int) -> "MatValue":
        return MatValue.scalar(n, 1)

    @staticmethod
    def zeros(n: int) -> "MatValue":
        return MatValue.scalar(n, 0)

    @staticmethod
    def scalar(n: int, c) -> "MatValue":
        p, q = _ratio(c)
        return _lowest([[p * (i == j) for j in range(n)] for i in range(n)], q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatValue):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def _plus_scalar(self, p: int, q: int) -> "MatValue":
        """self + (p/q) Id for q > 0: p/q is added to the diagonal only."""
        den = math.lcm(self.den, q)
        f, diag = den // self.den, p * (den // q)
        rows = [[x * f for x in row] for row in self.num] if f != 1 else list(map(list, self.num))
        for i, row in enumerate(rows):
            row[i] += diag
        return _lowest(rows, den)

    def __add__(self, other) -> "MatValue":
        """Entrywise sum; a rational c is read as c Id."""
        if not isinstance(other, MatValue):
            return self._plus_scalar(*_ratio(other))
        return _combine(self.num, self.den, other.num, other.den, 1)

    def __sub__(self, other) -> "MatValue":
        """Entrywise difference; a rational c is read as c Id."""
        if not isinstance(other, MatValue):
            p, q = _ratio(other)
            return self._plus_scalar(-p, q)
        return _combine(self.num, self.den, other.num, other.den, -1)

    def __neg__(self) -> "MatValue":
        return _lowest([[-x for x in row] for row in self.num], self.den)

    def scale(self, c) -> "MatValue":
        p, q = _ratio(c)
        return _lowest([[p * x for x in row] for row in self.num], self.den * q)

    def __mul__(self, other: "MatValue") -> "MatValue":
        if not isinstance(other, MatValue):
            return self.scale(other)
        return _lowest(_product(self.num, other.num), self.den * other.den)

    __rmul__ = scale

    def times_shifted(self, z: "MatValue", p: int, q: int) -> "MatValue":
        """self (z - p/q Id) for q > 0: one integer product, one reduction."""
        s = p * z.den
        shifted = [[x * q - s * (i == j) for j, x in enumerate(row)] for i, row in enumerate(z.num)]
        return _lowest(_product(self.num, shifted), self.den * z.den * q)

    def inverse(self) -> "MatValue":
        """den num^{-1} by Bareiss elimination; raises SingularMinor if singular."""
        n = self.n
        p, _, right = _bareiss(self.num, [[int(i == j) for j in range(n)] for i in range(n)])
        if not p:
            raise SingularMinor("singular matrix")
        return _lowest([[self.den * x for x in row] for row in right], p)

    def det(self) -> Fraction:
        p, sign, _ = _bareiss(self.num, [()] * self.n)
        return Fraction(sign * p, self.den**self.n)

    def to_json(self) -> list:
        return [[str(x) for x in row] for row in self.data]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.data) + "]"

    __repr__ = __str__


def _lowest(num: Sequence[Sequence[int]], den: int) -> MatValue:
    """The square matrix num / den (den != 0) in lowest terms, with den > 0."""
    g = math.gcd(den, *chain.from_iterable(num)) * (-1 if den < 0 else 1)
    out = object.__new__(MatValue)
    out.num = tuple(tuple(row) if g == 1 else tuple(x // g for x in row) for row in num)
    out.den = den // g
    out.n = len(num)
    return out


def combination(n: int, terms: Iterable[tuple[Fraction | int, MatValue]]) -> MatValue:
    """The n x n sum of c m over the (c, m) terms: the integer numerators are
    summed over the lcm of the denominators and reduced once."""
    scaled = []
    for c, m in terms:
        p, q = c.as_integer_ratio()
        scaled.append((p, q * m.den, m.num))
    den = math.lcm(*(q for _, q, _ in scaled))
    lifts = [(p * (den // q), num) for p, q, num in scaled]
    return _lowest(
        [[sum(f * num[i][j] for f, num in lifts) for j in range(n)] for i in range(n)], den
    )


def _combine(num1, den1: int, num2, den2: int, sign: int) -> MatValue:
    """num1 / den1 + sign num2 / den2, over the lcm of the denominators."""
    den = math.lcm(den1, den2)
    f1, f2 = den // den1, sign * (den // den2)
    return _lowest([[a * f1 + b * f2 for a, b in zip(r1, r2)] for r1, r2 in zip(num1, num2)], den)


def _product(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]) -> list:
    """Product of rectangular integer matrices, one dot product per entry."""
    cols = list(zip(*right))
    return [[sum(map(mul, r, c)) for c in cols] for r in left]


def _bareiss(num: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]) -> tuple:
    """Fraction-free Gauss-Jordan elimination of [num | rhs] (Bareiss 1968).

    Every entry stays an integer minor, so each division is exact.  Returns
    (p, sign, right): p = sign det(num), the last pivot, with sign that of the
    row exchanges, and right = p num^{-1} rhs; p = 0 if num is singular.
    """
    n = len(num)
    m = [list(row) + list(r) for row, r in zip(num, rhs)]
    prev, sign = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0, sign, None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot_row = m[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], pivot_row)]
        prev = p
    return prev, sign, [row[n:] for row in m]


def _flatten(blocks: Sequence[Sequence[MatValue]], d: int) -> tuple[list, int]:
    """The matrix of d x d blocks as one matrix: (integer rows, den), over the
    lcm of the block denominators and not reduced."""
    den = math.lcm(*(blk.den for brow in blocks for blk in brow))
    rows = []
    for brow in blocks:
        lifts = [(blk.num, den // blk.den) for blk in brow]
        rows += ([x * f for num, f in lifts for x in num[r]] for r in range(d))
    return rows, den


def solve_minor(minor: Sequence[Sequence[MatValue]], col: Sequence[MatValue]) -> tuple:
    """M^{-1} c, flattened, for the block minor M and the block column c beside it.

    This is the half of the Schur-complement form of |A|_{pq} (Gelfand,
    Gelfand, Retakh, Wilson, "Quasideterminants", 2005) that does not read the
    boxed row, so quasideterminants that differ only in that row can share it.
    The solve is (integer rows, denominator), from one Bareiss elimination of
    [M | c].  Raises SingularMinor if M is singular; an empty minor gives the
    empty solve.
    """
    if not col:
        return ()
    m, m_den = _flatten(minor, col[0].n)
    c, c_den = _flatten([[blk] for blk in col], col[0].n)
    p, _, right = _bareiss(m, c)
    if not p:
        raise SingularMinor("singular matrix")
    return [[m_den * x for x in row] for row in right], p * c_den


def schur_complement(corner: MatValue, row: Sequence[MatValue], solved: tuple) -> MatValue:
    """a_pq - row (M^{-1} c): the quasideterminant from its corner, the rest of
    the boxed row and the solve_minor of the other rows."""
    if not solved:
        return corner
    rows, den = solved
    flat, flat_den = _flatten([row], corner.n)
    return _combine(corner.num, corner.den, _product(flat, rows), flat_den * den, -1)


def block_quasidet(
    blocks: Sequence[Sequence[MatValue]], p: int, q: int
) -> MatValue:
    """|A|_{pq} for an n x n matrix of d x d rational blocks, 1 <= p, q <= n."""
    n = len(blocks)
    for brow in blocks:
        if len(brow) != n:
            raise ValueError("block matrix must be square")
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"need 1 <= p, q <= {n}, got ({p}, {q})")
    rows = [i for i in range(n) if i != p - 1]
    cols = [j for j in range(n) if j != q - 1]
    solved = solve_minor(
        [[blocks[i][j] for j in cols] for i in rows], [blocks[i][q - 1] for i in rows]
    )
    return schur_complement(blocks[p - 1][q - 1], [blocks[p - 1][j] for j in cols], solved)


# -- randomized property checks ----------------------------------------------

#: sampling pool for random rational matrices, as numerators over 2: the
#: entries -3..3, 1/2 and -1/2
RANDOM_POOL = [-6, -4, -2, 0, 2, 4, 6, 1, -1]


def random_mat(rng: random.Random, d: int) -> MatValue:
    return _lowest([[rng.choice(RANDOM_POOL) for _ in range(d)] for _ in range(d)], 2)


def bazin_matrix(rng: random.Random, n: int, d: int) -> list:
    """A point of the Bazin check: a random 2n x n matrix of d x d blocks."""
    return [[random_mat(rng, d) for _ in range(n)] for _ in range(2 * n)]


def bazin_holds(A: Sequence[Sequence[MatValue]], k: int, variant: str) -> bool:
    """Whether the Bazin-type identity holds at a 2n x n block matrix A.

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
    """
    n = len(A[0])
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if variant not in ("printed", "corrected"):
        raise ValueError("variant must be 'printed' or 'corrected'")

    def quasiminor(rows: list[int], pos: int, q: int) -> MatValue:
        # pos is the 1-indexed position of the boxed row within the list;
        # the list may repeat a row label, in which case the block is a
        # legitimate zero of the identity, not a sampling failure.
        return block_quasidet([A[i - 1] for i in rows], pos, q)

    B = [[quasiminor(list(range(i, i + n - 1)) + [n + j], n, n) for j in range(1, k + 1)]
         for i in range(1, k + 1)]
    lhs = block_quasidet(B, 1, k) if variant == "printed" else block_quasidet([*zip(*B)], k, 1)
    rows1 = list(range(k, n)) + list(range(n + 1, n + k + 1))
    f1 = quasiminor(rows1, len(rows1), n)
    rows2 = list(range(k, n + k))
    f2 = quasiminor(rows2, rows2.index(n) + 1, n)
    f3 = quasiminor(list(range(1, n + 1)), n, n)
    return lhs == f1 * f2.inverse() * f3


def verify_bazin(n: int, k: int, d: int, seed: int, variant: str = "corrected") -> bool:
    """bazin_holds at a bazin_matrix drawn from the stream seeded seed; a
    singular draw is redrawn from the stream of the next seed, through
    first_nonsingular."""
    draws = (bazin_matrix(random.Random(seed + a), n, d) for a in count())
    return first_nonsingular(draws, lambda A: bazin_holds(A, k, variant))
