"""Matrix specialization of the shifted symmetric functions.

Noncommuting variables are realized as exact-rational square matrices.  For an
equidistant parameter assignment a_i = base + i*c, the specialized elementary
and complete homogeneous functions are quotients of quasideterminants of
shifted powers

    <x_j | tau^{j-s} a>^m = (x_j - a_{1+j-s}) (x_j - a_{2+j-s}) ... ,

evaluated by the exact block engine.  Everything in this module is numeric;
identities of rational functions are checked at seeded random matrix points,
with bounded resampling when a quasiminor happens to be singular.

Values are memoized per assignment: a VariableAssignment keeps its shifted-power
chains, minor solves, inverted denominators, S/Lambda values and quasi-Schur
values for as long as it lives, so each point is evaluated once.  Every grid is
boxed at its last column, so a quasideterminant is a solve of its minor rows
against that column plus one Schur complement for the boxed row; the solve is
keyed by the minor's exponents and shared by every row boxed against it (the S_k
numerators, Lambda_1 and the S denominator share one, each Lambda_k shares its
own with its denominator).  Shifted or swapped assignments start empty, and a
singular minor, denominator or quasi-Schur value is never stored: it is raised
again on every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import NCElement
from .families import shift_Lambda
from .params import ParamSubstitution, SEQ_A, as_fraction
from .quasidet import (
    MatValue,
    SingularMinor,
    block_quasidet,
    hessenberg_quasidet,
    random_mat,
    schur_complement,
    solve_minor,
)
from .shifts import shift_S


class ZeroDenominator(SingularMinor):
    """The commutative determinant oracle hit a vanishing (singular) denominator."""


@dataclass(frozen=True)
class VariableAssignment:
    """An equidistant parameter choice plus a list of d x d variables."""

    vars: tuple[MatValue, ...]
    sub: ParamSubstitution
    # values computed at this point; not part of its identity
    _memo: dict = field(init=False, repr=False, compare=False)

    def __init__(self, vars, sub: ParamSubstitution):
        if sub.kind != "equidistant":
            raise ValueError("specialization requires an equidistant assignment")
        vars = tuple(vars)
        if not vars:
            raise ValueError("need at least one variable")
        d = vars[0].n
        if any(v.n != d for v in vars):
            raise ValueError("all variables must share one dimension")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def d(self) -> int:
        return self.vars[0].n

    @property
    def c(self) -> Fraction:
        return self.sub.c

    def a(self, i: int) -> Fraction:
        return self.sub.index_value(i)

    def replace_vars(self, vars) -> "VariableAssignment":
        return VariableAssignment(tuple(vars), self.sub)

    def shift_all(self, s: int) -> "VariableAssignment":
        """Every variable moved by s*c (the variable shift psi^[s])."""
        return self.replace_vars(v + s * self.c for v in self.vars)

    @staticmethod
    def from_json(data) -> "VariableAssignment":
        try:
            d = data["d"]
            if type(d) is not int:  # True and "1" are no JSON integers
                raise TypeError(f"d must be a JSON integer, got {d!r}")
            sub = ParamSubstitution.equidistant(
                as_fraction(data["c"]), as_fraction(data.get("base", 0))
            )
            flats = list(data["vars"])
        except KeyError as e:
            raise ValueError(f"missing key {e}") from None
        except (AttributeError, TypeError, ZeroDivisionError) as e:
            raise ValueError(f"bad d, c, base or vars: {e!r}") from None
        if d < 1:
            raise ValueError(f"d must be a positive integer, got {d}")
        vars = []
        for j, flat in enumerate(flats):
            if not isinstance(flat, list) or len(flat) != d * d:
                raise ValueError("variable entries must be d*d row-major lists")
            try:
                vars.append(MatValue([flat[r * d : (r + 1) * d] for r in range(d)]))
            except (TypeError, ZeroDivisionError) as e:
                raise ValueError(f"bad entry in variable {j + 1}: {e!r}") from None
        return VariableAssignment(tuple(vars), sub)

    def to_json(self) -> dict:
        return {
            "c": str(self.sub.c),
            "base": str(self.sub.base),
            "d": self.d,
            "vars": [[str(x) for row in v.data for x in row] for v in self.vars],
        }


def random_assignment(
    rng: random.Random, n: int, d: int, c=1, base=-1
) -> VariableAssignment:
    return VariableAssignment(
        tuple(random_mat(rng, d) for _ in range(n)),
        ParamSubstitution.equidistant(c, base),
    )


def shifted_power(x: MatValue, sub: ParamSubstitution, k: int, seq=SEQ_A) -> MatValue:
    """The ordered product (x - b_1) ... (x - b_k) for b the given sequence."""
    if k < 0:
        raise ValueError("negative shifted power")
    out = MatValue.identity(x.n)
    for i in range(1, k + 1):
        b = seq.term(i).substitute(sub)
        out = out * (x - b)
    return out


def _power(assignment: VariableAssignment, j: int, t: int, m: int) -> MatValue:
    """<x_j | tau^t a>^m, read from a chain extended by P_{i} = P_{i-1} (x_j - a_{i+t})."""
    x = assignment.vars[j]
    chain = assignment._memo.get(("power", j, t)) or [MatValue.identity(x.n)]
    assignment._memo["power", j, t] = chain
    while len(chain) <= m:
        chain.append(chain[-1] * (x - assignment.a(len(chain) + t)))
    return chain[m]


def _grid_row(assignment: VariableAssignment, m: int) -> list[MatValue]:
    """Row m of the grid of shifted powers: <x_j | tau^{j-n} a>^m for j = 1..n."""
    n = assignment.n
    return [_power(assignment, j, j + 1 - n, m) for j in range(n)]


def _boxed(assignment: VariableAssignment, minor: tuple[int, ...], box: int) -> MatValue:
    """Quasideterminant of the grid with rows minor + (box,), boxed at (n, n).

    A quasideterminant does not depend on the order of the other rows, so the
    solve of the minor against the last column is memoized by its exponents.
    """
    memo = assignment._memo
    if ("solve", minor) not in memo:
        rows = [_grid_row(assignment, m) for m in minor]
        memo["solve", minor] = solve_minor([r[:-1] for r in rows], [r[-1] for r in rows])
    row = _grid_row(assignment, box)
    return schur_complement(row[-1], row[:-1], memo["solve", minor])


def _quotient(assignment: VariableAssignment, e: int, box: int) -> MatValue:
    """|grid(minor + (box,))| |grid(minor + (e,))|^{-1} for minor = (0..n-1) without e.

    The denominator is the grid of exponents 0..n-1 boxed at row e; its inverse
    is memoized by e.
    """
    memo = assignment._memo
    minor = tuple(m for m in range(assignment.n) if m != e)
    if ("den", e) not in memo:
        memo["den", e] = _boxed(assignment, minor, e).inverse()
    return _boxed(assignment, minor, box) * memo["den", e]


def s_spec(k: int, assignment: VariableAssignment) -> MatValue:
    """S_k at the assignment; identity for k = 0.

    The quotient formula is used for every k >= 1.  It does not vanish for
    k > n: the defining series inversion forces e.g. S_2(x_1) = <x_1|a>^2,
    in line with the commutative recovery (h_2* of one variable), so the
    claimed vanishing beyond the variable count holds for the elementary
    family only.
    """
    n, d = assignment.n, assignment.d
    if k < 0:
        raise ValueError("negative degree")
    if k == 0:
        return MatValue.identity(d)
    memo = assignment._memo
    if ("S", k) not in memo:
        memo["S", k] = _quotient(assignment, n - 1, n + k - 1)
    return memo["S", k]


def lambda_spec(k: int, assignment: VariableAssignment) -> MatValue:
    """Lambda_k at the assignment; identity for k = 0, zero for k > n.

    The vanishing beyond the variable count is genuine here: the defining
    quasideterminant series for the elementary family has exactly n + 1
    denominator terms.
    """
    n, d = assignment.n, assignment.d
    if k < 0:
        raise ValueError("negative degree")
    if k == 0:
        return MatValue.identity(d)
    if k > n:
        return MatValue.zeros(d)
    memo = assignment._memo
    if ("L", k) not in memo:
        val = _quotient(assignment, n - k, n)
        memo["L", k] = val if (k - 1) % 2 == 0 else -val
    return memo["L", k]


def spec_value(family: str, k: int, assignment: VariableAssignment) -> MatValue:
    if family == "S":
        return s_spec(k, assignment)
    if family == "L":
        return lambda_spec(k, assignment)
    raise ValueError(f"unknown family {family!r}")


def evaluate_nc(x: NCElement, assignment: VariableAssignment) -> MatValue:
    """Evaluate an S-basis element: letters via s_spec, coefficients numerically."""
    d = assignment.d
    out = MatValue.zeros(d)
    for w, c in x.substitute(assignment.sub).items():
        acc = MatValue.scalar(d, c)
        for k in w:
            acc = acc * s_spec(k, assignment)
        out = out + acc
    return out


def psi_variable_shift(k: int, assignment: VariableAssignment, s: int, family: str = "S") -> MatValue:
    """psi^[s] of the specialized function: evaluation at (x_i + s c)."""
    return spec_value(family, k, assignment.shift_all(s))


def variable_shift_defect(k: int, assignment: VariableAssignment) -> MatValue:
    """psi S_k(x) - S_k(x) - c (n+k-1) S_{k-1}(x); zero when the shift law holds."""
    n = assignment.n
    c = assignment.c
    lhs = s_spec(k, assignment.shift_all(1))
    rhs = s_spec(k, assignment) + s_spec(k - 1, assignment).scale(c * (n + k - 1))
    return lhs - rhs


def phi_psi_relation_defect(k: int, assignment: VariableAssignment) -> MatValue:
    """psi S_k(x) - phi^[1] S_k(x) - n c S_{k-1}(x) (the two shifts compared)."""
    n = assignment.n
    c = assignment.c
    lhs = s_spec(k, assignment.shift_all(1))
    phi = evaluate_nc(shift_S(k, 1), assignment)
    return lhs - phi - s_spec(k - 1, assignment).scale(n * c)


def swap_variables(assignment: VariableAssignment, i: int) -> VariableAssignment:
    """The shifted exchange (x_i, x_{i+1}) -> (x_{i+1} - c, x_i + c), 1-indexed."""
    if not (1 <= i < assignment.n):
        raise ValueError("swap position out of range")
    c = assignment.c
    vars = list(assignment.vars)
    vars[i - 1], vars[i] = vars[i] - c, vars[i - 1] + c
    return assignment.replace_vars(vars)


def check_shifted_symmetry(k: int, assignment: VariableAssignment, i: int) -> bool:
    """Invariance of Lambda_k and S_k under the shifted adjacent swap."""
    swapped = swap_variables(assignment, i)
    return (
        s_spec(k, assignment) == s_spec(k, swapped)
        and lambda_spec(k, assignment) == lambda_spec(k, swapped)
    )


def check_extension(k: int, assignment: VariableAssignment) -> bool:
    """Appending the variable a_1 * Id leaves the specialization unchanged."""
    d = assignment.d
    extra = MatValue.scalar(d, assignment.a(1))
    extended = assignment.replace_vars(assignment.vars + (extra,))
    return (
        s_spec(k, extended) == s_spec(k, assignment)
        and lambda_spec(k, extended) == lambda_spec(k, assignment)
    )


# -- commutative recovery -------------------------------------------------------


def falling(x: Fraction, m: int) -> Fraction:
    """The falling power x (x - 1) ... (x - m + 1)."""
    out = Fraction(1)
    for t in range(m):
        out *= x - t
    return out


def commutative_oracle(family: str, k: int, scalars: list[Fraction]) -> Fraction:
    """Shifted symmetric h_k* or e_k* of commuting scalars, for a_i = i - 1.

    Classical ratio of determinants of falling powers of x_j + n - j; raises
    ZeroDenominator when the denominator determinant vanishes.
    """
    n = len(scalars)
    if k == 0:
        return Fraction(1)
    ys = [as_fraction(x) + n - j for j, x in enumerate(scalars, start=1)]
    if family == "S":
        exps = list(range(n - 1)) + [n + k - 1]
    elif family == "L":
        if k > n:
            # elementary functions of n commuting variables vanish beyond n
            return Fraction(0)
        exps = [m for m in range(n + 1) if m != n - k]
    else:
        raise ValueError(f"unknown family {family!r}")
    den = MatValue([[falling(y, m) for y in ys] for m in range(n)]).det()
    if den == 0:
        raise ZeroDenominator("vanishing Vandermonde-type determinant")
    num = MatValue([[falling(y, m) for y in ys] for m in exps]).det()
    return num / den


def commutative_recovery(k: int, n: int, scalars) -> bool:
    """d = 1 specialization against the determinant-quotient oracle (a_i = i-1)."""
    scalars = [as_fraction(x) for x in scalars]
    if len(scalars) != n:
        raise ValueError("need n scalar variables")
    assignment = VariableAssignment(
        tuple(MatValue([[x]]) for x in scalars),
        ParamSubstitution.equidistant(1, -1),
    )
    for family in ("S", "L"):
        want = commutative_oracle(family, k, scalars)
        got = spec_value(family, k, assignment)
        if got.data[0][0] != want:
            return False
    return True


# -- quasi-Schur functions -------------------------------------------------------


def quasi_schur_spec(shape: tuple[int, ...], assignment: VariableAssignment) -> MatValue:
    """The quasi-Schur value for a partition given in increasing order.

    Entry (p,q) of the defining matrix is S_{shape_q + q - p}^[n-p], expanded
    in the S-basis and evaluated; the quasideterminant is taken at the
    top-right corner with outer sign (-1)^(n-1).  The value is memoized in
    the assignment under ("Q", shape); a singular shape is never stored.
    """
    lam = tuple(shape)
    if any(a > b for a, b in zip(lam, lam[1:])):
        raise ValueError("partition parts must be given in increasing order")
    memo = assignment._memo
    if ("Q", lam) in memo:
        return memo["Q", lam]
    n = len(lam)
    d = assignment.d
    blocks = []
    for p in range(1, n + 1):
        row = []
        for q in range(1, n + 1):
            m = lam[q - 1] + q - p
            if m < 0:
                row.append(MatValue.zeros(d))
            else:
                row.append(evaluate_nc(shift_S(m, n - p), assignment))
        blocks.append(row)
    val = block_quasidet(blocks, 1, n)
    memo["Q", lam] = val if (n - 1) % 2 == 0 else -val
    return memo["Q", lam]


def quasi_schur_lambda_form(shape: tuple[int, ...], assignment: VariableAssignment) -> MatValue:
    """The conjugate elementary-generator form of the quasi-Schur value.

    For lambda = (l_1 <= ... <= l_n) this evaluates the matrix whose (p,q)
    entry is Lambda over the reversed partial sums with column shifts [1-q];
    it equals the quasi-Schur value of the conjugate shape.  The matrix is
    Hessenberg with identity blocks on its subdiagonal.
    """
    lam = tuple(shape)
    n = len(lam)
    return hessenberg_quasidet(
        n, lambda p, q: evaluate_nc(shift_Lambda(sum(lam[n - q : n - p + 1]), 1 - q), assignment)
    )


def frobenius_form(shape: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(betas, alphas) of a partition given in increasing order.

    alpha_i = arm length, beta_i = leg length of the i-th diagonal hook; the
    hook (b | a) is the increasing partition (1^b, a+1).  Both lists come out
    increasing, matching the increasing-partition convention throughout; the
    Giambelli matrix then boxes its bottom-right corner.
    """
    dec = sorted(shape, reverse=True)
    conj = []
    for i in range(1, (dec[0] if dec else 0) + 1):
        conj.append(sum(1 for p in dec if p >= i))
    r = sum(1 for i, p in enumerate(dec, start=1) if p >= i)
    alphas = tuple(dec[i - 1] - i for i in range(r, 0, -1))
    betas = tuple(conj[i - 1] - i for i in range(r, 0, -1))
    return betas, alphas


def hook_partition(beta: int, alpha: int) -> tuple[int, ...]:
    return (1,) * beta + (alpha + 1,)


def giambelli_check(shape: tuple[int, ...], assignment: VariableAssignment) -> bool:
    """Quasi-Schur value against its Giambelli hook quasideterminant."""
    betas, alphas = frobenius_form(shape)
    r = len(betas)
    lhs = quasi_schur_spec(shape, assignment)
    hooks = [
        [quasi_schur_spec(hook_partition(betas[i], alphas[j]), assignment) for j in range(r)]
        for i in range(r)
    ]
    rhs = block_quasidet(hooks, r, r)
    return lhs == rhs
