"""Truncated generating series in 1/t and the defining relation.

A series is stored to a finite order N as a constant plus coefficients for
the basis elements 1/<den>^k, k = 1..N, where the denominator basis is either
plain powers t^k or shifted powers (t - b_1)...(t - b_k) for one of the
parameter sequences b.  Re-expansion goes one way, into plain powers, by the
geometric series

    1/((t-b_1)...(t-b_k)) = sum_{i>=0} h_i(b_1,...,b_k) / t^{k+i},

and products are taken in the plain basis.  Like every sum of products over
Q[a] in the package, each coefficient of a product or of a re-expansion is
one LinComb.sum_of_products call, which sums its coefficient products into
one accumulator and normalizes once.  The defining relation of the algebra
is the statement that the complete homogeneous series over a and the
elementary series over the dual sequence, evaluated at -t, are mutually
inverse; it is checked coefficientwise in the plain basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .algebra import NCElement, complete_homogeneous
from .families import lambda_in_S
from .params import SEQ_A, SEQ_AHAT, ParamPoly, ParamSequence


@dataclass
class TruncatedTSeries:
    """Constant + sum_k coeffs[k] / den^k up to order N (k = 1..N)."""

    order: int
    constant: NCElement = field(default_factory=NCElement.one)
    coeffs: dict[int, NCElement] = field(default_factory=dict)
    basis: ParamSequence | None = None  # None means plain powers of t

    def coeff(self, k: int) -> NCElement:
        if k == 0:
            return self.constant
        return self.coeffs.get(k, NCElement.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedTSeries):
            return NotImplemented
        if self.basis != other.basis or self.order != other.order:
            return False
        return all(self.coeff(k) == other.coeff(k) for k in range(self.order + 1))

    def to_plain(self) -> "TruncatedTSeries":
        if self.basis is None:
            return self
        return reexpand_values(
            self.order, self.constant, self.coeffs, self.basis.values(self.order)
        )

    def multiply(self, other: "TruncatedTSeries") -> "TruncatedTSeries":
        """Product of two plain-basis series, truncated at the smaller order."""
        if self.basis is not None or other.basis is not None:
            raise ValueError("multiply expects both factors in the plain basis")
        n = min(self.order, other.order)
        out: dict[int, NCElement] = {}
        for k in range(1, n + 1):
            pairs = ((self.coeff(i), other.coeff(k - i)) for i in range(k + 1))
            if c := NCElement.sum_of_products(pairs, add):
                out[k] = c
        return TruncatedTSeries(n, self.constant * other.constant, out, None)


def reexpand_values(
    order: int,
    constant: NCElement,
    coeffs: dict[int, NCElement],
    values: list[ParamPoly],
) -> TruncatedTSeries:
    """Plain-basis form of sum_k coeffs[k]/((t-v_1)...(t-v_k))."""
    # hs[k][i] = h_i(v_1, ..., v_k) multiplies coeffs[k] into the coefficient k + i
    hs = {k: complete_homogeneous(values[:k], order - k) for k in coeffs if k <= order}
    out = {}
    for n in range(1, order + 1):
        pairs = ((coeffs[k], NCElement.scalar(h[n - k])) for k, h in hs.items() if k <= n)
        if c := NCElement.sum_of_products(pairs, add):
            out[n] = c
    return TruncatedTSeries(order, constant, out, None)


def sigma_series(order: int) -> TruncatedTSeries:
    """The complete homogeneous generating series, truncated."""
    return TruncatedTSeries(
        order, NCElement.one(), {k: NCElement.gen(k) for k in range(1, order + 1)}, SEQ_A
    )


def lambda_series_at_minus_t(order: int) -> TruncatedTSeries:
    """The elementary series over the dual sequence, evaluated at -t, plain basis.

    1/((-t) - b_1)...((-t) - b_k) = (-1)^k / ((t+b_1)...(t+b_k)), so the plain
    expansion uses the negated dual values.
    """
    neg_values = [-v for v in SEQ_AHAT.values(order)]
    coeffs = {
        k: lambda_in_S(k).scale(ParamPoly.const((-1) ** k))
        for k in range(1, order + 1)
    }
    return reexpand_values(order, NCElement.one(), coeffs, neg_values)


def defining_relation_defect(order: int) -> dict[int, NCElement]:
    """Nonzero plain coefficients of lambda(-t) sigma(t) - 1 and of the swap."""
    sig = sigma_series(order).to_plain()
    lam = lambda_series_at_minus_t(order)
    defects: dict[int, NCElement] = {}
    for left, right, tag in ((lam, sig, 0), (sig, lam, 1)):
        prod = left.multiply(right)
        if not (prod.constant - NCElement.one()).is_zero():
            defects[tag * 1000] = prod.constant - NCElement.one()
        for k in range(1, order + 1):
            c = prod.coeff(k)
            if not c.is_zero():
                defects[tag * 1000 + k] = c
    return defects

