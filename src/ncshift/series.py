"""Truncated generating series in 1/t and the defining relation.

A series is stored to a finite order N as its coefficients of the plain
powers 1/t^k, k = 0..N, the constant being the coefficient of 1/t^0; the
package multiplies and compares series in this one form.  The paper writes
its series over shifted powers (t - b_1)...(t - b_k) of a parameter sequence
b, and each is re-expanded into plain powers once, where it is built, by the
geometric series

    1/((t-b_1)...(t-b_k)) = sum_{i>=0} h_i(b_1,...,b_k) / t^{k+i},

which for k = 0 is the constant 1.  Like every sum of products over Q[a] in
the package, each coefficient of a product or of a re-expansion is one
LinComb.sum_of_products call, which sums its coefficient products into one
accumulator and normalizes once.  The defining relation of the algebra is
the statement that the complete homogeneous series over a and the elementary
series over the dual sequence, evaluated at -t, are mutually inverse; it is
checked coefficientwise against the unit series.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .algebra import NCElement, complete_homogeneous
from .families import lambda_in_S
from .params import SEQ_A, SEQ_AHAT, ParamPoly


@dataclass
class TruncatedTSeries:
    """sum_k coeffs[k] / t^k for k = 0..order; no coeffs entry is zero."""

    order: int
    coeffs: dict[int, NCElement]

    def __post_init__(self):
        # == compares coefficient maps, so each series must have only one
        if self.order < 0:
            raise ValueError(f"negative series order {self.order}")
        for k, c in self.coeffs.items():
            if not 0 <= k <= self.order:
                raise ValueError(f"coefficient of 1/t^{k} outside 0..{self.order}")
            if not c:
                raise ValueError(f"zero coefficient of 1/t^{k}")

    def coeff(self, k: int) -> NCElement:
        return self.coeffs.get(k, NCElement.zero())

    def multiply(self, other: "TruncatedTSeries") -> "TruncatedTSeries":
        """Product of two series, truncated at the smaller order."""
        n = min(self.order, other.order)
        out: dict[int, NCElement] = {}
        for k in range(n + 1):
            pairs = ((self.coeff(i), other.coeff(k - i)) for i in range(k + 1))
            if c := NCElement.sum_of_products(pairs, add):
                out[k] = c
        return TruncatedTSeries(n, out)


def reexpand_values(
    order: int, coeffs: dict[int, NCElement], values: list[ParamPoly]
) -> TruncatedTSeries:
    """The series sum_k coeffs[k]/((t-v_1)...(t-v_k)) in plain powers."""
    # hs[k][i] = h_i(v_1, ..., v_k) multiplies coeffs[k] into the coefficient k + i
    hs = {k: complete_homogeneous(values[:k], order - k) for k in coeffs if k <= order}
    out = {}
    for n in range(order + 1):
        pairs = ((coeffs[k], NCElement.scalar(h[n - k])) for k, h in hs.items() if k <= n)
        if c := NCElement.sum_of_products(pairs, add):
            out[n] = c
    return TruncatedTSeries(order, out)


def sigma_series(order: int) -> TruncatedTSeries:
    """The complete homogeneous series sum_k S_k/((t-a_1)...(t-a_k)), truncated.

    Its coefficient of 1/t^n is the unshifted S_n in the shifted S-basis.
    """
    coeffs = {k: NCElement.gen(k) for k in range(order + 1)}
    return reexpand_values(order, coeffs, SEQ_A.values(order))


def lambda_series_at_minus_t(order: int) -> TruncatedTSeries:
    """The elementary series over the dual sequence, evaluated at -t, truncated.

    1/((-t) - b_1)...((-t) - b_k) = (-1)^k / ((t+b_1)...(t+b_k)), so the plain
    expansion uses the negated dual values.
    """
    neg_values = [-v for v in SEQ_AHAT.values(order)]
    coeffs = {
        k: lambda_in_S(k).scale(ParamPoly.const((-1) ** k))
        for k in range(order + 1)
    }
    return reexpand_values(order, coeffs, neg_values)


def unit_defect(s: TruncatedTSeries) -> dict[int, NCElement]:
    """The nonzero coefficients of s - 1, keyed by the power k of 1/t."""
    return {
        k: c
        for k in range(s.order + 1)
        if (c := s.coeff(k) - NCElement.one() if k == 0 else s.coeff(k))
    }


def defining_relation_defect(order: int) -> dict[tuple[int, int], NCElement]:
    """Nonzero coefficients of lambda(-t) sigma(t) - 1 and of sigma(t) lambda(-t) - 1.

    Key (0, k) is coefficient k (of 1/t^k) of the first product and (1, k)
    that of the second; k = 0 is the constant term.
    """
    sig = sigma_series(order)
    lam = lambda_series_at_minus_t(order)
    return {
        (product, k): c
        for product, (left, right) in enumerate(((lam, sig), (sig, lam)))
        for k, c in unit_defect(left.multiply(right)).items()
    }
