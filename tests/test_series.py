"""Truncated series: re-expansion oracles and the defining relation."""

import dataclasses
import re
from fractions import Fraction

import pytest

from ncshift import series
from ncshift.algebra import NCElement
from ncshift.params import ParamPoly, SEQ_A, SEQ_AHAT
from ncshift.series import (
    TruncatedTSeries,
    defining_relation_defect,
    lambda_series_at_minus_t,
    reexpand_values,
    sigma_series,
    unit_defect,
)

from tests_support import reexpand

a = ParamPoly.gen


def geometric_plain_coeffs(values, order):
    """Plain 1/t expansion of 1/((t-v_1)...(t-v_k)) by series multiplication.

    Independent of the package's h-recurrence: multiplies the geometric
    series 1/(t-v) = sum v^i / t^{i+1} termwise.
    """
    coeffs = {0: ParamPoly.one()}
    for v in values:
        new = {}
        for exp, c in coeffs.items():
            power = ParamPoly.one()
            for i in range(order - exp):
                key = exp + 1 + i
                if key > order:
                    break
                new[key] = new.get(key, ParamPoly.zero()) + c * power
                power = power * v
        coeffs = new
    return coeffs


def inverse_shifted_power(order, k, seq):
    """1/((t-b_1)...(t-b_k)) over the sequence b = seq, in plain powers."""
    return reexpand_values(order, {k: NCElement.one()}, seq.values(order))


def test_single_shifted_power_geometric_series():
    # 1/<t|a>^1 = 1/t + a_1/t^2 + a_1^2/t^3 + ...
    N = 6
    plain = inverse_shifted_power(N, 1, SEQ_A)
    expected = geometric_plain_coeffs([a(1)], N)
    for k in range(1, N + 1):
        assert plain.coeff(k) == NCElement.scalar(expected.get(k, ParamPoly.zero()))


def test_general_reexpansion_matches_geometric_oracle():
    N = 6
    for seq in (SEQ_A, SEQ_AHAT.tau(-1)):
        for k in (2, 3):
            plain = inverse_shifted_power(N, k, seq)
            expected = geometric_plain_coeffs(seq.values(k), N)
            for m in range(1, N + 1):
                assert plain.coeff(m) == NCElement.scalar(
                    expected.get(m, ParamPoly.zero())
                )


def test_zero_parameters_shifted_equals_plain():
    N = 5
    plain = sigma_series(N)
    from ncshift.params import ParamSubstitution

    zero = ParamSubstitution.equidistant(0, 0)
    for k in range(1, N + 1):
        lhs = {w: c.substitute(zero) for w, c in plain.coeff(k).terms.items()}
        lhs = {w: v for w, v in lhs.items() if v}
        assert lhs == {(k,): Fraction(1)}


def test_tau_recursion_between_bases():
    # 1/<t|tau a>^k = 1/<t|a>^k + (a_{k+1} - a_1)/<t|a>^{k+1}, exactly
    for k in (1, 2, 4):
        r = reexpand(inverse_shifted_power(k + 3, k, SEQ_A.tau(1)), SEQ_A)
        assert r == {k: NCElement.one(), k + 1: NCElement.scalar(a(k + 1) - a(1))}


def test_round_trip_shifted_plain_shifted():
    N = 6
    s = sigma_series(N)
    assert reexpand(s, SEQ_A) == {k: NCElement.gen(k) for k in range(N + 1)}
    b = SEQ_AHAT.tau(2)
    other = reexpand(s, b)
    back = reexpand_values(N, other, b.values(N))
    assert back == s
    assert reexpand(back, SEQ_A) == reexpand(s, SEQ_A)


def test_defining_relation_small_orders():
    # N=1 is forced: Lambda_1 = S_1 cancels the single coefficient
    assert not defining_relation_defect(1)
    assert not defining_relation_defect(4)


def test_defining_relation_detects_perturbation():
    lam = lambda_series_at_minus_t(4)
    lam.coeffs[2] = lam.coeff(2) + NCElement.gen(1)
    prod = lam.multiply(sigma_series(4))
    assert min(unit_defect(prod)) == 2
    # the zero series misses the unit at 1/t^0 only
    assert unit_defect(TruncatedTSeries(4, {})) == {0: -NCElement.one()}


def test_defects_are_keyed_by_product_and_power(monkeypatch):
    # perturbing Lambda_2 breaks both products from 1/t^2 on; the keys of the
    # two products stay apart at every order
    def perturbed(order):
        lam = lambda_series_at_minus_t(order)
        lam.coeffs[2] = lam.coeff(2) + NCElement.gen(1)
        return lam

    monkeypatch.setattr(series, "lambda_series_at_minus_t", perturbed)
    defects = defining_relation_defect(4)
    assert min(defects) == (0, 2) and (1, 2) in defects
    assert {product for product, _ in defects} == {0, 1}
    assert all(2 <= k <= 4 for _, k in defects)


def test_a_series_is_its_order_and_one_coefficient_map():
    # the constant is coefficient 0 of coeffs, not a field of its own
    assert [f.name for f in dataclasses.fields(TruncatedTSeries)] == ["order", "coeffs"]
    s = sigma_series(3)
    assert s.coeffs[0] == s.coeff(0) == NCElement.one()
    assert lambda_series_at_minus_t(3).multiply(s).coeffs == {0: NCElement.one()}


@pytest.mark.parametrize(
    "order, coeffs, named",
    [
        (-1, {}, "negative series order -1"),
        (2, {5: NCElement.one()}, "1/t^5 outside 0..2"),
        (2, {-1: NCElement.one()}, "1/t^-1 outside 0..2"),
        (2, {0: NCElement.zero()}, "zero coefficient of 1/t^0"),
    ],
)
def test_a_series_rejects_a_second_form_of_itself(order, coeffs, named):
    # a zero entry or one past the order would make == read equal series as different
    with pytest.raises(ValueError, match=re.escape(named)):
        TruncatedTSeries(order, coeffs)
