"""Truncated series: re-expansion oracles and the defining relation."""

from fractions import Fraction

from ncshift.algebra import NCElement
from ncshift.params import ParamPoly, SEQ_A, SEQ_AHAT
from ncshift.series import (
    defining_relation_defect,
    lambda_series_at_minus_t,
    reexpand_values,
    sigma_series,
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
    return reexpand_values(order, NCElement.zero(), {k: NCElement.one()}, seq.values(order))


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
    assert reexpand(s, SEQ_A) == {k: NCElement.gen(k) for k in range(1, N + 1)}
    b = SEQ_AHAT.tau(2)
    other = reexpand(s, b)
    back = reexpand_values(N, s.constant, other, b.values(N))
    assert back == s
    assert reexpand(back, SEQ_A) == reexpand(s, SEQ_A)


def test_defining_relation_small_orders():
    # N=1 is forced: Lambda_1 = S_1 cancels the single coefficient
    assert not defining_relation_defect(1)
    assert not defining_relation_defect(4)


def test_defining_relation_detects_perturbation():
    lam = lambda_series_at_minus_t(4)
    lam.coeffs[2] = lam.coeffs.get(2, NCElement.zero()) + NCElement.gen(1)
    prod = lam.multiply(sigma_series(4))
    assert any(not prod.coeff(k).is_zero() for k in range(1, 5))
