"""Shift coefficients and the shift automorphism."""

from fractions import Fraction
from itertools import combinations
from math import comb

from ncshift.algebra import NCElement
from ncshift.params import ParamPoly, ParamSubstitution, SEQ_A, SEQ_AHAT
from ncshift.shifts import a_binomial, phi_shift, shift_S

a = ParamPoly.gen
S = NCElement.gen


def brute_binomial(l, nu, k, seq=SEQ_A):
    """Direct enumeration of the defining sum (the definition itself)."""
    total = ParamPoly.zero()
    for s in combinations(range(1, l + 1), nu):
        term = ParamPoly.one()
        for i, s_i in enumerate(s, start=1):
            term = term * (seq.term(k + (nu - i) + s_i) - seq.term(s_i))
        total = total + term
    return total


def test_a_binomial_examples():
    for l in range(5):
        for k in range(-2, 4):
            assert a_binomial(l, 0, k) == ParamPoly.one()
    # single index sequence s_1 = 1
    for k in range(-2, 4):
        assert a_binomial(1, 1, k) == a(k + 1) - a(1)
    for l in range(4):
        for nu in range(l + 1, l + 3):
            assert a_binomial(l, nu, 2).is_zero()


def test_a_binomial_matches_enumeration():
    for l in range(7):
        for nu in range(l + 2):
            for k in (-2, 0, 3):
                for seq in (SEQ_A, SEQ_A.tau(-2), SEQ_AHAT, SEQ_AHAT.tau(1)):
                    assert a_binomial(l, nu, k, seq) == brute_binomial(l, nu, k, seq)


def test_a_binomial_long_sum():
    # {l 1}_2 telescopes; l far past the recursion limit, which the sum in l never nears
    assert a_binomial(3000, 1, 2) == a(3001) + a(3002) - a(1) - a(2)


def falling(x, nu):
    out = Fraction(1)
    for t in range(nu):
        out *= x - t
    return out


def test_falling_power_example():
    sub = ParamSubstitution.equidistant(1, -1)  # a_i = i - 1
    for s in range(6):
        for nu in range(6):
            for k in range(6):
                assert a_binomial(s, nu, k).substitute(sub) == comb(s, nu) * falling(
                    Fraction(k + nu - 1), nu
                )


def test_equidistant_closed_form():
    for c in (Fraction(0), Fraction(1), Fraction(1, 2)):
        sub = ParamSubstitution.equidistant(c, 0)  # a_i = c * i
        for l in range(6):
            for nu in range(6):
                for k in range(-2, 6):
                    want = c**nu * comb(l, nu) * falling(Fraction(k + nu - 1), nu)
                    assert a_binomial(l, nu, k).substitute(sub) == want


def test_symmetry_lemma():
    for i in range(7):
        for n in range(7):
            for nu in range(1, min(i, n) + 1):
                assert a_binomial(i - 1, nu, n - nu) == a_binomial(n - 1, nu, i - nu)


def test_symmetry_lemma_case_names_the_first_failure(monkeypatch):
    import ncshift.suites as suites

    # a bracket that keeps only l breaks the lemma wherever i != n; the case
    # must name the first such (i, n, nu) in loop order, not the last one
    monkeypatch.setattr(suites, "a_binomial", lambda l, nu, k, seq=None: ParamPoly.const(l))
    cases = {c.id: c for c in suites.suite_shift_coefficients(degree=2).cases}
    assert not cases["symmetry-lemma"].passed
    assert cases["symmetry-lemma"].witness == "(i,n,nu)=(1,2,1)"


def test_bracket_recursion():
    # {l nu}^{tau a}_k + (a_{k+nu} - a_1) {l nu-1}^{tau a}_k = {l+1 nu}_k
    for l in range(6):
        for nu in range(1, 6):
            for k in range(-3, 4):
                lhs = a_binomial(l, nu, k, SEQ_A.tau(1)) + (
                    a(k + nu) - a(1)
                ) * a_binomial(l, nu - 1, k, SEQ_A.tau(1))
                assert lhs == a_binomial(l + 1, nu, k)


def test_shift_s_examples():
    for s in (-3, -1, 0, 2, 5):
        assert shift_S(1, s) == S(1)
    for k in (2, 3, 5):
        # positive unit shifts are two-term; negative ones expand fully
        assert shift_S(k, 1) == S(k) + S(k - 1).scale(a(k - 1) - a(0))
    assert shift_S(2, -1) == S(2) + S(1).scale(a(1) - a(2))
    assert shift_S(3, -1) == (
        S(3)
        + S(2).scale(a(1) - a(3))
        + S(1).scale((a(1) - a(2)) * (a(1) - a(3)))
    )
    assert shift_S(0, 4) == NCElement.one()


def test_negative_shift_matches_bracket_enumeration():
    for k in (2, 3, 4):
        for s in (1, 2, 3):
            want = NCElement.zero()
            for nu in range(k):
                c = brute_binomial(nu + s - 1, nu, 1 - k, SEQ_A.tau(k - nu))
                want = want + S(k - nu).scale(c)
            assert shift_S(k, -s) == want


def test_shift_coeffs_unit_leading():
    for k in range(1, 7):
        for s in (-3, -1, 0, 1, 3):
            assert shift_S(k, s).terms.get((k,)) == ParamPoly.one()


def test_phi_examples():
    x = S(1) * S(2) + S(3).scale(a(0))
    assert phi_shift(x, 0) == x
    assert phi_shift(S(1) * S(2), 1) == S(1) * (S(2) + S(1).scale(a(1) - a(0)))
    assert phi_shift(phi_shift(S(3), 2), -2) == S(3)


def test_phi_composition_law():
    # on generators of degree <= 6 for all |s|, |t| <= 3
    for k in range(1, 7):
        for s in range(-3, 4):
            for t in range(-3, 4):
                assert phi_shift(phi_shift(S(k), t), s) == phi_shift(S(k), s + t)


def test_phi_multiplicative_and_semilinear():
    x = S(2).scale(a(1)) + S(1) * S(1)
    y = S(3) - NCElement.one().scale(a(-1))
    for s in (-2, 1):
        assert phi_shift(x * y, s) == phi_shift(x, s) * phi_shift(y, s)
        c = a(1) * a(0) - 2
        assert phi_shift(x.scale(c), s) == phi_shift(x, s).scale(c.tau(-s))
