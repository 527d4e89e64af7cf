"""Ribbon functions, their basis, products, conjugation and duality."""

import random
from fractions import Fraction
from types import ModuleType

import pytest

from ncshift.algebra import NCElement
from ncshift.families import lambda_in_S, shift_Lambda
from ncshift.params import ParamPoly, ParamSubstitution, SEQ_A, SEQ_AHAT
from ncshift.quasidet import hessenberg_quasidet
from ncshift.ribbon import (
    Composition,
    RibbonElement,
    all_compositions,
    duality_shift,
    from_ribbon_basis,
    macmahon_left_shift,
    macmahon_product,
    nagelsbach_form,
    omega,
    ribbon,
    ribbon_shifted,
    ribbon_uniform,
    to_ribbon_basis,
)
from ncshift.shifts import phi_shift, shift_S

from tests_support import generalized_macmahon_rhs, random_element

a = ParamPoly.gen
S = NCElement.gen
C = Composition


def test_composition_invariants():
    I = C((2, 2, 3, 2))
    assert I.degree == 9 and I.length == 4
    s = I.row_shifts()
    assert s[-1] == 0
    assert s[0] == I.degree - I.parts[-1]
    n = I.length
    for k in range(n - 1):
        assert s[k] > s[k + 1]
        assert s[k] >= n - (k + 1)
    with pytest.raises(ValueError):
        C(())
    with pytest.raises(ValueError):
        C((1, 0, 2))


@pytest.mark.parametrize("parts", [(2.7, 1), ("3",), (True,), (1, Fraction(2))])
def test_composition_rejects_non_integer_parts(parts):
    # a part is an int, not anything int() accepts: 2.7 is no part 2
    with pytest.raises(ValueError, match="positive integers"):
        C(parts)


def test_conjugate_fixtures():
    # the (2,1,1) and (1,3,2,1) conjugates are pinned by the printed
    # elementary-generator matrices; (1,1,2) by the partition example
    assert C((2, 1, 1)).conjugate() == C((3, 1))
    assert C((1, 3, 2, 1)).conjugate() == C((2, 2, 1, 2))
    assert C((1, 1, 2)).conjugate() == C((1, 3))
    assert C((1,) * 4).conjugate() == C((4,))
    assert C((5,)).conjugate() == C((1,) * 5)
    # the published conjugate (1,3,2,2,1) of (2,2,3,2) has length 5, which no
    # ribbon reflection can produce: lengths must add to degree + 1
    got = C((2, 2, 3, 2)).conjugate()
    assert got == C((1, 2, 1, 2, 2, 1))
    assert got.length == C((2, 2, 3, 2)).degree + 1 - C((2, 2, 3, 2)).length


def test_conjugate_involution():
    for d in range(1, 8):
        for I in all_compositions(d):
            assert I.conjugate().conjugate() == I
            assert I.conjugate().length == d + 1 - I.length


def test_ribbon_special_cases():
    for n in (1, 2, 3, 4):
        assert ribbon(C((n,))) == S(n)
    for n in (1, 2, 3, 4, 5):
        assert ribbon(C((1,) * n)) == lambda_in_S(n)
    for i, j in ((1, 1), (2, 3), (3, 2)):
        assert ribbon(C((i, j))) == shift_S(i, i) * S(j) - shift_S(i + j, i)


def test_ribbon_three_rows_expansion():
    i, j, k = 2, 1, 3
    got = ribbon(C((i, j, k)))
    want = (
        shift_S(i + j + k, i + j)
        - shift_S(i, i + j) * shift_S(j + k, j)
        - shift_S(i + j, i + j) * S(k)
        + shift_S(i, i + j) * shift_S(j, j) * S(k)
    )
    assert got == want


def test_the_ribbon_module_is_not_shadowed():
    import ncshift.ribbon as R

    assert isinstance(R, ModuleType)
    assert R.ribbon_shifted is ribbon_shifted


def test_ribbon_shifted_reductions():
    for I in (C((3,)), C((2, 1)), C((1, 2, 1))):
        assert ribbon_shifted(I, I.row_shifts(), SEQ_A) == ribbon(I)
    for n, s in ((2, 3), (4, -1)):
        assert ribbon_shifted(C((n,)), (s,), SEQ_A) == shift_S(n, s)
    assert ribbon_shifted(C((1, 1)), (1, 0), SEQ_A) == lambda_in_S(2)
    with pytest.raises(ValueError):
        ribbon_shifted(C((1, 2)), (1, 2, 3), SEQ_A)


def test_ribbon_leading_word():
    for d in range(1, 6):
        for I in all_compositions(d):
            r = ribbon(I)
            assert r.leading_word() == I.parts
            assert r.terms.get(I.parts) == ParamPoly.one()


def test_uniform_shift_is_phi():
    for d in range(1, 6):
        for I in all_compositions(d):
            for s in (-2, 1, 3):
                assert ribbon_uniform(I, s) == phi_shift(ribbon(I), s)


def test_column_ribbons_are_lambda_shifts():
    for k in (1, 2, 3, 4):
        for s in (-2, -1, 1, 2):
            assert ribbon_uniform(C((1,) * k), s) == shift_Lambda(k, s)


def test_hook_formula():
    for k in range(1, 6):
        for l in range(1, 8 - k):
            lhs = shift_Lambda(k, 1) * S(l)
            rhs = ribbon(C((1,) * k + (l,))) + ribbon_uniform(
                C((1,) * (k - 1) + (l + 1,)), 1
            )
            assert lhs == rhs


def test_recursions():
    for d in range(2, 7):
        for I in all_compositions(d):
            n = I.length
            if n < 2:
                continue
            lhs = ribbon(I)
            head = C(I.parts[:-1])
            fused = C(I.parts[:-2] + (I.parts[-2] + I.parts[-1],))
            r1 = ribbon_uniform(head, I.parts[-2]) * S(I.parts[-1]) - ribbon_uniform(
                fused, I.parts[-2]
            )
            assert lhs == r1
            if n >= 3:
                r2 = shift_S(I.parts[0], I.degree - I.parts[-1]) * ribbon(
                    C(I.parts[1:])
                ) - ribbon(C((I.parts[0] + I.parts[1],) + I.parts[2:]))
                assert lhs == r2


def test_macmahon_printed_forms():
    for dI in range(1, 5):
        for dJ in range(1, 6 - dI):
            for I in all_compositions(dI):
                for J in all_compositions(dJ):
                    w = macmahon_left_shift(I, J)
                    lhs = ribbon_uniform(I, w) * ribbon(J)
                    rhs = from_ribbon_basis(macmahon_product(I, J))
                    assert lhs == rhs


def test_macmahon_worked_example():
    # R_{(i,j)}^[k+j] R_{(k,l)} = R_{(i,j,k,l)} + R_{(i,j+k,l)}
    for (i, j, k, l) in ((1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1)):
        lhs = ribbon_uniform(C((i, j)), k + j) * ribbon(C((k, l)))
        rhs = ribbon(C((i, j, k, l))) + ribbon(C((i, j + k, l)))
        assert lhs == rhs


def test_generalized_macmahon_random_shift_vectors():
    rng = random.Random(321)
    for _ in range(25):
        dI, dJ = rng.randint(1, 3), rng.randint(1, 3)
        I = rng.choice(all_compositions(dI))
        J = rng.choice(all_compositions(dJ))
        K = tuple(rng.randint(-3, 4) for _ in I.parts)
        L = tuple(rng.randint(-3, 4) for _ in J.parts)
        lhs = ribbon_shifted(I, K, SEQ_A) * ribbon_shifted(J, L, SEQ_A)
        rhs = ribbon_shifted(I.concat(J), K + L, SEQ_A) + ribbon_shifted(
            I.fuse(J), K + L[1:], SEQ_A
        )
        assert lhs == rhs
        assert from_ribbon_basis(generalized_macmahon_rhs(I, K, J, L)) == rhs


def test_leading_terms_unshifted_macmahon():
    # top-degree parts obey the unshifted two-term formula
    zero = ParamSubstitution.equidistant(0, 0)
    for (I, J) in ((C((2, 1)), C((1, 1))), (C((3,)), C((2, 1)))):
        lhs = ribbon(I) * ribbon(J)
        rhs = from_ribbon_basis(
            RibbonElement.single(I.concat(J)) + RibbonElement.single(I.fuse(J))
        )
        d = I.degree + J.degree
        lnum = {w: c.substitute(zero) for w, c in lhs.terms.items() if sum(w) == d}
        rnum = {w: c.substitute(zero) for w, c in rhs.terms.items() if sum(w) == d}
        assert {w: v for w, v in lnum.items() if v} == {
            w: v for w, v in rnum.items() if v
        }


def test_basis_round_trip_on_ribbons():
    for d in range(1, 7):
        for I in all_compositions(d):
            back = to_ribbon_basis(ribbon(I))
            assert back.terms == {(I.parts, I.row_shifts()): ParamPoly.one()}


def test_basis_round_trip_on_random_elements():
    rng = random.Random(2718)
    for _ in range(15):
        x = random_element(rng, max_degree=6)
        if x.constant_term():
            x = x - NCElement.scalar(x.constant_term())
        assert from_ribbon_basis(to_ribbon_basis(x)) == x


def test_to_ribbon_rejects_constants():
    with pytest.raises(ValueError):
        to_ribbon_basis(NCElement.one())


def test_whole_distant_labeling():
    rel = to_ribbon_basis(lambda_in_S(3) * S(1))
    assert rel.integer_coefficients(ParamSubstitution.equidistant(1, -1))
    assert rel.integer_coefficients(ParamSubstitution.equidistant(Fraction(1, 2), 0)) in (
        True,
        False,
    )


def test_nagelsbach_general():
    for d in range(1, 7):
        for I in all_compositions(d):
            assert nagelsbach_form(I) == ribbon_uniform(I, I.parts[-1] - 1)


def test_nagelsbach_printed_matrices():
    def printed(m):
        return hessenberg_quasidet(len(m), lambda i, j: m[i - 1][j - 1])

    L = shift_Lambda
    got = printed([[L(1, 3), L(4, 0)], [None, L(3, 0)]])
    assert got == ribbon(C((2, 1, 1)))
    got = printed(
        [
            [L(2, 5), L(3, 4), L(5, 2), L(7, 0)],
            [None, L(1, 4), L(3, 2), L(5, 0)],
            [None, None, L(2, 2), L(4, 0)],
            [None, None, None, L(2, 0)],
        ]
    )
    assert got == ribbon_uniform(C((1, 3, 2, 1)), 0)
    # (1^n) reduces to Lambda_n = Lambda_n
    assert nagelsbach_form(C((1, 1, 1))) == lambda_in_S(3)


def test_omega_examples():
    for k in range(1, 6):
        assert omega(S(k)) == lambda_in_S(k, SEQ_AHAT)
    for k in range(1, 9):
        assert omega(omega(S(k)), SEQ_AHAT) == S(k)
    # anti-morphism with coefficients fixed
    x = S(1) * S(2)
    assert omega(x) == lambda_in_S(2, SEQ_AHAT) * lambda_in_S(1, SEQ_AHAT)
    c = a(2) - a(0)
    assert omega(S(1).scale(c)) == lambda_in_S(1, SEQ_AHAT).scale(c)


def test_omega_shift_compatibility():
    # omega over a-hat sends S_k^[s] over a-hat to Lambda_k^[-s] over a
    for k in range(1, 7):
        for s in (-3, -1, 0, 1, 3):
            assert omega(shift_S(k, s, SEQ_AHAT), SEQ_AHAT) == shift_Lambda(k, -s)


def test_duality_corollary_corrected_shift():
    for d in range(1, 6):
        for I in all_compositions(d):
            lhs = omega(ribbon(I))
            J = I.conjugate()
            assert lhs == ribbon_uniform(J, duality_shift(I), SEQ_AHAT)


def test_duality_printed_shift_off_by_one():
    I = C((2,))
    lhs = omega(ribbon(I))  # Lambda_2 over the dual sequence
    J = I.conjugate()
    printed = J.parts[-1] - J.degree + I.parts[-1]
    assert lhs != ribbon_uniform(J, printed, SEQ_AHAT)
    assert lhs == ribbon_uniform(J, printed - 1, SEQ_AHAT)
