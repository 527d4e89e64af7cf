"""Elementary generators, power sums, base changes, and the embedding."""

import random
from fractions import Fraction

from ncshift import families
from ncshift.algebra import NCElement, apply_letters, complete_homogeneous
from ncshift.families import (
    all_words,
    check_lineareq,
    compositions_of,
    lambda_by_quasidet,
    lambda_in_S,
    lambda_words_to_s,
    omega,
    psi,
    psi_shifted,
    psi_words_to_s,
    s_in_lambda,
    s_to_lambda,
    s_to_psi,
    shift_Lambda,
    translation_failures,
    wronski_newton_failures,
)
from ncshift.params import ParamPoly, SEQ_A, SEQ_AHAT
from ncshift.quasidet import hessenberg_quasidet
from ncshift.series import sigma_series
from ncshift.shifts import a_binomial, phi_shift, shift_S
from ncshift.suites import suite_translation, suite_wronski_newton

from tests_support import project_shifted_closed_form

a = ParamPoly.gen
S = NCElement.gen


def test_lambda_small_fixtures():
    assert lambda_in_S(0) == NCElement.one()
    assert lambda_in_S(1) == S(1)
    # hand solve of the triangular relation at n = 2:
    # Lambda_2 = S_1^[1] Lambda_1 - S_2^[1] = S_1 S_1 - S_2 - (a_1 - a_0) S_1
    want2 = NCElement.word((1, 1)) - S(2) - S(1).scale(a(1) - a(0))
    assert lambda_in_S(2) == want2
    # hand solve at n = 3 (frozen from the same elimination done by hand)
    s22 = S(2) + S(1).scale(a(1) - a(-1))
    s32 = (
        S(3)
        + S(2).scale((a(1) - a(-1)) + (a(2) - a(0)))
        + S(1).scale((a(1) - a(-1)) * (a(1) - a(0)))
    )
    want3 = S(1) * want2 - s22 * S(1) + s32
    assert lambda_in_S(3) == want3


def test_lambda_shift_unit_example():
    # Lambda_k^[-1] = Lambda_k + (a_1 - a_{2-k}) Lambda_{k-1}; the displayed
    # coefficient (a_1 - a_k) contradicts the defining series for k >= 2
    for k in (2, 3, 4):
        assert shift_Lambda(k, -1) == lambda_in_S(k) + lambda_in_S(k - 1).scale(
            a(1) - a(2 - k)
        )
        if k > 2:
            assert shift_Lambda(k, -1) != lambda_in_S(k) + lambda_in_S(k - 1).scale(
                a(1) - a(k)
            )


def test_lineareq_holds():
    for n in range(9):
        assert check_lineareq(n).is_zero()


def test_quasidet_closed_forms_match_solve():
    for n in range(1, 8):
        assert lambda_by_quasidet(n) == lambda_in_S(n)


def test_s_in_lambda_back_substitution():
    for n in range(8):
        assert lambda_words_to_s(s_in_lambda(n)) == S(n)
    # n = 2 read off the 2 x 2 inverse matrix: S_2 = Lambda_1 Lambda_1^[-1]...
    # concretely -Lambda_2^[-1] + Lambda_1 * Lambda_1^[-1]
    got = s_in_lambda(2)
    assert got.terms.get((1, 1)) == ParamPoly.one()
    assert got.terms.get((2,)) == -ParamPoly.one()


def test_s_to_lambda_round_trip():
    rng = random.Random(99)
    for _ in range(20):
        w = tuple(rng.choice([1, 2, 3]) for _ in range(rng.randint(0, 3)))
        x = NCElement.word(w) if w else NCElement.one()
        assert lambda_words_to_s(s_to_lambda(x)) == x
    for n in range(1, 8):
        assert lambda_words_to_s(s_to_lambda(S(n))) == S(n)


# Independent references for the elementary side: its own shift coefficients
# (the closed forms with the dual sequence in the superscript) and its own
# triangular solve for S_n over Lambda-letters.  The package derives both from
# the complete side through omega.
REFERENCE_BASES = (SEQ_A, SEQ_AHAT, SEQ_A.tau(2), SEQ_AHAT.tau(-3))


def reference_lambda_letter_shift(k, s, base):
    """Lambda_k^[s] over Lambda-letters, from the mirrored closed forms:
    d_nu = {nu+s-1 nu}_{1-k}^{tau^{k-nu} b} for s >= 0 and
    {-s nu}_{k-nu}^{tau^{s} b} for s < 0, with b the dual sequence."""
    if k == 0:
        return NCElement.one()
    dual = base.dual()
    if s >= 0:
        coeffs = [a_binomial(nu + s - 1, nu, 1 - k, dual.tau(k - nu)) for nu in range(k)]
    else:
        coeffs = [a_binomial(-s, nu, k - nu, dual.tau(s)) for nu in range(k)]
    return NCElement({(k - nu,): c for nu, c in enumerate(coeffs)})


def reference_s_over_lambda(n, base, table):
    """S_n over Lambda-letters from the triangular relation
    S_n^[n-1] = sum_{j=1}^{n} (-1)^{j+1} S_{n-j}^[n-1] Lambda_j, then the
    lower single-letter terms of S_n^[n-1] stripped; table holds S_k, k < n."""
    if n == 0:
        return NCElement.one()
    image = lambda k: table[k]
    acc = NCElement.zero()
    for j in range(1, n + 1):
        term = apply_letters(shift_S(n - j, n - 1, base), image) * NCElement.gen(j)
        acc = acc + (term if (j + 1) % 2 == 0 else -term)
    return acc - apply_letters(shift_S(n, n - 1, base) - NCElement.gen(n), image)


def reversed_words(x):
    return NCElement({w[::-1]: c for w, c in x.terms.items()})


def test_lambda_side_matches_references():
    for base in REFERENCE_BASES:
        table = []
        for n in range(8):
            table.append(reference_s_over_lambda(n, base, table))
            # S_n over Lambda-letters is omega(S_n) with every word reversed
            assert reversed_words(omega(S(n), base)) == table[n]
            for s in range(-6, 7):
                letters = reference_lambda_letter_shift(n, s, base)
                # over Lambda-letters, Lambda_n^[s] is S_n^[-s] of the dual sequence
                assert shift_S(n, -s, base.dual()) == letters
                # the S-basis images grow fast; n <= 4 covers every branch
                if base == SEQ_A and n <= 4:
                    assert shift_Lambda(n, s) == lambda_words_to_s(letters)
        if base == SEQ_A:
            assert [s_to_lambda(S(n)) for n in range(8)] == table


def test_s_in_lambda_closed_form_over_every_base():
    # entry (i,j) of the inverse closed form is S_{j-i+1}^[j-1] over the dual sequence
    for base in REFERENCE_BASES:
        for n in range(1, 6):
            closed = hessenberg_quasidet(n, lambda i, j: shift_S(j - i + 1, j - 1, base.dual()))
            assert closed == reversed_words(omega(S(n), base))
    for n in range(6):
        assert s_in_lambda(n) == s_to_lambda(S(n))


def test_shiftauto_on_lambda():
    # phi^[s](Lambda_k) = Lambda_k^[s]
    for k in range(1, 5):
        for s in (-2, -1, 1, 2):
            assert phi_shift(lambda_in_S(k), s) == shift_Lambda(k, s)


def test_psi_printed_examples():
    assert psi(1) == S(1)
    assert psi(1) == lambda_in_S(1)
    assert psi(2) == shift_S(2, 1).scale(Fraction(2)) - shift_Lambda(1, 1) * S(1)
    assert psi(2) == shift_S(2, 1) - lambda_in_S(2)
    assert psi(3) == (
        shift_S(3, 2).scale(Fraction(3))
        - (shift_Lambda(1, 2) * shift_S(2, 1)).scale(Fraction(2))
        + shift_Lambda(2, 1) * S(1)
    )


def test_psi_second_example_block():
    # Lambda-monomial and S-monomial renderings of Psi_2, Psi_3
    assert psi(2) == -lambda_in_S(2).scale(Fraction(2)) + shift_Lambda(1, 1) * lambda_in_S(1)
    assert psi(2) == shift_S(2, 1).scale(Fraction(2)) - shift_S(1, 1) * S(1)
    assert psi(3) == (
        lambda_in_S(3).scale(Fraction(3))
        - (shift_Lambda(2, 1) * lambda_in_S(1)).scale(Fraction(2))
        - shift_Lambda(1, 2) * lambda_in_S(2)
        + shift_Lambda(1, 2) * shift_Lambda(1, 1) * lambda_in_S(1)
    )
    # the S-monomial display carries its factor 2 on the wrong term; the
    # expansion that actually holds is this one
    assert psi(3) == (
        shift_S(3, 2).scale(Fraction(3))
        - (shift_S(1, 2) * shift_S(2, 1)).scale(Fraction(2))
        - shift_S(2, 2) * S(1)
        + shift_S(1, 2) * shift_S(1, 1) * S(1)
    )


def test_psi_hook_alternating_sum():
    from ncshift.ribbon import Composition, ribbon_uniform

    for n in range(1, 7):
        acc = NCElement.zero()
        for k in range(n):
            t = ribbon_uniform(Composition((1,) * k + (n - k,)), n - k - 1)
            acc = acc + (t if k % 2 == 0 else -t)
        assert acc == psi(n)


def test_psi_weighted_lambda_form():
    for n in range(1, 7):
        acc = NCElement.zero()
        for k in range(1, n + 1):
            t = (shift_Lambda(k, n - k) * shift_S(n - k, n - k - 1)).scale(Fraction(k))
            acc = acc + (t if (k - 1) % 2 == 0 else -t)
        assert acc == psi(n)


def test_psi_shift_is_phi():
    for n in (1, 2, 3, 4):
        for s in (-2, -1, 1, 2):
            assert psi_shifted(n, s) == phi_shift(psi(n), s)


def test_wronski_newton():
    for n in range(1, 8):
        assert list(wronski_newton_failures(n)) == []


def test_translations():
    for n in range(1, 6):
        assert list(translation_failures(n)) == []


def test_failure_streams_name_each_broken_identity(monkeypatch):
    # a wrong Psi_n breaks the Wronski identity and the two Psi quasideterminants
    # only; each suite case reports the first witness of its stream
    monkeypatch.setattr(families, "psi", lambda n: psi(n) + S(n))
    assert list(wronski_newton_failures(3)) == ["Wronski identity fails at n=3"]
    assert list(translation_failures(3)) == [
        "Psi-from-S quasideterminant fails at n=3",
        "Psi-from-Lambda quasideterminant fails at n=3",
    ]
    wronski = {c.id: c.witness for c in suite_wronski_newton(degree=3).cases}
    assert wronski["wronski-newton-n3"] == "Wronski identity fails at n=3"
    translation = {c.id: c.witness for c in suite_translation(degree=3).cases}
    assert translation["translation-n3"] == "Psi-from-S quasideterminant fails at n=3"


def test_psi_rewrite_round_trip():
    assert s_to_psi(S(1)) == NCElement.gen(1)  # Psi_1 = S_1
    for w in all_words(5):
        x = NCElement.word(w) if w else NCElement.one()
        assert psi_words_to_s(s_to_psi(x)) == x
    # SintermsofPsi at n = 2: 2 S_2^[1] = Psi_1^[1] Psi_1 + Psi_2
    lhs = shift_S(2, 1).scale(Fraction(2))
    rhs = psi_shifted(1, 1) * psi(1) + psi(2)
    assert lhs == rhs


def test_psi_rewrite_leaves_z_lattice():
    # the inverse transition genuinely needs denominators
    expansion = s_to_psi(S(3))
    denominators = {
        Fraction(c, coeff.den).denominator
        for coeff in expansion.terms.values()
        for c in coeff.terms.values()
    }
    assert any(d > 1 for d in denominators)


def unshifted(n: int) -> NCElement:
    """The unshifted S_n in the shifted S-basis: the 1/t^n coefficient of sigma."""
    return sigma_series(n).coeff(n)


def test_embedding_printed_list():
    assert unshifted(1) == S(1)
    assert unshifted(2) == S(2) + S(1).scale(a(1))
    assert project_shifted_closed_form(1) == S(1)
    assert project_shifted_closed_form(2) == S(2) - S(1).scale(a(1))
    assert project_shifted_closed_form(3) == (
        S(3) - S(2).scale(a(1) + a(2)) + S(1).scale(a(1) * a(2))
    )


def test_embedding_closed_form_and_round_trip():
    for n in range(1, 8):
        # substitute the inverse into the embedding and recover the generator
        back = apply_letters(unshifted(n), project_shifted_closed_form)
        assert back == S(n)
        forward = apply_letters(project_shifted_closed_form(n), unshifted)
        assert forward == S(n)


def test_embedding_h_coefficients():
    # S_n = sum_i h_i(a_1,...,a_{n-i}) S_{n-i;a}
    for n in range(1, 7):
        e = unshifted(n)
        assert len(e.terms) == n
        for i in range(n):
            h = complete_homogeneous(SEQ_A.values(n - i), i)[i]
            assert e.terms.get((n - i,)) == h


def test_unshifted_degeneration_leading_terms():
    # with a = 0 the elementary expansion reduces to the classical one:
    # leading word (1,...,1) with coefficient 1, single-letter word with
    # alternating sign (-1)^{n-1}, consistent with the n = 2, 3 displays
    from ncshift.params import ParamSubstitution

    zero = ParamSubstitution.equidistant(0, 0)
    for n in (2, 3, 4, 5):
        num = lambda_in_S(n).substitute(zero)
        assert num[(1,) * n] == 1
        assert num[(n,)] == (-1) ** (n - 1)
        # clean Z-coefficients in the unshifted case
        assert all(v.denominator == 1 for v in num.values())


def test_compositions_enumeration():
    assert compositions_of(0) == [()]
    assert len(compositions_of(5)) == 16
    assert len(all_words(6)) == 1 + sum(2 ** (d - 1) for d in range(1, 7))
