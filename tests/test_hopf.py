"""Coproduct, counit and antipode generated by primitive power sums."""

import random
from fractions import Fraction

import pytest

from ncshift.algebra import NCElement, word_image
from ncshift.families import all_words, psi, s_to_psi
from ncshift.hopf import (
    TensorElement,
    antipode,
    convolution_defect,
    coproduct,
    counit,
    word_coproduct,
)
from ncshift.params import ParamPoly, ParamSubstitution
from tests_support import (
    assert_normal_form,
    random_element,
    ref_antipode,
    ref_apply_letters,
    ref_convolution_defect,
    ref_coproduct,
)

a = ParamPoly.gen
S = NCElement.gen
one = ParamPoly.one()


def test_unit_is_grouplike():
    assert coproduct(NCElement.one()) == TensorElement({((), ()): one})


def test_primitive_generators():
    for n in (1, 2, 3, 4):
        p = psi(n)
        left = TensorElement({(w, ()): c for w, c in p.terms.items()})
        right = TensorElement({((), w): c for w, c in p.terms.items()})
        assert coproduct(p) == left + right


def test_delta_s2_printed():
    want = TensorElement(
        {((2,), ()): one, ((1,), (1,)): one, ((), (2,)): one}
    )
    assert coproduct(S(2)) == want


def test_delta_s2_two_printed_lines_agree():
    # the first displayed line uses S_1^[-1], which equals S_1, so the two
    # displayed forms of Delta(S_2) are identical term by term
    from ncshift.shifts import shift_S

    assert shift_S(1, -1) == S(1)


def test_delta_s3():
    # symbolically the S_1 (x) S_1 coefficient is
    # (1/3)(a_{-1} - a_0) + (a_1 - a_2); the displayed (4/3)(a_0 - a_1) is its
    # equidistant specialization
    d3 = coproduct(S(3))
    corr = ParamPoly.const(Fraction(1, 3)) * (a(-1) - a(0)) + (a(1) - a(2))
    want = TensorElement(
        {
            ((3,), ()): one,
            ((2,), (1,)): one,
            ((1,), (2,)): one,
            ((), (3,)): one,
            ((1,), (1,)): corr,
        }
    )
    assert d3 == want
    printed_coeff = ParamPoly.const(Fraction(4, 3)) * (a(0) - a(1))
    assert corr != printed_coeff
    for c in (0, 1, Fraction(1, 2)):
        sub = ParamSubstitution.equidistant(c, Fraction(2, 7))
        assert corr.substitute(sub) == printed_coeff.substitute(sub)


def test_counit():
    assert counit(NCElement.one()) == ParamPoly.one()
    for n in (1, 2, 3):
        assert counit(psi(n)).is_zero()
    assert counit(S(2)).is_zero()
    assert counit(S(1) * S(2)).is_zero()


def test_antipode_fixtures():
    assert antipode(NCElement.one()) == NCElement.one()
    for n in (1, 2, 3):
        assert antipode(psi(n)) == -psi(n)
    # anti-morphism on a product of primitives
    lhs = antipode(psi(1) * psi(2))
    assert lhs == psi(2) * psi(1)


def test_convolution_identities():
    for w in all_words(5):
        x = NCElement.word(w) if w else NCElement.one()
        left, right = convolution_defect(x)
        assert left.is_zero() and right.is_zero()


def test_coassociativity():
    from ncshift.suites import _tensor3

    for w in all_words(4):
        x = NCElement.word(w) if w else NCElement.one()
        d = coproduct(x)
        assert _tensor3(d, True) == _tensor3(d, False)


def test_counit_laws():
    for w in all_words(4):
        x = NCElement.word(w) if w else NCElement.one()
        d = coproduct(x)
        left = NCElement.zero()
        right = NCElement.zero()
        for (w1, w2), c in d.terms.items():
            e1 = NCElement.word(w1) if w1 else NCElement.one()
            e2 = NCElement.word(w2) if w2 else NCElement.one()
            left = left + e2.scale(counit(e1) * c)
            right = right + e1.scale(counit(e2) * c)
        assert left == x and right == x


def test_algebra_morphism():
    rng = random.Random(12)
    words = [w for w in all_words(3) if w]
    for _ in range(10):
        x = NCElement.word(rng.choice(words))
        y = NCElement.word(rng.choice(words))
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_coproduct_respects_filtration():
    # primitivity preserves the filtration: legs of Delta of a degree-d
    # element have total degree at most d (lower terms carry parameters)
    for w in ((2,), (1, 2), (3, 1)):
        d = sum(w)
        terms = coproduct(NCElement.word(w)).terms
        assert all(sum(w1) + sum(w2) <= d for (w1, w2) in terms)
        assert any(sum(w1) + sum(w2) == d for (w1, w2) in terms)


def test_tensor_json():
    d = coproduct(S(2))
    data = d.to_json()
    assert {"left": [1], "right": [1]} == {
        k: v for k, v in data["terms"][1].items() if k in ("left", "right")
    } or any(t["left"] == [1] and t["right"] == [1] for t in data["terms"])


def test_cached_leg_expansion_matches_direct():
    # the coproduct reads each leg from word_image(psi, w); the reference
    # multiplies the letter images of w afresh
    for w in all_words(4):
        direct = ref_apply_letters(NCElement.word(w), psi)
        assert word_image(psi, w) == direct
        assert word_image(psi, w) == direct  # served from the cache


def _clear_tables():
    word_coproduct.cache_clear()
    word_image.cache_clear()


def _elements():
    """The zero, one and a scalar element, one word entered twice, and random
    elements whose coefficients are two-monomial polynomials over (1/6)Z."""
    rng = random.Random(2301)
    w = NCElement.word((2, 1, 2))
    return [
        NCElement.zero(),
        NCElement.one(),
        NCElement.scalar(a(1) + Fraction(1, 3)),
        w.scale(Fraction(1, 2)) + w.scale(a(2)),
    ] + [random_element(rng, 5, terms=4, monomials=2) for _ in range(8)]


def test_elements_have_fractional_coefficients():
    rationals = [
        Fraction(r, c.den) for x in _elements() for c in x.terms.values() for r in c.terms.values()
    ]
    assert any(r.denominator > 1 for r in rationals)


@pytest.mark.parametrize("warm", [False, True])
def test_hopf_maps_match_their_references(warm):
    # cold: each element starts from empty tables; warm: the tables hold
    # every word of degree <= 4 and whatever earlier elements left
    _clear_tables()
    if warm:
        for w in all_words(4):
            convolution_defect(NCElement.word(w))
    for x in _elements():
        if not warm:
            _clear_tables()
        d = coproduct(x)
        assert d == ref_coproduct(x)
        assert_normal_form(d)
        s = antipode(x)
        assert s == ref_antipode(x)
        assert_normal_form(s)
        assert counit(x) == s_to_psi(x).constant_term()
        defect = convolution_defect(x)
        assert defect == ref_convolution_defect(x)
        assert all(side.is_zero() for side in defect)


def test_a_repeated_word_costs_one_coproduct():
    _clear_tables()
    w = NCElement.word((2, 1, 2))
    coproduct(w.scale(Fraction(1, 2)) + NCElement.gen(3))
    coproduct(w.scale(a(1)) - NCElement.gen(1))
    convolution_defect(w)
    info = word_coproduct.cache_info()
    assert (info.misses, info.hits) == (3, 2)
