"""Every sum of products over Q[a] against the nested per-pair reference.

The package sums each coefficient product straight into one raw monomial
dict per output key and normalizes once; tests_support keeps the nested
path (a fresh ParamPoly per product, added through accumulate) to hold each
site to.
"""

import random
from fractions import Fraction
from operator import add

import pytest

from ncshift import params
from ncshift.algebra import NCElement, apply_letters
from ncshift.families import lambda_in_S, psi
from ncshift.hopf import TensorElement, convolution_defect, coproduct
from ncshift.params import SEQ_A, ParamPoly
from ncshift.ribbon import Composition, RibbonElement, from_ribbon_basis
from ncshift.series import TruncatedTSeries, reexpand_values
from ncshift.shifts import shift_S
from tests_support import (
    assert_normal_form,
    factor_terms,
    random_element,
    ref_apply_letters,
    ref_convolution_defect,
    ref_coproduct,
    ref_from_ribbon_basis,
    ref_nested_product,
    ref_reexpand_values,
    ref_series_multiply,
    ref_sum_of_products,
)

a = ParamPoly.gen
S = NCElement.gen


def _elements(seed, count, max_degree):
    """Random elements whose coefficients have several monomials and
    non-integral Fractions."""
    rng = random.Random(seed)
    return [random_element(rng, max_degree, terms=4, monomials=3) for _ in range(count)]


def _tensor(x, y):
    """A tensor pairing the terms of x with the words of y."""
    return TensorElement({(u, v): c for (u, c), v in zip(x.terms.items(), y.terms)})


def test_corpus_has_several_monomials_and_fractions():
    coeffs = [c for x in _elements(2101, 30, 4) for c in x.terms.values()]
    assert any(len(c.terms) > 1 for c in coeffs)
    assert any(Fraction(r, c.den).denominator > 1 for c in coeffs for r in c.terms.values())


def test_element_products_match_nested_reference():
    xs = _elements(2102, 24, 4)
    for x, y in zip(xs, xs[1:]):
        got = x * y
        assert got == ref_nested_product(x, y, add)
        assert_normal_form(got)


def test_tensor_products_match_nested_reference():
    def join(k1, k2):
        return k1[0] + k2[0], k1[1] + k2[1]

    xs = _elements(2103, 24, 3)
    tensors = [_tensor(x, y) for x, y in zip(xs, reversed(xs))]
    for s, t in zip(tensors, tensors[1:]):
        got = s * t
        assert got == ref_nested_product(s, t, join)
        assert_normal_form(got)


@pytest.mark.parametrize("reverse", [False, True])
def test_apply_letters_matches_nested_reference(reverse):
    images = (lambda_in_S, psi, lambda k: shift_S(k, 1))
    for image in images:
        for x in _elements(2104, 6, 4):
            got = apply_letters(x, image, reverse)
            assert got == ref_apply_letters(x, image, reverse)
            assert_normal_form(got)


def test_sum_of_products_and_linear_match_nested_reference():
    xs = _elements(2110, 12, 3)
    pairs = list(zip(xs, reversed(xs)))
    got = NCElement.sum_of_products(pairs, add)
    want = NCElement.zero()
    for x, y in pairs:
        want = want + ref_nested_product(x, y, add)
    assert got == want
    assert_normal_form(got)
    # one pair and its negation cancel at every key; no pair is the zero sum
    x, y = xs[0], xs[1]
    assert NCElement.sum_of_products([(x, y), (x.scale(-1), y)], add).terms == {}
    assert NCElement.sum_of_products([], add).terms == {}

    def image(w):
        return NCElement.word(w[::-1]) * S(1) + S(2).scale(a(len(w)) * Fraction(1, 3))

    for x in xs:
        got = NCElement.linear(x, image)
        want = NCElement.zero()
        for w, c in x.terms.items():
            want = want + image(w).scale(c)
        assert got == want
        assert_normal_form(got)
    assert NCElement.linear(NCElement.zero(), image).terms == {}


def test_from_ribbon_basis_matches_nested_reference():
    rng = random.Random(2105)
    for x in _elements(2105, 12, 4):
        terms = {}
        for w, c in x.terms.items():
            if w:
                K = tuple(s + rng.randint(-1, 1) for s in Composition(w).row_shifts())
                terms[(w, K)] = c
        r = RibbonElement(terms)
        got = from_ribbon_basis(r)
        assert got == ref_from_ribbon_basis(r)
        assert_normal_form(got)


def test_coproduct_and_convolution_defect_match_nested_reference():
    for x in _elements(2106, 10, 4):
        d = coproduct(x)
        assert d == ref_coproduct(x)
        assert_normal_form(d)
        got = convolution_defect(x)
        assert got == ref_convolution_defect(x)
        for side in got:
            assert_normal_form(side)


def _series(seed, count, order):
    """Series with random coefficients at k = 0..order, one order (the
    constant included) left out of each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gap = rng.randint(0, order)
        coeffs = {
            k: random_element(rng, 3, terms=3, monomials=3) for k in range(order + 1) if k != gap
        }
        out.append(TruncatedTSeries(order, {k: c for k, c in coeffs.items() if c}))
    return out


def _assert_series_normal_form(s):
    for c in s.coeffs.values():
        assert not c.is_zero()
        assert_normal_form(c)


def test_series_products_match_nested_reference():
    xs = _series(2107, 8, 4)
    for s, t in zip(xs, xs[1:]):
        got = s.multiply(t)
        assert got == ref_series_multiply(s, t)
        assert got.coeffs == ref_series_multiply(s, t).coeffs
        _assert_series_normal_form(got)
    # (1 + x/t)(1 - x/t) = 1 - x^2/t^2: the order-1 coefficient cancels
    x = NCElement.word((1,)).scale(a(1) * Fraction(1, 2))
    s = TruncatedTSeries(2, {0: NCElement.one(), 1: x})
    t = TruncatedTSeries(2, {0: NCElement.one(), 1: -x})
    got = s.multiply(t)
    assert list(got.coeffs) == [0, 2] and got.coeffs[2] == -(x * x)
    assert factor_terms((x * x).terms[(1, 1)])[(1, 1)] == Fraction(1, 4)


def test_series_reexpansion_matches_nested_reference():
    rng = random.Random(2108)
    order = 4
    value_lists = [
        SEQ_A.values(order),
        [a(rng.randint(-2, 2)).scale(Fraction(rng.randint(1, 5), 3)) for _ in range(order)],
    ]
    for values in value_lists:
        for s in _series(2109, 4, order):
            got = reexpand_values(order, s.coeffs, values)
            want = ref_reexpand_values(order, s.coeffs, values)
            assert got == want and got.coeffs == want.coeffs
            _assert_series_normal_form(got)
    # 3/t - 3 a_1/t^2 ... over (t - a_1): the order-2 terms cancel to no entry
    y = NCElement.word((1,)).scale(3)
    got = reexpand_values(2, {0: NCElement.one(), 1: y, 2: y.scale(-a(1))}, [a(1), a(2)])
    assert got.coeffs == {0: NCElement.one(), 1: y}
    assert_normal_form(got.coeffs[1])


def test_vanishing_constant_is_not_stored():
    # the constant of a product is the product of the constants, and that of
    # a re-expansion is coeffs[0]: where it vanishes, no coeffs[0] is stored
    xs = _series(2110, 12, 3)
    assert any(0 not in s.coeffs for s in xs) and any(0 in s.coeffs for s in xs)
    for s, t in zip(xs, xs[1:]):
        got = s.multiply(t)
        assert (0 in got.coeffs) == (0 in s.coeffs and 0 in t.coeffs)
        assert got == ref_series_multiply(s, t)
    y = NCElement.word((1,)).scale(a(1))
    for coeffs in ({1: y}, {0: NCElement.zero(), 1: y}):
        got = reexpand_values(2, coeffs, [a(1), a(2)])
        assert got.coeffs == {1: y, 2: y.scale(a(1))}


def test_cancelled_coefficient_is_not_stored():
    # word (1,1,1) of x*y collects 1*a1 + a1*(-1) = 0
    x = S(1) + NCElement.word((1, 1)).scale(a(1))
    y = NCElement.word((1, 1)).scale(a(1)) - S(1)
    got = x * y
    assert (1, 1, 1) not in got.terms
    assert got == NCElement.word((1, 1)).scale(-1) + NCElement.word((1, 1, 1, 1)).scale(a(1) * a(1))
    assert_normal_form(got)


def test_integral_product_is_stored_as_int():
    # 1/2 * 2 is the numerator 1 over the denominator 1
    x = S(1).scale(Fraction(1, 2))
    y = S(1).scale(2)
    p = (x * y).terms[(1, 1)]
    assert (p.terms, p.den) == ({1: 1}, 1) and type(p.terms[1]) is int
    t = TensorElement({((1,), ()): ParamPoly.const(Fraction(1, 2))})
    u = TensorElement({((), (1,)): ParamPoly.const(2) * a(0)})
    p = (t * u).terms[((1,), (1,))]
    assert (p.terms, p.den) == (a(0).terms, 1) and all(type(c) is int for c in p.terms.values())


#: (c1, c2) pairs whose products land in one key, and their sum: over the
#: lcm 6, cancelling to the denominator 1, to a smaller one, and to zero
SHARED_KEY_SUMS = [
    ([(Fraction(1, 2), 1), (1, Fraction(1, 3))], Fraction(5, 6)),
    ([(Fraction(1, 2), 1), (1, Fraction(1, 2))], 1),
    ([(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), 3)], 1),
    ([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), 1)], Fraction(1, 2)),
    ([(Fraction(1, 2), 1), (-1, Fraction(1, 3)), (Fraction(-1, 6), 1)], 0),
]


@pytest.mark.parametrize("pairs, total", SHARED_KEY_SUMS)
def test_products_over_different_denominators_share_one_key(pairs, total):
    # sum_of_products: c1 a_1 S_1 times c2 S_2 lands at the word (1, 2), and
    # a product over the denominator 1 rides along at (2,); linear: the
    # i-th term c1 S_i of x is sent to c2 S_9
    word = NCElement.word
    xs = [(word((1,)).scale(a(1).scale(c1)), word((2,)).scale(c2)) for c1, c2 in pairs]
    xs.append((word((2,)).scale(a(2)), NCElement.one().scale(3)))
    x = NCElement({(i,): ParamPoly.const(c1) for i, (c1, _) in enumerate(pairs, 1)})
    ys = {(i,): word((9,)).scale(c2) for i, (_, c2) in enumerate(pairs, 1)}
    for got, key, monomial, rest in (
        (NCElement.sum_of_products(xs, add), (1, 2), (1,), {(2,): {(2,): 3}}),
        (NCElement.linear(x, ys.__getitem__), (9,), (), {}),
    ):
        assert_normal_form(got)
        want = rest | ({key: {monomial: Fraction(total)}} if total else {})
        assert {k: factor_terms(c) for k, c in got.terms.items()} == want
        assert total == 0 or got.terms[key].den == Fraction(total).denominator


def test_int_scalars_skip_the_fraction_coercion(monkeypatch):
    # scale(1) is the element itself, and no int scalar passes through
    # as_fraction; the values agree with the Fraction path
    xs = _elements(2601, 12, 4)
    real, calls = params.as_fraction, []
    monkeypatch.setattr(params, "as_fraction", lambda c: calls.append(c) or real(c))
    scaled = {k: [x.scale(k) for x in xs] for k in (1, -1, 2)}
    assert calls == []
    assert all(y is x for x, y in zip(xs, scaled[1]))
    for k in (-1, 2):
        for x, got in zip(xs, scaled[k]):
            assert got == x.scale(Fraction(k)) == x.scale(str(k))
            assert got == x.scale(ParamPoly.const(k))
            assert_normal_form(got)
    assert calls
    for bad in (1.0, 2.5, True):
        with pytest.raises(TypeError):
            xs[0].scale(bad)


_p = a(1) + a(2).scale(Fraction(1, 3))  # over the denominator 3
_q = a(1) * a(2) - 2
_r = _p.scale(Fraction(-1, 2))

#: (c1, c2) pairs whose products land in one key, where the unit polynomial 1
#: is a factor of some of them: a unit product followed or preceded by
#: another, two unit products, a unit times a polynomial over 3, and unit
#: products that a later product cancels to zero
UNIT_PRODUCTS = {
    "unit-then-product": [(1, _p), (_q, _r)],
    "product-then-unit": [(_q, _r), (_p, 1)],
    "two-units": [(1, _p), (_q, 1)],
    "unit-times-fraction": [(_p, 1), (1, _r)],
    "cancelled-by-a-product": [(1, _p), (_r, 2)],
    "cancelled-by-a-unit": [(_p, 1), (1, -_p)],
}


def _coefficient_snapshot(elements):
    return [(dict(c.terms), c.den) for x in elements for c in x.terms.values()]


@pytest.mark.parametrize("name", UNIT_PRODUCTS)
def test_unit_products_match_the_fraction_reference(name):
    # sum_of_products: c1 S_1 times c2 S_2 lands at (1, 2); linear: the i-th
    # term c1 S_i of x is sent to c2 S_9.  Riders hold one unit product each,
    # _p * 1 at (3,) or (8,) and 1 * _r at (4,) or (7,), and that key holds
    # the other factor itself.  No input coefficient is changed.
    pairs = [(ParamPoly.coerce(c1), ParamPoly.coerce(c2)) for c1, c2 in UNIT_PRODUCTS[name]]
    one = NCElement.one()
    xs = [(NCElement({(1,): c1}), NCElement({(2,): c2})) for c1, c2 in pairs]
    xs += [(NCElement({(3,): _p}), one), (one, NCElement({(4,): _r}))]
    x = NCElement({(i,): c1 for i, (c1, _) in enumerate(pairs, 1)})
    x += NCElement({(10,): ParamPoly.one(), (11,): _r})
    images = {(i,): NCElement({(9,): c2}) for i, (_, c2) in enumerate(pairs, 1)}
    images |= {(10,): NCElement({(8,): _p}), (11,): NCElement({(7,): ParamPoly.one()})}
    inputs = [y for pair in xs for y in pair] + [x, *images.values()]
    before = _coefficient_snapshot(inputs)
    for got, triples, key, shared in (
        (
            NCElement.sum_of_products(xs, add),
            [
                (k1 + k2, c1, c2)
                for y, z in xs
                for k1, c1 in y.terms.items()
                for k2, c2 in z.terms.items()
            ],
            (1, 2),
            {(3,): _p, (4,): _r},
        ),
        (
            NCElement.linear(x, images.__getitem__),
            [(u, c, d) for k, c in x.terms.items() for u, d in images[k].terms.items()],
            (9,),
            {(8,): _p, (7,): _r},
        ),
    ):
        want = ref_sum_of_products(triples)
        assert {k: factor_terms(c) for k, c in got.terms.items()} == {
            k: factor_terms(c) for k, c in want.items()
        }
        assert_normal_form(got)
        assert (key in got.terms) != name.startswith("cancelled")
        assert all(got.terms[k] is c for k, c in shared.items())
        assert _coefficient_snapshot(inputs) == before
