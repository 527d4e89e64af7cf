"""Free algebra container: products, orders, commutative helpers."""

import json
import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

from ncshift.algebra import (
    NCElement,
    apply_letters,
    complete_homogeneous,
    elimination_key,
    serial_key,
)
from ncshift.families import lambda_in_S, psi
from ncshift.params import ParamPoly
from ncshift.shifts import shift_S

a = ParamPoly.gen
S = NCElement.gen


def test_multiply_examples():
    assert S(1) * S(2) == NCElement.word((1, 2))
    x = S(3) + S(1).scale(a(2))
    assert x * NCElement.one() == x
    assert NCElement.one() * x == x
    # distributivity, expanded by hand
    lhs = (S(1) + S(2).scale(a(1))) * S(1)
    assert lhs == NCElement.word((1, 1)) + NCElement.word((2, 1)).scale(a(1))


from tests_support import elementary, random_element


def test_associativity_on_random_corpus():
    rng = random.Random(20240801)
    for _ in range(120):
        x, y, z = (random_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_degree_filtration():
    rng = random.Random(7)
    for _ in range(40):
        x, y = random_element(rng), random_element(rng)
        if x.is_zero() or y.is_zero():
            continue
        assert (x * y).degree() <= x.degree() + y.degree()
    # with leading coefficients 1 the top degrees add exactly
    x = S(3) + S(1).scale(a(0))
    y = S(2) + NCElement.one()
    assert (x * y).degree() == 5


def test_word_orders():
    words = [(2,), (1, 1), (1,), (), (3,), (1, 2)]
    by_serial = sorted(words, key=serial_key)
    assert by_serial == [(), (1,), (1, 1), (2,), (1, 2), (3,)]
    by_elim = sorted(words, key=elimination_key)
    # length dominates, then degree, then lex
    assert by_elim == [(), (1,), (2,), (3,), (1, 1), (1, 2)]


def test_json_round_trip():
    x = S(2).scale(a(1) - a(0)) + NCElement.word((1, 1)) - NCElement.one().scale(Fraction(1, 3))
    data = x.to_json()
    assert NCElement.from_json(data) == x
    # serialization order is (degree, lex)
    keys = [tuple(t["word"]) for t in data["terms"]]
    assert keys == sorted(keys, key=serial_key)
    assert json.dumps(data) == json.dumps((x + NCElement.zero()).to_json())


def brute_h(values, k):
    """Complete homogeneous polynomial by direct enumeration of multisets."""
    total = ParamPoly.zero()
    for combo in combinations_with_replacement(range(len(values)), k):
        term = ParamPoly.one()
        for i in combo:
            term = term * values[i]
        total = total + term
    return total


def brute_e(values, k):
    from itertools import combinations

    total = ParamPoly.zero()
    for combo in combinations(range(len(values)), k):
        term = ParamPoly.one()
        for i in combo:
            term = term * values[i]
        total = total + term
    return total


def test_symmetric_helpers_against_enumeration():
    values = [a(1), a(2) - a(0), ParamPoly.const(2), a(-1)]
    hs = complete_homogeneous(values, 5)
    es = elementary(values, 5)
    for k in range(6):
        assert hs[k] == brute_h(values, k)
        assert es[k] == brute_e(values, k)
    assert es[5].is_zero()  # only four values


def test_latex_and_str_smoke():
    x = S(2).scale(a(1) - a(0)) + NCElement.word((1, 1))
    assert "S_{2;a}" in x.latex()
    assert "S2" in str(x)


def _letters_by_word(x, image, reverse):
    """sum_w c_w image(w_1)...image(w_m), one word at a time, no shared work."""
    out = NCElement.zero()
    for w, c in x.terms.items():
        letters = reversed(w) if reverse else w
        out = out + reduce(operator.mul, [image(k) for k in letters], NCElement.one()).scale(c)
    return out


def test_apply_letters_against_word_by_word_products():
    rng = random.Random(4417)
    # words sharing prefixes (read forwards) and suffixes (read backwards)
    shared = NCElement.one().scale(a(0)) + NCElement.word((2,)).scale(-3)
    for w in ((2, 1), (2, 1, 1), (2, 1, 2), (1, 1, 2), (3, 1, 2)):
        shared = shared + NCElement.word(w).scale(a(len(w)) + 1)
    corpus = [shared] + [random_element(rng, max_degree=5) for _ in range(15)]
    images = {"Lambda": lambda_in_S, "Psi": psi, "S^[1]": lambda k: shift_S(k, 1)}
    for name, image in images.items():
        for reverse in (False, True):
            for x in corpus:
                want = _letters_by_word(x, image, reverse)
                assert apply_letters(x, image, reverse) == want, (name, reverse, x)
