"""The per-process table of word images under each letter map.

apply_letters reads the image of each word from algebra.word_image, which
builds it from the cached image of its prefix.  Every letter map of the
package is held to the reference that multiplies the letter images of each
word afresh (tests_support.ref_apply_letters), from an empty table and from
one that other calls have filled.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ncshift import hopf
from ncshift.algebra import NCElement, apply_letters, word_image
from ncshift.families import all_words, lambda_in_S, lambda_words_to_s, omega, psi, s_in_psi_table
from ncshift.hopf import antipode
from ncshift.params import SEQ_A, SEQ_AHAT, ParamPoly
from ncshift.shifts import phi_shift, shift_S
from tests_support import assert_normal_form, random_element, ref_antipode, ref_apply_letters

a = ParamPoly.gen
W = NCElement.word

#: name -> (letter map, the extra arguments it is called with)
LETTER_MAPS = {
    "s_in_psi_table": (s_in_psi_table, ()),
    "psi": (psi, ()),
    "lambda_in_S": (lambda_in_S, ()),
    "omega-over-a": (lambda_in_S, (SEQ_AHAT,)),
    "omega-over-ahat": (lambda_in_S, (SEQ_A,)),
    "shift_S-1": (shift_S, (1,)),
}


def _elements():
    """Words that extend (2,1) and (2,1,1), read forward or reversed, plus
    random elements with non-integral coefficients."""
    rng = random.Random(2201)
    shared = (
        W((2, 1, 1, 3)).scale(a(1))
        + W((2, 1, 2)).scale(Fraction(1, 2))
        + W((1, 1, 2)).scale(Fraction(-2, 3))
        + W((3, 1, 2))
        + W((2, 1))
        + NCElement.one()
    )
    return [shared] + [random_element(rng, 5, terms=4, monomials=3) for _ in range(5)]


def _reference(x, name, reverse):
    image, args = LETTER_MAPS[name]
    return ref_apply_letters(x, lambda k: image(k, *args), reverse)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", LETTER_MAPS)
def test_apply_letters_matches_reference_from_an_empty_table(name, reverse):
    image, args = LETTER_MAPS[name]
    for x in _elements():
        word_image.cache_clear()
        got = apply_letters(x, image, reverse, args)
        assert got == _reference(x, name, reverse)
        assert_normal_form(got)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", LETTER_MAPS)
def test_apply_letters_matches_reference_from_a_warm_table(name, reverse):
    image, args = LETTER_MAPS[name]
    word_image.cache_clear()
    # other calls cache the prefixes (2,1) and (2,1,1): the second reads
    # (1,1,2) reversed
    apply_letters(W((2, 1)), image, False, args)
    apply_letters(W((1, 1, 2)), image, True, args)
    for x in _elements():
        got = apply_letters(x, image, reverse, args)
        assert got == _reference(x, name, reverse)
        assert_normal_form(got)


@pytest.mark.parametrize("name", LETTER_MAPS)
def test_a_new_word_costs_one_product_on_its_cached_prefix(name):
    image, args = LETTER_MAPS[name]
    word_image.cache_clear()
    word_image(image, (2, 1, 1), *args)
    word_image(image, (3,), *args)  # a letter image may itself read the table
    before = word_image.cache_info()
    got = word_image(image, (2, 1, 1, 3), *args)
    after = word_image.cache_info()
    # the new word, then its prefix and its last letter read back
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
    assert got == word_image(image, (2, 1, 1), *args) * image(3, *args)


def test_each_letter_map_runs_once_per_letter(monkeypatch):
    # a word's last letter is read from the table like its prefix, so the
    # antipodes of all words of degree <= 5 call the letter map once a letter
    calls = Counter()
    letter = hopf._antipode_letter

    def counted(k):
        calls[k] += 1
        return letter(k)

    monkeypatch.setattr(hopf, "_antipode_letter", counted)
    word_image.cache_clear()
    for w in all_words(5):
        assert antipode(W(w)) == ref_antipode(W(w))
    assert calls == Counter(range(1, 6))


def test_maps_built_on_apply_letters_match_their_references():
    for x in _elements():
        assert omega(x) == _reference(x, "omega-over-a", True)
        assert omega(x, SEQ_AHAT) == _reference(x, "omega-over-ahat", True)
        assert phi_shift(x, 1) == _reference(
            x.map_coefficients(lambda c: c.tau(-1)), "shift_S-1", False
        )
        got = antipode(x)
        assert got == ref_antipode(x)
        assert_normal_form(got)


def test_lambda_words_read_the_images_omega_over_ahat_reads():
    # omega over the dual sequence reads each reversed word's Lambda-letters
    # over a; lambda_words_to_s of the reversed words reads the same entries
    x = W((2, 1, 1)).scale(Fraction(1, 2)) + W((1, 3)) + W((3, 1, 2))
    reversed_x = NCElement({w[::-1]: c for w, c in x.terms.items()})
    word_image.cache_clear()
    want = omega(x, SEQ_AHAT)
    before = word_image.cache_info()
    assert lambda_words_to_s(reversed_x) == want
    after = word_image.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 3)


def test_long_word_stays_within_the_recursion_limit():
    # Psi_1 = S_1, so a word of ones is its own image; the table caches
    # every 256th prefix first instead of recursing once per letter
    word_image.cache_clear()
    w = (1,) * 1500
    assert apply_letters(W(w), psi) == W(w)
    assert apply_letters(W(w), s_in_psi_table, True) == W(w)
