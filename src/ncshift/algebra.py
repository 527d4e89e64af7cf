"""Free associative algebra over Q[a] in the generators S_1, S_2, ...

Every linear combination of the package, ParamPoly included, is a LinComb:
the zero-pruned sparse map defined in params.  NCElement is the LinComb of
words with ParamPoly coefficients; the word (k_1,...,k_m) stands for the
monomial S_{k_1}...S_{k_m} and the empty word is the unit.  The generator S_k
has degree k, so the degree of a word is the sum of its letters.  Words in
other generating families (elementary, power-sum) reuse the same container;
which family the letters denote is purely contextual.  Ribbon and tensor
combinations subclass LinComb in their own modules.

Each change of generating set, the duality map, the shift automorphism and
the antipode is fixed by the image of each letter: apply_letters() extends
such an image to words, multiplicatively or (reversed) anti-multiplicatively.
The image of each word is computed once per process and letter map, from the
image of its prefix (word_image, a functools.cache table), so a letter map
must be a pure function of (letter, *args) and the same function object on
every call; a reversed word reads the image of its reversal.

Two word orders matter:

* the serialization order (degree, then lex), used for canonical JSON;
* the elimination order (length, then degree, then lex), under which every
  ribbon expansion has its indexing composition as strict leading word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add
from typing import Callable, Iterable, Mapping

from .params import LinComb, ParamPoly, ParamSubstitution, json_ints, signed

Word = tuple[int, ...]


def word_degree(w: Word) -> int:
    return sum(w)


def serial_key(w: Word):
    return (word_degree(w), w)


def elimination_key(w: Word):
    return (len(w), word_degree(w), w)


def positive_word(w: Iterable[int]) -> Word:
    """w as a word; a letter that is not a positive int is a ValueError."""
    w = tuple(w)
    if any(type(k) is not int or k < 1 for k in w):
        raise ValueError(f"word letters must be positive integers, got {w}")
    return w


class NCElement(LinComb):
    """A finite map word -> nonzero ParamPoly.

    Multiplication concatenates words bilinearly; equality is equality of
    the underlying term maps, which is linear independence of the word basis
    made operational.
    """

    __slots__ = ()
    _sort_key = staticmethod(serial_key)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def one() -> "NCElement":
        return NCElement._of({(): ParamPoly.one()})

    @staticmethod
    def gen(k: int) -> "NCElement":
        """The generator S_k; S_0 is the unit and negative degrees vanish."""
        if k < 0:
            return NCElement.zero()
        if k == 0:
            return NCElement.one()
        return NCElement._of({(k,): ParamPoly.one()})

    @staticmethod
    def word(w: Iterable[int]) -> "NCElement":
        return NCElement._of({positive_word(w): ParamPoly.one()})

    @staticmethod
    def scalar(c) -> "NCElement":
        c = ParamPoly.coerce(c)
        return NCElement({(): c})

    # -- products -------------------------------------------------------------

    def __mul__(self, other) -> "NCElement":
        if not isinstance(other, NCElement):
            return self.scale(other)
        return self._product(other, add)

    def __rmul__(self, other) -> "NCElement":
        # scalars commute with everything
        return self.scale(other)

    def constant_term(self) -> ParamPoly:
        return self.terms.get((), ParamPoly.zero())

    def leading_word(self) -> Word:
        """Maximal support word in the elimination order."""
        if not self.terms:
            raise ValueError("zero element has no leading word")
        return max(self.terms, key=elimination_key)

    def map_coefficients(self, f: Callable[[ParamPoly], ParamPoly]) -> "NCElement":
        return NCElement({w: f(c) for w, c in self.terms.items()})

    def substitute(self, sub: ParamSubstitution) -> dict[Word, Fraction]:
        """Numeric coefficients under a parameter substitution."""
        out = {}
        for w, c in self.terms.items():
            v = c.substitute(sub)
            if v:
                out[w] = v
        return out

    # -- presentation --------------------------------------------------------

    def to_json(self, basis: str = "S") -> dict:
        return {
            "basis": basis,
            "terms": [
                {"word": list(w), "coeff": c.to_json()} for w, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "NCElement":
        return NCElement._from_json(data, lambda item: positive_word(json_ints(item["word"])))

    def __str__(self) -> str:
        return self.pretty("S")

    __repr__ = __str__

    def pretty(self, letter: str = "S") -> str:
        def term(w, c):
            body = "*".join(f"{letter}{k}" for k in w) or "1"
            cs = str(c)
            scaled = f"{cs}*{body}" if c.degree() == 0 else f"({cs})*{body}"
            return signed(cs, body, scaled)

        return self._show(term)

    def latex(self, letter: str = "S") -> str:
        """Emit the S_{k;a}-style notation used in the literature."""

        def term(w, c):
            body = "".join(f"{letter}_{{{k};a}}" for k in w) or "1"
            cl = c.latex()
            scaled = f"\\left({cl}\\right) {body}" if len(c.terms) > 1 else f"{cl}\\, {body}"
            return signed(cl, body, scaled)

        return self._show(term)


def apply_letters(
    x: NCElement,
    image: Callable[..., NCElement],
    reverse: bool = False,
    args: tuple = (),
) -> NCElement:
    """The sum of c_w image(w_1, *args)...image(w_m, *args) over the terms c_w w of x.

    This is the algebra map fixed by the image of each letter; with reverse
    set, each word is read backwards, which gives the anti-homomorphism.
    Each word's image is read from word_image(), so image must be a pure
    function of (letter, *args); a reversed word reads the image of w[::-1].
    """
    return NCElement.linear(x, lambda w: word_image(image, w[::-1] if reverse else w, *args))


#: word_image() caches every this-many-th prefix of a longer word first, so
#: that no call recurses deeper than this
_PREFIX_STRIDE = 256


@cache
def word_image(image: Callable[..., NCElement], w: Word, *args) -> NCElement:
    """image(w_1, *args)...image(w_m, *args), memoized per process.

    The image of a one-letter word is the letter's image itself; that of a
    longer word w is the cached image of its prefix w[:-1] times the cached
    image of its last letter: one product per word not seen before, and one
    call of the letter map per letter.  The table keys on the letter map
    itself, so it must be a pure function of (letter, *args) and the same
    object on every call (a module-level function, not a closure made per
    call).
    """
    if len(w) < 2:
        return image(w[0], *args) if w else NCElement.one()
    for i in range(_PREFIX_STRIDE, len(w) - 1, _PREFIX_STRIDE):
        word_image(image, w[:i], *args)
    return word_image(image, w[:-1], *args) * word_image(image, w[-1:], *args)


# -- commutative symmetric polynomials of parameter values -------------------
#
# Needed by the series re-expansions.
# The standard one-variable-at-a-time recurrence; inputs are plain lists of
# ParamPoly values.


def complete_homogeneous(values: list[ParamPoly], n: int) -> list[ParamPoly]:
    """[h_0, h_1, ..., h_n] of the given values."""
    hs = [ParamPoly.one()] + [ParamPoly.zero()] * n
    for v in values:
        for i in range(1, n + 1):
            hs[i] = hs[i] + v * hs[i - 1]
    return hs

