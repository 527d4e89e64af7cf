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

Two word orders matter:

* the serialization order (degree, then lex), used for canonical JSON;
* the elimination order (length, then degree, then lex), under which every
  ribbon expansion has its indexing composition as strict leading word.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping

from .params import LinComb, ParamPoly, ParamSubstitution, accumulate, json_ints, signed

Word = tuple[int, ...]


def word_degree(w: Word) -> int:
    return sum(w)


def serial_key(w: Word):
    return (word_degree(w), w)


def elimination_key(w: Word):
    return (len(w), word_degree(w), w)


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
        w = tuple(w)
        if any(k < 1 for k in w):
            raise ValueError(f"word letters must be positive, got {w}")
        return NCElement._of({w: ParamPoly.one()})

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

    def degree(self) -> int:
        """Top word degree; -1 for the zero element."""
        return max(map(word_degree, self.terms), default=-1)

    def constant_term(self) -> ParamPoly:
        return self.terms.get((), ParamPoly.zero())

    def coefficient(self, w: Iterable[int]) -> ParamPoly:
        return self.terms.get(tuple(w), ParamPoly.zero())

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
        def word(item) -> Word:
            w = json_ints(item["word"])
            if any(k < 1 for k in w):
                raise ValueError(f"word letters must be positive, got {w}")
            return w

        return NCElement._from_json(data, word)

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

    def latex(self, letter: str = "S", family_tag: str = "a") -> str:
        """Emit the S_{k;a}-style notation used in the literature."""

        def term(w, c):
            body = "".join(f"{letter}_{{{k};{family_tag}}}" for k in w) or "1"
            cl = c.latex()
            scaled = f"\\left({cl}\\right) {body}" if len(c.terms) > 1 else f"{cl}\\, {body}"
            return signed(cl, body, scaled)

        return self._show(term)


def apply_letters(
    x: NCElement, image: Callable[[int], NCElement], reverse: bool = False
) -> NCElement:
    """The sum of c_w image(w_1)...image(w_m) over the terms c_w w of x.

    This is the algebra map fixed by the image of each letter; with reverse
    set, each word is read backwards, which gives the anti-homomorphism.
    """
    one = NCElement.one()
    out: dict[Word, ParamPoly] = {}
    for w, c in x.terms.items():
        p = one
        for k in reversed(w) if reverse else w:
            p = p * image(k)
        for u, d in p.terms.items():
            accumulate(out, u, c * d)
    return NCElement._of(out)


# -- commutative symmetric polynomials of parameter values -------------------
#
# Needed by the series re-expansions and by the finite-variable embedding.
# The standard one-variable-at-a-time recurrence; inputs are plain lists of
# ParamPoly values.


def complete_homogeneous(values: list[ParamPoly], n: int) -> list[ParamPoly]:
    """[h_0, h_1, ..., h_n] of the given values."""
    hs = [ParamPoly.one()] + [ParamPoly.zero()] * n
    for v in values:
        for i in range(1, n + 1):
            hs[i] = hs[i] + v * hs[i - 1]
    return hs

