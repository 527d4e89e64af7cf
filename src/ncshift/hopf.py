"""Hopf structure generated by primitive power sums.

The coproduct is defined on the free generating set Psi_n by
Delta(Psi_n) = Psi_n x 1 + 1 x Psi_n, the counit kills every Psi_n, and the
antipode is the anti-algebra extension of Psi_n -> -Psi_n.

Delta is linear over one per-process table of Delta(w) for S-words w
(word_coproduct, a functools.cache): an entry splits each Psi-word of w over
its subsets, merges the tensor terms in the Psi basis, and then, per left
part, sums the expanded right legs and multiplies the expanded left leg into
that sum once.  No entry is a product of other entries, so the hopf suite's
algebra-morphism case compares two computations.  The antipode is the
anti-algebra map fixed by the antipode of each S_k (each Psi-word w of S_k
sent to (-1)^len(w) times the psi image of w reversed), so the antipode of a
word is read from algebra.word_image, as are the Psi-expansion of a word
(whose constant term is its counit) and the S-expansion of each leg.  Every
sum of products over Q[a] is one LinComb.sum_of_products or LinComb.linear
call, which writes each coefficient product into one accumulator and
normalizes once.  Tensors are LinComb combinations keyed by pairs of words.
"""

from __future__ import annotations

from functools import cache
from operator import add

from .algebra import NCElement, Word, apply_letters, word_image
from .families import psi, s_in_psi_table
from .params import LinComb, ParamPoly, accumulate


class TensorElement(LinComb):
    """Finite map (word, word) -> nonzero ParamPoly in the S x S basis."""

    __slots__ = ()
    _sort_key = None  # word pairs in their own order

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        return self._product(other, lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1]))

    def to_json(self) -> dict:
        return {
            "terms": [
                {"left": list(w1), "right": list(w2), "coeff": c.to_json()}
                for (w1, w2), c in self.sorted_terms()
            ]
        }

    def __str__(self) -> str:
        def term(key, c):
            b1, b2 = ("*".join(f"S{k}" for k in w) or "1" for w in key)
            return ("" if c == 1 else f"({c})*") + f"{b1}(x){b2}"

        return self._show(term)

    __repr__ = __str__


@cache
def word_coproduct(w: Word) -> TensorElement:
    """Delta of the S-word w, by splitting the Psi-words of its Psi-expansion;
    memoized per process."""
    # rights[left][right]: the coefficient of left x right over the splits of
    # each Psi-word; the right legs of one left part are summed in the S-basis
    # first, so that each left leg enters one product
    rights: dict = {}
    for v, c in word_image(s_in_psi_table, w).terms.items():
        m = len(v)
        for mask in range(1 << m):
            left = tuple(v[i] for i in range(m) if mask >> i & 1)
            right = tuple(v[i] for i in range(m) if not mask >> i & 1)
            accumulate(rights.setdefault(left, {}), right, c)
    return TensorElement.sum_of_products(
        ((word_image(psi, u), apply_letters(NCElement._of(t), psi)) for u, t in rights.items()),
        lambda u, v: (u, v),
    )


def coproduct(x: NCElement) -> TensorElement:
    """Delta(x): the sum of c_w Delta(w) over the terms c_w w of x."""
    return TensorElement.linear(x, word_coproduct)


def counit(x: NCElement) -> ParamPoly:
    """The constant term of x in the power-sum generating set."""
    return NCElement.linear(
        x, lambda w: NCElement.scalar(word_image(s_in_psi_table, w).constant_term())
    ).constant_term()


def _antipode_letter(k: int) -> NCElement:
    """The antipode of S_k: each Psi-word w of S_k goes to (-1)^len(w) times
    the psi image of w reversed."""
    signed = {w: -c if len(w) % 2 else c for w, c in s_in_psi_table(k).terms.items()}
    return apply_letters(NCElement._of(signed), psi, reverse=True)


def antipode(x: NCElement) -> NCElement:
    """The anti-algebra extension of Psi_n -> -Psi_n, in the S-basis."""
    return apply_letters(x, _antipode_letter, reverse=True)


def convolution_defect(x: NCElement) -> tuple[NCElement, NCElement]:
    """m(S x id)Delta(x) - eps(x) 1 and m(id x S)Delta(x) - eps(x) 1."""
    # group the terms of Delta(x) by the leg the antipode acts on, so that
    # each leg's antipode (the image of the reversed word) multiplies the sum
    # of its partners once
    by_left: dict = {}
    by_right: dict = {}
    for (w1, w2), c in coproduct(x).terms.items():
        by_left.setdefault(w1, {})[w2] = c
        by_right.setdefault(w2, {})[w1] = c
    left = NCElement.sum_of_products(
        ((word_image(_antipode_letter, w[::-1]), NCElement._of(t)) for w, t in by_left.items()),
        add,
    )
    right = NCElement.sum_of_products(
        ((NCElement._of(t), word_image(_antipode_letter, w[::-1])) for w, t in by_right.items()),
        add,
    )
    eps = NCElement.scalar(counit(x))
    return left - eps, right - eps
