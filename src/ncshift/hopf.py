"""Hopf structure generated by primitive power sums.

The coproduct is defined on the free generating set Psi_n by
Delta(Psi_n) = Psi_n x 1 + 1 x Psi_n, the counit kills every Psi_n, and the
antipode is the anti-algebra extension of Psi_n -> -Psi_n.  All three are
computed by rewriting into the power-sum generating set, acting there, and
rewriting back into the S-basis: the coproduct splits each Psi-word over its
subsets and merges the tensor terms in the Psi basis; then, per left part, it
sums the expanded right legs and multiplies the expanded left leg into that
sum once.  The antipode sends each Psi-word w to (-1)^len(w) times the psi
image of w reversed.  Every leg, every psi_words_to_s and every antipode
reads the S-expansion of a Psi-word from the one table algebra.word_image,
and the Psi-words of an S-word from the same table under s_in_psi_table, so
each is computed once per process.  Like every sum of products over Q[a] in
the package, the coproduct and the convolution defects write each
coefficient product into one accumulator (params.add_product) and normalize
once.  Tensors are LinComb combinations keyed by pairs of words.
"""

from __future__ import annotations

from operator import add

from .algebra import NCElement, apply_letters, word_image
from .families import psi, s_to_psi
from .params import LinComb, ParamPoly, accumulate, add_product, add_products


class TensorElement(LinComb):
    """Finite map (word, word) -> nonzero ParamPoly in the S x S basis."""

    __slots__ = ()
    _sort_key = None  # word pairs in their own order

    @staticmethod
    def one() -> "TensorElement":
        return TensorElement._of({((), ()): ParamPoly.one()})

    @staticmethod
    def of(x: NCElement, y: NCElement) -> "TensorElement":
        # distinct word pairs, and Q[a] has no zero divisors: nothing to merge
        return TensorElement._of(
            {(w1, w2): c1 * c2 for w1, c1 in x.terms.items() for w2, c2 in y.terms.items()}
        )

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


def coproduct(x: NCElement) -> TensorElement:
    """Delta(x), computed through the primitive power-sum generators."""
    # rights[left][right]: the coefficient of left x right over the splits of
    # each Psi-word; the right legs of one left part are summed in the S-basis
    # first, so that each left leg enters one product
    rights: dict = {}
    for w, c in s_to_psi(x).terms.items():
        m = len(w)
        for mask in range(1 << m):
            left = tuple(w[i] for i in range(m) if mask >> i & 1)
            right = tuple(w[i] for i in range(m) if not mask >> i & 1)
            accumulate(rights.setdefault(left, {}), right, c)
    acc: dict = {}
    for left, terms in rights.items():
        rights_in_s: dict = {}
        for right, c in terms.items():
            for u, d in word_image(psi, right).terms.items():
                add_product(rights_in_s, u, c, d)
        right_sum = NCElement._summed(rights_in_s).terms
        add_products(acc, word_image(psi, left).terms, right_sum, lambda u, v: (u, v))
    return TensorElement._summed(acc)


def counit(x: NCElement) -> ParamPoly:
    """The constant term of x in the power-sum generating set."""
    return s_to_psi(x).constant_term()


def antipode(x: NCElement) -> NCElement:
    """Word-reversing extension of Psi_n -> -Psi_n, back in the S-basis: each
    Psi-word w goes to (-1)^len(w) times the psi image of w reversed."""
    signed = {w: -c if len(w) % 2 else c for w, c in s_to_psi(x).terms.items()}
    return apply_letters(NCElement._of(signed), psi, reverse=True)


def convolution_defect(x: NCElement) -> tuple[NCElement, NCElement]:
    """m(S x id)Delta(x) - eps(x) 1 and m(id x S)Delta(x) - eps(x) 1."""
    # group the terms of Delta(x) by the leg the antipode acts on, so that
    # each antipode is computed once and multiplies the sum of its partners
    by_left: dict = {}
    by_right: dict = {}
    for (w1, w2), c in coproduct(x).terms.items():
        by_left.setdefault(w1, {})[w2] = c
        by_right.setdefault(w2, {})[w1] = c
    left: dict = {}
    right: dict = {}
    for w1, terms in by_left.items():
        add_products(left, antipode(NCElement.word(w1)).terms, terms, add)
    for w2, terms in by_right.items():
        add_products(right, terms, antipode(NCElement.word(w2)).terms, add)
    eps = NCElement.scalar(counit(x))
    return NCElement._summed(left) - eps, NCElement._summed(right) - eps
