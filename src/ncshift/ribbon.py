"""Compositions, shifted ribbon Schur functions, and the duality shift.

A composition I = (i_1, ..., i_n) encodes a ribbon; its canonical row shifts
are s_k = i_k + ... + i_{n-1} (and s_n = 0).  The ribbon function R_I is the
(1,n) quasideterminant, with outer sign (-1)^(n-1), of the Hessenberg matrix
whose (p,q) entry is S_{i_p+...+i_q}^[s_p]; generalized shift vectors K
replace the canonical s.  It is expanded along its first row: the rows below
are the matrix of the suffix (i_{m+1}, ..., i_n) with its shifts, so each
ribbon is one sum of products over the memoized ribbons of its suffixes.  The
expansions are triangular with leading word I under the (length, degree, lex)
order, which drives the basis conversion.

The conjugate composition is the descent-set complement reversed; it is the
diagonal reflection of the ribbon diagram, and satisfies
len(I) + len(I~) = deg(I) + 1.  (The published worked illustration for
(2,2,3,2) violates that law -- its conjugate as displayed has length 5, not
6 -- and is reproduced here only in the corrected form.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import add

from .algebra import NCElement
from .params import SEQ_A, LinComb, ParamPoly, ParamSequence, json_ints
from .quasidet import hessenberg_quasidet
from .shifts import shift_S
from .families import compositions_of, omega, shift_Lambda  # omega: re-exported


@dataclass(frozen=True)
class Composition:
    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts or any(type(p) is not int or p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive integers, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def row_shifts(self) -> tuple[int, ...]:
        """Canonical shift vector (s_1, ..., s_{n-1}, 0)."""
        return tuple(sum(self.parts[k:-1]) for k in range(self.length))

    def descents(self) -> frozenset[int]:
        return frozenset(accumulate(self.parts[:-1]))

    def conjugate(self) -> "Composition":
        """Reflection of the ribbon in the main diagonal.

        Complement the descent set inside {1, ..., d-1}, then reverse.
        """
        cuts = sorted(set(range(1, self.degree)) - self.descents()) + [self.degree]
        return Composition([b - a for a, b in zip([0] + cuts, cuts)][::-1])

    def concat(self, other: "Composition") -> "Composition":
        return Composition(self.parts + other.parts)

    def fuse(self, other: "Composition") -> "Composition":
        """I |> J: last part of I absorbs the first part of J."""
        return Composition(
            self.parts[:-1] + (self.parts[-1] + other.parts[0],) + other.parts[1:]
        )

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    __repr__ = __str__


def all_compositions(degree: int) -> list[Composition]:
    """Compositions of a positive degree, lexicographically; none for 0."""
    return [Composition(w) for w in compositions_of(degree)] if degree else []


@cache
def ribbon_shifted(I: Composition, K: tuple[int, ...], base: ParamSequence) -> NCElement:
    """R_I^[K] over the sequence base in the S-basis: the Hessenberg expansion
    along its first row, the rows below it read as the memoized ribbon of a
    suffix,

        R_I^[K] = sum_{m=1..n} (-1)^(m-1) S_{i_1+...+i_m}^[k_1] R_{I_m}^[K_m]

    where I_m = (i_{m+1}, ..., i_n), K_m = (k_{m+1}, ..., k_n) and R of the
    empty composition is 1.  So the table holds I and every proper suffix, and
    the recursion is as deep as I is long."""
    n = I.length
    if len(K) != n:
        raise ValueError("shift vector length must match the composition")
    parts = I.parts
    pairs = []
    for m, d in enumerate(accumulate(parts), 1):
        head = shift_S(d, K[0], base)
        tail = ribbon_shifted(Composition(parts[m:]), K[m:], base) if m < n else NCElement.one()
        pairs.append((head if m % 2 else -head, tail))
    return NCElement.sum_of_products(pairs, add)


def ribbon(I: Composition) -> NCElement:
    """R_I at the canonical shifts."""
    return ribbon_shifted(I, I.row_shifts(), SEQ_A)


def ribbon_uniform(I: Composition, s: int, base: ParamSequence = SEQ_A) -> NCElement:
    """R_I^[s]: the canonical shifts moved uniformly by s (= phi^[s] of R_I)."""
    K = tuple(x + s for x in I.row_shifts())
    return ribbon_shifted(I, K, base)


# -- the ribbon basis ----------------------------------------------------------


class RibbonElement(LinComb):
    """Finite map (composition, shift vector) -> nonzero ParamPoly."""

    __slots__ = ()
    _sort_key = staticmethod(lambda key: (sum(key[0]), key))

    @staticmethod
    def single(I: Composition, K: tuple[int, ...] | None = None, coeff=1) -> "RibbonElement":
        K = I.row_shifts() if K is None else tuple(K)
        return RibbonElement({(I.parts, K): ParamPoly.coerce(coeff)})

    def to_json(self) -> dict:
        return {
            "basis": "R",
            "terms": [
                {"comp": list(comp), "shifts": list(K), "coeff": c.to_json()}
                for (comp, K), c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data) -> "RibbonElement":
        def key(item):
            comp, K = Composition(json_ints(item["comp"])).parts, json_ints(item["shifts"])
            if len(K) != len(comp):
                raise ValueError("shift vector length must match the composition")
            return comp, K

        return RibbonElement._from_json(data, key)

    def integer_coefficients(self, sub) -> bool:
        """Whether every coefficient evaluates to an integer under sub."""
        return all(c.substitute(sub).denominator == 1 for c in self.terms.values())

    def _show_ribbons(self, coeff, name: str, tag: str, wrap: str) -> str:
        """Each term as wrap % its coefficient text (left out when that is
        "1"), name % its parts, and tag % its shifts unless they are canonical."""

        def term(key, c):
            comp, K = key
            text = name % ",".join(map(str, comp))
            if Composition(comp).row_shifts() != K:
                text += tag % ",".join(map(str, K))
            cs = coeff(c)
            return text if cs == "1" else wrap % cs + text

        return self._show(term)

    def __str__(self) -> str:
        return self._show_ribbons(str, "R(%s)", "^[%s]", "(%s)*")

    __repr__ = __str__

    def latex(self) -> str:
        return self._show_ribbons(ParamPoly.latex, "R_{(%s);a}", "^{[%s]}", "\\left(%s\\right) ")


def from_ribbon_basis(x: RibbonElement) -> NCElement:
    return NCElement.linear(x, lambda key: ribbon_shifted(Composition(key[0]), key[1], SEQ_A))


def to_ribbon_basis(x: NCElement) -> RibbonElement:
    """Triangular elimination against leading words in the elimination order."""
    out = {}
    rest = x
    while not rest.is_zero():
        w = rest.leading_word()
        if not w:
            raise ValueError("element has a constant term; not in the ribbon span")
        I = Composition(w)
        c = rest.terms[w]
        # each leading word is strictly smaller than the last, so no key repeats
        out[I.parts, I.row_shifts()] = c
        rest = rest - ribbon(I).scale(c)
    return RibbonElement._of(out)


# -- product and duality formulas ----------------------------------------------


def macmahon_product(I: Composition, J: Composition) -> RibbonElement:
    """Right-hand side of the shifted MacMahon formula.

    For len(J) >= 2 both terms carry canonical shifts; for J = (j_1) the
    fused term is shifted uniformly by the last part of I.
    """
    IJ = I.concat(J)
    IfJ = I.fuse(J)
    if J.length >= 2:
        return RibbonElement.single(IJ) + RibbonElement.single(IfJ)
    i_n = I.parts[-1]
    K = tuple(x + i_n for x in IfJ.row_shifts())
    return RibbonElement.single(IJ) + RibbonElement.single(IfJ, K)


def macmahon_left_shift(I: Composition, J: Composition) -> int:
    """The uniform shift applied to R_I on the left-hand side."""
    if J.length >= 2:
        return J.degree - J.parts[-1] + I.parts[-1]
    return I.parts[-1]


def nagelsbach_form(I: Composition) -> NCElement:
    """R_I^[i_n - 1] computed through the conjugate elementary expansion.

    With I~ = (j_1, ..., j_m) and u = reversed(I~), the (p,q) entry of the
    Hessenberg matrix is Lambda_{u_p + ... + u_q}^[t_q] where
    t_q = j_1 + ... + j_{m-q}.
    """
    conj = I.conjugate().parts
    m = len(conj)
    u = conj[::-1]
    return hessenberg_quasidet(
        m, lambda p, q: shift_Lambda(sum(u[p - 1 : q]), sum(conj[: m - q]))
    )


def duality_shift(I: Composition) -> int:
    """Uniform shift w with omega(R_I) = R_{I~}^[w] over the dual sequence.

    The corollary as printed says j_m - d_J + i_n; the verified value carries
    an extra -1 (already visible on I = (2): omega(S_2) is Lambda_2 dual,
    i.e. the conjugate ribbon at canonical shifts, whereas the printed value
    would shift it by one).
    """
    conj = I.conjugate()
    return conj.parts[-1] - conj.degree + I.parts[-1] - 1
