"""Shift coefficients and shifted generators.

The bracket coefficient

    {l nu}_k^b = sum over 1 <= s_1 < ... < s_nu <= l of
                 prod_i (b_{k+(nu-i)+s_i} - b_{s_i})

controls every re-expansion between shifted-power denominator bases.  The
shifted complete homogeneous generators have the closed forms (s >= 0)

    S_k^[s]  = sum_nu {s nu}_{k-nu}^{tau^{-s} b}        S_{k-nu}
    S_k^[-s] = sum_nu {nu+s-1 nu}_{1-k}^{tau^{k-nu} b}  S_{k-nu}

both triangular with unit leading coefficient.  The elementary generators
need no forms of their own: the duality omega sends S_k^[s] over a sequence
to Lambda_k^[-s] over its dual, so Lambda_k^[s] over Lambda-letters is
S_k^[-s] over the dual sequence, and families reads it from shift_S.

The shift automorphism phi^[s] sends S_k to S_k^[s] multiplicatively.  On
coefficients it acts by re-indexing the parameters, a_i -> a_{i-s}: this is
the unique extension under which phi^[s] o phi^[t] = phi^[s+t], phi^[s] maps
the elementary family to its shifts, and the ribbon shift notation R^[K+s]
agrees with phi^[s] applied to R^[K].  With coefficients held fixed instead, already
phi^[1](phi^[-1](S_2)) = S_2 + (2a_1 - a_0 - a_2) S_1 fails to return S_2.
"""

from __future__ import annotations

from functools import cache

from .algebra import NCElement, apply_letters
from .params import SEQ_A, ParamPoly, ParamSequence


@cache
def a_binomial(l: int, nu: int, k: int, seq: ParamSequence = SEQ_A) -> ParamPoly:
    """The coefficient {l nu}_k over the given parameter sequence.

    Equals 1 for nu = 0 and vanishes when nu exceeds l.  Splitting the sum
    on whether s_nu = l gives {l nu}_k = {l-1 nu}_k + (b_{k+l} - b_l)
    {l-1 nu-1}_{k+1}; it is summed here from {nu-1 nu}_k = 0 up to l, so the
    recursion depth is nu, whatever the shift.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0:
        return ParamPoly.one()
    total = ParamPoly.zero()
    for j in range(nu, l + 1):
        total = total + (seq.term(k + j) - seq.term(j)) * a_binomial(j - 1, nu - 1, k + 1, seq)
    return total


@cache
def shift_S(k: int, s: int, base: ParamSequence = SEQ_A) -> NCElement:
    """S_k^[s] expanded in the S-basis: the coefficient of S_{k-nu} is the closed form above."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return NCElement.one()
    if s >= 0:
        coeffs = (a_binomial(s, nu, k - nu, base.tau(-s)) for nu in range(k))
    else:
        coeffs = (a_binomial(nu - s - 1, nu, 1 - k, base.tau(k - nu)) for nu in range(k))
    return NCElement({(k - nu,): c for nu, c in enumerate(coeffs)})


def phi_shift(x: NCElement, s: int) -> NCElement:
    """The algebra map phi^[s]: letters via shift_S, coefficients re-indexed."""
    if s == 0:
        return x
    # on coefficients phi^[s] is the sequence move a -> tau^{-s} a read on the indices of a
    return apply_letters(x.map_coefficients(lambda c: c.tau(-s)), shift_S, args=(s,))
