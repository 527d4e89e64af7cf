"""Ribbons: the basis, the two-term product formula, and duality.

Ribbon functions R_I are Hessenberg quasideterminants in shifted generators;
they form a basis with triangular leading words, multiply by a two-term
rule, and the duality anti-isomorphism sends them to shifted ribbons of the
conjugate shape over the dual parameter sequence.
"""

from ncshift import (
    Composition,
    NCElement,
    duality_shift,
    from_ribbon_basis,
    macmahon_product,
    omega,
    ribbon_uniform,
    to_ribbon_basis,
)
from ncshift.params import SEQ_AHAT
from ncshift.ribbon import macmahon_left_shift, ribbon

S = NCElement.gen
C = Composition

I = C((2, 1))
print(f"R_{I} = {ribbon(I)}")
print()

print("A product, expanded and re-collected in the ribbon basis:")
x = ribbon(C((1, 1))) * S(2)
print(f"  Lambda_2 * S_2 = {to_ribbon_basis(x)}")
print()

I, J = C((2, 1)), C((1, 2))
w = macmahon_left_shift(I, J)
lhs = ribbon_uniform(I, w) * ribbon(J)
rhs = macmahon_product(I, J)
print(f"Two-term product rule at I={I}, J={J} (left factor shifted by {w}):")
print(f"  R_I^[{w}] R_J = {rhs}")
print(f"  expands identically: {lhs == from_ribbon_basis(rhs)}")
print()

I = C((2, 2, 1))
J = I.conjugate()
w = duality_shift(I)
print(f"Conjugate of {I} is {J}; omega(R_I) = R_J^[{w}] over the dual sequence:")
print(f"  verified: {omega(ribbon(I)) == ribbon_uniform(J, w, SEQ_AHAT)}")
