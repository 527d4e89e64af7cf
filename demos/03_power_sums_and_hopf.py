"""Power sums as free generators and the Hopf structure they induce.

The shifted power sums are alternating hook-ribbon combinations; rewriting
into them needs denominators 1/n but gives a generating set on which the
coproduct is simply primitive.
"""

from ncshift import NCElement, coproduct, antipode, counit, psi
from ncshift.families import s_to_psi, psi_words_to_s, wronski_newton_failures

S = NCElement.gen

for n in (1, 2, 3):
    print(f"Psi_{n} = {psi(n)}")
print()

print("S_3 rewritten over Psi-letters (note the thirds):")
print(f"  {s_to_psi(S(3)).pretty('Psi')}")
print(f"  round trip exact: {psi_words_to_s(s_to_psi(S(3))) == S(3)}")
print()

print("Wronski and Newton identities:")
for n in (2, 4, 6):
    print(f"  degree {n}: {not any(wronski_newton_failures(n))}")
print()

print("Coproduct with primitive power sums:")
print(f"  Delta(S_2) = {coproduct(S(2))}")
print(f"  Delta(S_3) = {coproduct(S(3))}")
print(f"  counit(S_2) = {counit(S(2))}")
print(f"  antipode(Psi_2) = {antipode(psi(2))}")
