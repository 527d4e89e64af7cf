"""Golden outputs: the sha256 of canonical JSON for fixed inputs.

The digests were captured before the sparse container and the letter map were
shared between the element classes; they pin that every expansion,
conversion, coproduct, antipode, shift and duality image is unchanged byte for
byte.  The `latex` digest was captured before ParamPoly became a LinComb; it
pins both printers, which read the coefficients' sorted terms.  The
`hessenberg` digest was captured before the Hessenberg quasideterminant took
its entries as a function of (i, j); it pins every caller of that engine
directly, not only through identities.  The `printers` digest was captured
before the signed-sum text format moved into LinComb; it pins str, repr,
pretty and latex of every element class, coefficient signs and fractions
included.  The `lambda-side` digest was captured while the elementary side
had its own shift coefficients and triangular solve, before it was derived
from the complete side through omega; it pins the shifted elementary
generators over both sequences and the rewrite of S-words over Lambda-letters.
Each group hashes the concatenation of its outputs, in a fixed order.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ncshift.algebra import NCElement
from ncshift.cli import main
from ncshift import families
from ncshift.hopf import antipode, coproduct
from ncshift.families import (
    all_words,
    compositions_of,
    lambda_in_S,
    psi,
    s_to_lambda,
    s_to_psi,
)
from ncshift.params import SEQ_AHAT, ParamPoly
from ncshift.ribbon import (
    Composition,
    RibbonElement,
    macmahon_product,
    nagelsbach_form,
    omega,
    ribbon,
    ribbon_uniform,
    to_ribbon_basis,
)
from ncshift.shifts import a_binomial, phi_shift, shift_S

GOLDEN = {
    "expand-ribbon": "bd4722e7466e90e4e1f8c7c60a75025005a1fdc93ac1a7da1ed5a31e12c44507",
    "expand-psi": "acab051d31f1879b0774a2a4ed18406e3cc50b58afbea274e858cddfef2b53df",
    "expand-lambda-shift-1": "d8d3e2d070a67ff828304243d96c71530e6edc8d3f2f4c8cde57c3fe82456987",
    "convert-words": "3b9f866bb386e0d0be604973d42818e769752eec0116d9fef82cac9f88ac8761",
    "coproduct": "ebac4dc235ee798b7bcf5d75c060e384cd69cc36f4a67fcceb2726dee7b79d8d",
    "antipode": "70500aa3100fca6c34816d5779238838985fdf947a0ffb709ed6c8b952799681",
    "phi-shift": "98f099d92bf4542bf9eeaccf17eed1accd67b88d6d4c2c157978e84681b080a7",
    "omega-ribbon": "3bf2238423693c923ffd54cb20552864dfe3ba7bfadb13ceb566bef2ab7a7d2a",
    "latex": "36f47fa239090d39230c4d1985b9bd8c3d8587c33467a0890c2d5a520ea9de1c",
    "hessenberg": "f4726815e6cbe9a5b0721bc12d32f700f30192d2766d8b7e39b6ad3b53c3c960",
    "printers": "c904538d7b19a3f404c830fa601bce56676542f904a54879f024620544ae6b50",
    "lambda-side": "a99ce8d662316dcdd762f10955384d67892fe1016304f5d3e56f34d0bdae3fa1",
}

HESSENBERG_FAMILIES = (
    "lambda_by_quasidet",
    "s_in_lambda",
    "translation_psi_from_s",
    "translation_psi_from_lambda",
    "translation_s_from_psi",
    "translation_lambda_from_psi",
)


def _printer_inputs():
    """(ParamPoly, NCElement, RibbonElement, tensor) values covering every
    coefficient rule of the printers: zero, 1, -1, fractions, single- and
    multi-term, non-constant, squared and signed indices."""
    a = ParamPoly.gen
    polys = [
        ParamPoly.zero(), ParamPoly.one(), -ParamPoly.one(), ParamPoly.const(Fraction(1, 3)),
        ParamPoly.const(Fraction(-5, 2)), a(1), -a(1), 2 * a(-1), Fraction(-1, 3) * a(2) ** 2,
        a(1) * a(1) * a(3) - a(0) + Fraction(1, 2), a_binomial(3, 2, 1), a_binomial(2, 1, -1, SEQ_AHAT),
    ]
    words = [(1,), (2, 1), (1, 1, 2)]
    elements = [NCElement.zero(), NCElement.one(), NCElement.scalar(-1)]
    elements.append(NCElement.scalar(a(1) - 1) - NCElement.gen(1))
    elements += [NCElement.word(w).scale(c) for w in words for c in polys[1:]]
    elements += [shift_S(k, s) for k in (1, 2, 3) for s in (-1, 1)]
    elements += [lambda_in_S(3), s_to_psi(NCElement.gen(3)), s_to_psi(shift_S(2, 1))]
    ribbons = [RibbonElement(), to_ribbon_basis(lambda_in_S(3) * NCElement.gen(1))]
    ribbons += [macmahon_product(Composition(I), Composition(J))
                for I, J in (((1,), (2,)), ((2, 1), (1,)), ((1,), (1, 2)))]
    ribbons += [RibbonElement.single(Composition(I), K, c)
                for I, K in (((2,), None), ((1, 2), (0, 0)), ((2, 1, 1), (3, -1, 0)))
                for c in polys[1:]]
    tensors = [coproduct(x) for x in (NCElement.zero(), NCElement.one())]
    tensors += [coproduct(NCElement.gen(k)) for k in range(1, 4)] + [coproduct(-psi(2))]
    tensors += [coproduct(shift_S(2, 1)), coproduct(NCElement.word((1, 2)).scale(a(1) - 1))]
    return polys, elements, ribbons, tensors


def _comps(max_degree):
    return [w for d in range(1, max_degree + 1) for w in compositions_of(d)]


def _cli(argv, capsys):
    code = main(argv)
    out, _ = capsys.readouterr()
    return f"{code}\n{out}"


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True) + "\n"


def _outputs(group, tmp_path, capsys):
    if group == "expand-ribbon":
        for w in _comps(5):
            yield _cli(["expand", "--ribbon", ",".join(map(str, w))], capsys)
    elif group == "expand-psi":
        for n in range(1, 6):
            yield _cli(["expand", "--psi", str(n)], capsys)
    elif group == "expand-lambda-shift-1":
        for n in range(1, 6):
            yield _cli(["expand", "--lambda", str(n), "--shift", "1"], capsys)
    elif group == "convert-words":
        src = tmp_path / "word.json"
        for w in all_words(4):
            src.write_text(json.dumps(NCElement.word(w).to_json("S")))
            for target in ("L", "Psi", "R"):
                yield _cli(["convert", "--to", target, "--input", str(src)], capsys)
    elif group == "coproduct":
        for k in range(1, 5):
            yield _dump(coproduct(NCElement.gen(k)).to_json())
    elif group == "antipode":
        for k in range(1, 5):
            yield _dump(antipode(NCElement.gen(k)).to_json())
    elif group == "phi-shift":
        for k in range(1, 5):
            for s in (1, -1):
                yield _dump(phi_shift(NCElement.gen(k), s).to_json())
    elif group == "latex":
        for w in _comps(4):
            yield _cli(["expand", "--ribbon", ",".join(map(str, w)), "--format", "latex"], capsys)
        src = tmp_path / "word.json"
        for w in all_words(3):
            src.write_text(json.dumps(NCElement.word(w).to_json("S")))
            for target in ("L", "Psi", "R"):
                argv = ["convert", "--to", target, "--input", str(src), "--format", "latex"]
                yield _cli(argv, capsys)
    elif group == "omega-ribbon":
        for w in _comps(4):
            yield _dump(omega(ribbon(Composition(w))).to_json())
    elif group == "hessenberg":
        for name in HESSENBERG_FAMILIES:
            for n in range(1, 7):
                yield _dump(getattr(families, name)(n).to_json())
        for w in _comps(5):
            yield _dump(nagelsbach_form(Composition(w)).to_json())
        for s in (-1, 2):
            for w in _comps(4):
                yield _dump(ribbon_uniform(Composition(w), s, SEQ_AHAT).to_json())
    elif group == "printers":
        polys, elements, ribbons, tensors = _printer_inputs()
        for p in polys:
            yield f"{p}\n{p!r}\n{p.latex()}\n"
        for x in elements:
            yield f"{x}\n{x!r}\n"
            for letter, tag in (("S", "a"), ("L", "ahat"), ("\\Psi", "a")):
                # the digest was captured while latex took the family tag
                # after ";" as a parameter; it is now always a
                latex = x.latex(letter).replace(";a}", f";{tag}}}")
                yield f"{x.pretty(letter)}\n{latex}\n"
        for r in ribbons:
            yield f"{r}\n{r!r}\n{r.latex()}\n"
        for t in tensors:
            yield f"{t}\n{t!r}\n"
    elif group == "lambda-side":
        for k in range(6):
            for s in range(-3, 4):
                yield _cli(["expand", "--lambda", str(k), "--shift", str(s)], capsys)
                # Lambda_k^[s] over a-hat is omega(S_k^[-s])
                yield _dump(omega(shift_S(k, -s)).to_json())
        for w in all_words(5):
            yield _dump(s_to_lambda(NCElement.word(w)).to_json("L"))
        # S-words over a-hat Lambda-letters: omega over a-hat, every word reversed
        for w in all_words(5):
            dual = omega(NCElement.word(w), SEQ_AHAT)
            yield _dump(NCElement({u[::-1]: c for u, c in dual.terms.items()}).to_json("L"))


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden_digest(group, tmp_path, capsys):
    h = hashlib.sha256()
    for text in _outputs(group, tmp_path, capsys):
        h.update(text.encode())
    assert h.hexdigest() == GOLDEN[group]
