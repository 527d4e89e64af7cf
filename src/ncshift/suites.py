"""Named identity suites.

Each suite runs one block of the acceptance surface and returns a
machine-readable report: a list of cases with ids, pass flags, and a witness
naming the first failing coefficient or matrix entry.  Cases whose id ends in
"-printed" assert a displayed equation of the source material verbatim; where
such an equation is a misprint, the faithful case fails and a sibling
"-corrected" case records the identity that actually holds; the acceptance
test docstrings carry the analysis.  Reports are deterministic: cases are
serialized sorted by id, and all randomness is seeded.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb

from .algebra import NCElement
from .families import (
    all_words,
    check_lineareq,
    lambda_by_quasidet,
    lambda_in_S,
    lambda_words_to_s,
    psi,
    s_in_lambda,
    shift_Lambda,
    verify_translations,
    verify_wronski_newton,
)
from .hopf import TensorElement, convolution_defect, coproduct, counit
from .params import SEQ_A, SEQ_AHAT, LinComb, ParamPoly, ParamSubstitution, accumulate
from .quasidet import (
    ExhaustedRetries,
    MatValue,
    SingularMinor,
    first_nonsingular,
    hessenberg_quasidet,
    random_mat,
    verify_bazin,
)
from .ribbon import (
    Composition,
    all_compositions,
    duality_shift,
    from_ribbon_basis,
    macmahon_left_shift,
    macmahon_product,
    nagelsbach_form,
    omega,
    ribbon,
    ribbon_shifted,
    ribbon_uniform,
    to_ribbon_basis,
)
from .series import defining_relation_defect, lambda_series_at_minus_t, sigma_series
from .shifts import a_binomial, shift_S
from .special import (
    VariableAssignment,
    check_extension,
    check_shifted_symmetry,
    commutative_recovery,
    evaluate_nc,
    falling,
    frobenius_form,
    giambelli_check,
    lambda_spec,
    quasi_schur_lambda_form,
    quasi_schur_spec,
    random_assignment,
    s_spec,
    swap_variables,
    variable_shift_defect,
)


#: witness of a randomized case whose every draw hit a singular minor
NO_SAMPLE = "no sample was evaluated: every draw was singular"


@dataclass
class Case:
    id: str
    passed: bool
    witness: str | None = None


@dataclass
class Report:
    suite: str
    cases: list[Case] = field(default_factory=list)
    seed: int = 0

    def add(self, id: str, passed: bool, witness: str | None = None):
        self.cases.append(Case(id, bool(passed), witness if not passed else None))

    def check_nc(self, id: str, got: LinComb, want: LinComb):
        self.add(id, got == want, nc_witness(got, want))

    def first(self, id: str, failures: Iterable[str]):
        """Record id from a lazy stream of failure witnesses.

        The case passes when the stream is empty; otherwise it fails with the
        first witness, and nothing past that witness is computed.
        """
        witness = next(iter(failures), None)
        self.add(id, witness is None, witness)

    def check_rows(self, id: str, rows: Iterable[tuple]):
        """Record id from (label, got, want) rows; it fails at the first got != want."""
        self.first(id, (f"{lab}: {nc_witness(got, w)}" for lab, got, w in rows if got != w))

    def check_pair(self, id: str, rows: Iterable[tuple]):
        """Record id-printed and id-corrected from (label, got, printed, corrected) rows."""
        rows = list(rows)
        self.check_rows(f"{id}-printed", ((lab, got, p) for lab, got, p, _ in rows))
        self.check_rows(f"{id}-corrected", ((lab, got, c) for lab, got, _, c in rows))

    def sampled(self, id: str, points: Iterable, empty: str = NO_SAMPLE):
        """Record a randomized case from its points, in order.

        A point is None when it was skipped as singular, else the list of its
        failure witnesses.  The case fails with the first witness, or with the
        empty witness when every point was skipped: it has checked nothing.
        """

        def failures():
            evaluated = False
            for found in points:
                if found is not None:
                    evaluated = True
                    yield from found
            if not evaluated:
                yield empty

        self.first(id, failures())

    @property
    def passed(self) -> bool:
        """A report with no case has checked nothing and does not pass."""
        return bool(self.cases) and all(c.passed for c in self.cases)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [
                {"id": c.id, "pass": c.passed, "witness": c.witness}
                for c in sorted(self.cases, key=lambda c: c.id)
            ],
            "seed": self.seed,
        }


def nc_witness(got: LinComb, want: LinComb) -> str | None:
    """The first key, in the serialization order, where got and want differ."""
    diff = got - want
    if diff.is_zero():
        return None
    w = diff.sorted_terms()[0][0]
    zero = ParamPoly.zero()
    return f"word {w}: got {got.terms.get(w, zero)}, expected {want.terms.get(w, zero)}"


def mat_witness(got: MatValue, want: MatValue) -> str | None:
    for i in range(got.n):
        for j in range(got.n):
            if got.data[i][j] != want.data[i][j]:
                return (
                    f"entry ({i + 1},{j + 1}): got {got.data[i][j]}, "
                    f"expected {want.data[i][j]}"
                )
    return None


EXAMPLE_SUBS = {
    "a=0": ParamSubstitution.equidistant(0, 0),
    "a=i-1": ParamSubstitution.equidistant(1, -1),
    "a=i-1/2": ParamSubstitution.equidistant(Fraction(1, 2), Fraction(-1, 2)),
}


# -- individual suites ---------------------------------------------------------


def suite_defining_relation(degree: int = 8, seed: int = 0) -> Report:
    rep = Report("defining-relation", seed=seed)
    t0 = time.monotonic()
    defects = defining_relation_defect(degree)
    rep.add(
        f"defining-relation-N{degree}",
        not defects,
        None if not defects else f"first defect at key {min(defects)}",
    )
    rep.add("runtime-under-30s", time.monotonic() - t0 < 30.0, "too slow")
    # mutation control: perturbing Lambda_2 must break the 1/t^2 coefficient
    lam = lambda_series_at_minus_t(4)
    lam.coeffs[2] = lam.coeffs.get(2, NCElement.zero()) + NCElement.gen(1)
    bad = lam.multiply(sigma_series(4).to_plain())
    mutated_fails = any(
        not bad.coeff(k).is_zero() for k in range(1, 5)
    ) or not (bad.constant - NCElement.one()).is_zero()
    rep.add("mutation-detected", mutated_fails, "perturbation went unnoticed")
    return rep


def suite_base_change(degree: int = 8, seed: int = 0) -> Report:
    rep = Report("base-change", seed=seed)
    for n in range(degree + 1):
        rep.check_nc(f"lineareq-n{n}", check_lineareq(n), NCElement.zero())
    for n in range(1, min(degree, 7) + 1):
        rep.check_nc(f"jacobi-trudi-n{n}", lambda_by_quasidet(n), lambda_in_S(n))
        rep.check_nc(
            f"inverse-jacobi-trudi-n{n}",
            lambda_words_to_s(s_in_lambda(n)),
            NCElement.gen(n),
        )
    return rep


def suite_shift_coefficients(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("shift-coefficients", seed=seed)
    r = range(degree + 1)
    rep.first("symmetry-lemma", (
        f"(i,n,nu)=({i},{n},{nu})"
        for i in r for n in r for nu in range(1, min(i, n) + 1)
        if a_binomial(i - 1, nu, n - nu) != a_binomial(n - 1, nu, i - nu)
    ))

    def falling_form(l: int, nu: int, k: int) -> Fraction:
        return comb(l, nu) * falling(Fraction(k + nu - 1), nu)

    subs = [(c, ParamSubstitution.equidistant(c, 0)) for c in map(Fraction, (0, 1, "1/2"))]
    rep.first("equidistant-closed-form", (
        f"c={c} (l,nu,k)=({l},{nu},{k})"
        for c, sub in subs for l in r for nu in r for k in range(-2, degree + 1)
        if a_binomial(l, nu, k).substitute(sub) != c**nu * falling_form(l, nu, k)
    ))
    sub = EXAMPLE_SUBS["a=i-1"]
    rep.first("falling-power-example", (
        f"(s,nu,k)=({s},{nu},{k})"
        for s in r for nu in r for k in r
        if a_binomial(s, nu, k).substitute(sub) != falling_form(s, nu, k)
    ))
    return rep


def suite_macmahon(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("macmahon", seed=seed)
    # basis round trip on all R_I with d_I <= degree
    rep.first("ribbon-basis-round-trip", (
        f"I={I}"
        for d in range(1, degree + 1) for I in all_compositions(d)
        if to_ribbon_basis(ribbon(I)).terms != {(I.parts, I.row_shifts()): ParamPoly.one()}
    ))
    # products against plain multiplication
    rep.check_rows("product-formula", (
        (
            f"I={I} J={J}",
            ribbon_uniform(I, macmahon_left_shift(I, J)) * ribbon(J),
            from_ribbon_basis(macmahon_product(I, J)),
        )
        for dI in range(1, degree) for dJ in range(1, degree + 2 - dI)
        for I in all_compositions(dI) for J in all_compositions(dJ)
    ))

    a = ParamPoly.gen
    S = NCElement.gen

    def hook_comp(k: int, last: int) -> Composition:
        return Composition((1,) * k + (last,))

    def lambda_s_rows():
        # Lambda_k S_l example line
        for k in range(1, degree):
            for l in range(1, degree + 1 - k):
                printed = ribbon(hook_comp(k, l)) + ribbon_uniform(hook_comp(k - 1, l + 1), 1)
                if k >= 2:
                    printed = printed + (
                        ribbon(hook_comp(k - 1, l)) + ribbon(hook_comp(k - 2, l + 1))
                    ).scale(a(1) - a(k))
                corrected = (
                    ribbon(hook_comp(k, l))
                    + ribbon(hook_comp(k - 1, l + 1))
                    + ribbon(hook_comp(k - 1, l)).scale(a(l) - a(1 - k))
                )
                yield f"k={k} l={l}", lambda_in_S(k) * S(l), printed, corrected

    def s_s_rows():
        # S_k S_l example line
        for k in range(2, degree):
            for l in range(1, degree + 1 - k):
                printed = NCElement.zero()
                corrected = NCElement.zero()
                for nu in range(k):
                    term = ribbon(Composition((k - nu, l))) + shift_S(k - nu + l, k - nu)
                    printed = printed + term.scale(
                        a_binomial(nu + k - 1, nu, 1 - k, SEQ_A.tau(k - nu))
                    )
                    corrected = corrected + term.scale(a_binomial(k - 1, nu, -k))
                yield f"k={k} l={l}", S(k) * S(l), printed, corrected

    def lambda_lambda_rows():
        # Lambda_k Lambda_l example line
        for k in range(1, degree - 1):
            for l in range(2, degree + 1 - k):
                printed = NCElement.zero()
                corrected = NCElement.zero()
                for nu in range(k):
                    body = lambda_in_S(k - nu + l) + ribbon(
                        Composition((1,) * (k - nu - 1) + (2,) + (1,) * (l - 1))
                    )
                    printed = printed + body.scale(
                        a_binomial(l, nu, k - nu, SEQ_AHAT.tau(-l))
                    )
                    corrected = corrected + body.scale(a_binomial(l, nu, k - nu, SEQ_AHAT))
                yield f"k={k} l={l}", lambda_in_S(k) * lambda_in_S(l), printed, corrected

    rep.check_pair("example-lambda-s", lambda_s_rows())
    rep.check_pair("example-s-s", s_s_rows())
    rep.check_pair("example-lambda-lambda", lambda_lambda_rows())
    return rep


def suite_duality(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("duality", seed=seed)
    rep.first("omega-involution", (
        f"k={k}"
        for k in range(1, 9)
        if omega(omega(NCElement.gen(k)), SEQ_AHAT) != NCElement.gen(k)
    ))

    def corollary_rows():
        for d in range(1, degree + 1):
            for I in all_compositions(d):
                J, w = I.conjugate(), duality_shift(I)
                yield (
                    f"I={I}",
                    omega(ribbon(I)),
                    ribbon_uniform(J, w + 1, SEQ_AHAT),
                    ribbon_uniform(J, w, SEQ_AHAT),
                )

    rep.check_pair("corollary-shift", corollary_rows())
    # the worked (2,2,3,2) illustration
    I = Composition((2, 2, 3, 2))
    lhs = omega(ribbon(I))
    printed = ribbon_shifted(
        Composition((1, 3, 2, 2, 1)), (1, 0, -3, -5, -7), SEQ_AHAT
    )
    rep.check_nc("example-2232-printed", lhs, printed)
    corrected = ribbon_uniform(I.conjugate(), duality_shift(I), SEQ_AHAT)
    rep.check_nc("example-2232-corrected", lhs, corrected)
    return rep


def suite_nagelsbach(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("nagelsbach", seed=seed)
    rep.check_rows("dual-jacobi-trudi", (
        (f"I={I}", nagelsbach_form(I), ribbon_uniform(I, I.parts[-1] - 1))
        for d in range(1, degree + 1) for I in all_compositions(d)
    ))

    def printed(m):
        return hessenberg_quasidet(len(m), lambda i, j: m[i - 1][j - 1])

    L = shift_Lambda
    # the printed (2,1,1) matrix
    m211 = [
        [L(1, 3), L(4, 0)],
        [None, L(3, 0)],
    ]
    rep.check_nc("example-211", printed(m211), ribbon(Composition((2, 1, 1))))
    # the printed (1,3,2,1) matrix
    m1321 = [
        [L(2, 5), L(3, 4), L(5, 2), L(7, 0)],
        [None, L(1, 4), L(3, 2), L(5, 0)],
        [None, None, L(2, 2), L(4, 0)],
        [None, None, None, L(2, 0)],
    ]
    rep.check_nc(
        "example-1321", printed(m1321), ribbon_uniform(Composition((1, 3, 2, 1)), 0)
    )
    return rep


def suite_wronski_newton(degree: int = 8, seed: int = 0) -> Report:
    rep = Report("wronski-newton", seed=seed)
    S = NCElement.gen
    rep.check_nc("psi-1", psi(1), S(1))
    rep.check_nc("psi-1-lambda", psi(1), lambda_in_S(1))
    rep.check_nc(
        "psi-2",
        psi(2),
        shift_S(2, 1).scale(Fraction(2)) - shift_Lambda(1, 1) * S(1),
    )
    rep.check_nc("psi-2-short", psi(2), shift_S(2, 1) - lambda_in_S(2))
    rep.check_nc(
        "psi-3",
        psi(3),
        shift_S(3, 2).scale(Fraction(3))
        - (shift_Lambda(1, 2) * shift_S(2, 1)).scale(Fraction(2))
        + shift_Lambda(2, 1) * S(1),
    )
    rep.check_nc(
        "psi-3-ribbon",
        psi(3),
        shift_S(3, 2) - ribbon_uniform(Composition((1, 2)), 1) + lambda_in_S(3),
    )
    for n in range(1, degree + 1):
        ok, witness = verify_wronski_newton(n)
        rep.add(f"wronski-newton-n{n}", ok, witness or None)
    return rep


def suite_translation(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("translation", seed=seed)
    for n in range(1, degree + 1):
        ok, witness = verify_translations(n)
        rep.add(f"translation-n{n}", ok, witness or None)
    return rep


def suite_hopf(degree: int = 5, seed: int = 0) -> Report:
    rep = Report("hopf", seed=seed)
    t0 = time.monotonic()
    S = NCElement.gen
    one = ParamPoly.one()
    a = ParamPoly.gen
    d2 = coproduct(S(2))
    want2 = TensorElement({((2,), ()): one, ((1,), (1,)): one, ((), (2,)): one})
    rep.add("delta-s2-printed", d2 == want2, "Delta(S_2) differs")
    d3 = coproduct(S(3))
    corr = ParamPoly.const(Fraction(1, 3)) * (a(-1) - a(0)) + (a(1) - a(2))
    base3 = {
        ((3,), ()): one,
        ((2,), (1,)): one,
        ((1,), (2,)): one,
        ((), (3,)): one,
    }
    printed3 = TensorElement(
        base3 | {((1,), (1,)): ParamPoly.const(Fraction(4, 3)) * (a(0) - a(1))}
    )
    corrected3 = TensorElement(base3 | {((1,), (1,)): corr})
    rep.check_nc("delta-s3-printed-symbolic", d3, printed3)
    rep.add("delta-s3-corrected-symbolic", d3 == corrected3, "Delta(S_3) differs")
    excess = (d3 - printed3).terms.values()
    ok = all(not c.substitute(sub) for sub in EXAMPLE_SUBS.values() for c in excess)
    rep.add("delta-s3-printed-equidistant", ok, "mismatch under example substitutions")

    words = [w for w in all_words(degree) if w]

    def coassociative(w) -> bool:
        d = coproduct(NCElement.word(w))
        return _tensor3(d, True) == _tensor3(d, False)

    def counital(w) -> bool:
        x = NCElement.word(w)
        l = r = NCElement.zero()
        for (w1, w2), c in coproduct(x).terms.items():
            e1, e2 = NCElement.word(w1), NCElement.word(w2)
            l = l + e2.scale(counit(e1) * c)
            r = r + e1.scale(counit(e2) * c)
        return l == x and r == x

    rng = random.Random(seed)
    degs = [w for w in words if sum(w) <= max(1, degree - 1)]

    def morphism_failures():
        for _ in range(12):
            w1 = rng.choice(degs)
            w2 = rng.choice([w for w in degs if sum(w) + sum(w1) <= degree])
            x, y = NCElement.word(w1), NCElement.word(w2)
            if coproduct(x * y) != coproduct(x) * coproduct(y):
                yield f"pair {w1}, {w2}"

    rep.first("coassociativity", (f"word {w}" for w in words if not coassociative(w)))
    rep.first("counit-laws", (f"word {w}" for w in words if not counital(w)))
    rep.first("algebra-morphism", morphism_failures())
    rep.first("antipode-convolutions", (
        f"word {w}"
        for w in words
        if not all(side.is_zero() for side in convolution_defect(NCElement.word(w)))
    ))
    rep.add("runtime-under-60s", time.monotonic() - t0 < 60.0, "too slow")
    return rep


def _tensor3(d: TensorElement, left: bool) -> dict:
    """(Delta x id)(d) if left is set, else (id x Delta)(d), keyed by word triples."""
    out: dict = {}
    for (w1, w2), c in d.terms.items():
        for (u1, u2), c2 in coproduct(NCElement.word(w1 if left else w2)).terms.items():
            accumulate(out, (u1, u2, w2) if left else (w1, u1, u2), c * c2)
    return out


def _sample_assignment(rng: random.Random, n: int, d: int, check=lambda A: A):
    """check(A) at the first point A where S_k, Lambda_k (k <= min(n, 2)) and
    check itself evaluate, drawn through first_nonsingular.

    A draw counts only when every evaluation succeeds: one that raises
    SingularMinor part-way is dropped whole, for the next draw.
    """

    def evaluated(A):
        s_spec(min(n, 2), A)
        lambda_spec(min(n, 2), A)
        return check(A)

    return first_nonsingular((random_assignment(rng, n, d) for _ in count()), evaluated)


def _first_sample(seed: int, n: int, d: int, check):
    """check(A) at the first usable point drawn from seed; None when every draw is singular."""
    try:
        return _sample_assignment(random.Random(seed), n, d, check)
    except ExhaustedRetries:
        return None


def _swaps_broken(expansion: NCElement, A) -> list[int]:
    """The i whose swap of x_i and x_{i+1} changes the value of expansion at A."""
    value = evaluate_nc(expansion, A)
    return [i for i in range(1, A.n) if evaluate_nc(expansion, swap_variables(A, i)) != value]


def suite_specialization(degree: int = 4, seed: int = 0) -> Report:
    rep = Report("specialization", seed=seed)
    rng = random.Random(seed or 20240)
    sub = EXAMPLE_SUBS["a=i-1"]

    def n2_failures(d: int) -> list[str] | None:
        x1, x2 = random_mat(rng, d), random_mat(rng, d)
        I = MatValue.identity(d)
        failed = []  # a pair that hits a singular minor is skipped whole, as in _sample_assignment
        try:
            A1 = VariableAssignment((x1,), sub)
            if s_spec(1, A1) != x1 or lambda_spec(1, A1) != x1:
                failed.append(f"n=1 d={d}")
            A2 = VariableAssignment((x1, x2), sub)
            den = (x2 - x1 - I).inverse()
            s1 = (x2 * (x2 - I) - (x1 + I) * x1) * den
            if s_spec(1, A2) != s1 or lambda_spec(1, A2) != s1:
                failed.append(f"S1/L1 n=2 d={d}")
            l2 = (x2 * (x2 - I) - x1 * x2) * ((x1 + I).inverse() * x2 - I).inverse()
            if lambda_spec(2, A2) != l2:
                failed.append(f"L2 d={d}")
            s2 = (x2 * (x2 - I) * (x2 - 2 * I) - (x1 + I) * x1 * (x1 - I)) * den
            if s_spec(2, A2) != s2:
                failed.append(f"S2 d={d}")
        except SingularMinor:
            return None
        return failed

    rep.sampled("printed-n2-formulas", (n2_failures(d) for d in (1, 2, 3) for _ in range(3)))

    s_claim = (
        "S_{k} of {n} variables is nonzero (e.g. S_2(x_1) = <x_1|a>^2); the defining "
        "series forces this, so the claimed vanishing holds for the elementary family only"
    )
    for id, spec, witness in (
        ("vanishing-lambda", lambda_spec, "Lambda_{k} of {n} variables"),
        ("vanishing-s-printed", s_spec, s_claim),
    ):
        rep.sampled(id, (
            _first_sample(seed + 31 * n + d, n, d, lambda A: [
                witness.format(k=k, n=n) for k in (n + 1, n + 2) if not spec(k, A).is_zero()
            ])
            for n in range(1, degree + 1) for d in (1, 2, 3)
        ), NO_SAMPLE if degree else "no n in 1..degree to check at degree 0")
    rep.sampled("variable-shift-law", (
        _first_sample(seed + 101 * n + k, n, 2, lambda A: (
            [] if variable_shift_defect(k, A).is_zero() else [f"n={n} k={k}"]
        ))
        for n in (2, 3) for k in range(1, n + 1)
    ))
    return rep


def _held(group: str, held: bool | None) -> list[str]:
    """The failure point of a strict group: no witness when it held."""
    if held is None:
        return [f"{group}: no nonsingular sample"]
    return [] if held else [group]


def suite_symmetry(degree: int = 4, seed: int = 0) -> Report:
    rep = Report("symmetry", seed=seed)
    rep.sampled("shifted-symmetry", (
        _held(f"n={n} k={k} i={i}", _first_sample(
            seed + 1009 * n + 31 * k + i, n, 2, lambda A: check_shifted_symmetry(k, A, i)
        ))
        for n in range(2, degree + 1) for k in range(1, min(degree, 4) + 1) for i in range(1, n)
    ), "no (n, k, i) with n >= 2 to check")
    # ribbon specializations inherit the symmetry
    rep.sampled("ribbon-symmetry", (
        _first_sample(seed + 7 * d_I + n + sum(I.parts), n, 2, lambda A: [
            f"I={I} n={n} i={i}" for i in _swaps_broken(ribbon(I), A)
        ])
        for d_I in range(1, 5) for I in all_compositions(d_I) for n in (2, 3)
    ))
    return rep


def suite_extension(degree: int = 3, seed: int = 0) -> Report:
    rep = Report("extension", seed=seed)
    rep.sampled("extension-stability", (
        _held(f"n={n} k={k}", _first_sample(
            seed + 77 * n + 13 * k, n, 2, lambda A: check_extension(k, A)
        ))
        for n in range(1, degree + 1) for k in range(1, degree + 1)
    ), "no (n, k) to check at degree 0")
    return rep


def suite_recovery(degree: int = 4, seed: int = 0) -> Report:
    rep = Report("recovery", seed=seed)

    def group(n: int, k: int) -> list[str]:
        # seeded per group, so a higher degree re-checks the lower groups' points
        rng = random.Random((seed or 4321) + 1013 * n + 37 * k)
        points = ([Fraction(rng.randint(-9, 12), rng.choice([1, 2, 3])) for _ in range(n)]
                  for _ in count())
        try:
            return first_nonsingular(points, lambda scalars: (
                [] if commutative_recovery(k, n, scalars) else [f"n={n} k={k} at {scalars}"]
            ))
        except ExhaustedRetries:
            return [f"n={n} k={k}: no usable sample"]

    rep.sampled("determinant-quotient-oracle", (
        group(n, k) for n in range(1, degree + 1) for k in range(1, degree + 1)
    ), "no (n, k) to check at degree 0")
    return rep


def suite_giambelli(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("giambelli", seed=seed)
    try:
        A = _sample_assignment(random.Random(seed + 5550), 4, 2)
    except ExhaustedRetries as e:
        for id in ("quasi-schur-row-column", "conjugate-112-13", "giambelli-rank-le-2"):
            rep.add(id, False, str(e))
        return rep

    def row_column_failures():
        for k in range(1, 4):
            try:
                if quasi_schur_spec((k,), A) != s_spec(k, A):
                    yield f"row shape ({k},)"
                if quasi_schur_spec((1,) * k, A) != lambda_spec(k, A):
                    yield f"column shape (1^{k})"
            except SingularMinor:
                yield f"singular at k={k}"

    rep.first("quasi-schur-row-column", row_column_failures())
    try:
        lhs = quasi_schur_spec((1, 1, 2), A)
        rhs = quasi_schur_lambda_form((1, 3), A)
        rep.add(
            "conjugate-112-13",
            lhs == rhs,
            mat_witness(lhs, rhs),
        )
    except SingularMinor as e:
        rep.add("conjugate-112-13", False, f"singular: {e}")
    # partitions of 2..degree, parts increasing, of Frobenius rank <= 2
    parts = {tuple(sorted(I.parts)) for m in range(2, degree + 1) for I in all_compositions(m)}
    shapes = [s for s in sorted(parts) if len(frobenius_form(s)[0]) <= 2]

    def shape_failures(shape) -> list[str] | None:
        try:
            return [] if giambelli_check(shape, A) else [f"shape {shape}"]
        except SingularMinor:
            return None

    rep.sampled(
        "giambelli-rank-le-2",
        map(shape_failures, shapes),
        NO_SAMPLE if shapes else "no shape of size 2..degree to check",
    )
    return rep


def suite_bazin(degree: int = 3, seed: int = 0) -> Report:
    rep = Report("bazin", seed=seed)
    base_seed = seed or 97531

    def failures(variant: str, n: int, k: int, d: int):
        note = ""
        if variant == "printed" and d > 1 and k > 1:
            note = (
                "; the displayed reading fails for "
                "noncommuting entries, see the corrected variant"
            )
        for s in range(10):
            try:
                if not verify_bazin(n, k, d, base_seed + 7919 * s, variant=variant):
                    yield f"seed offset {s}{note}"
            except ExhaustedRetries as e:
                yield f"{e}{note}"

    for variant in ("printed", "corrected"):
        for n in range(1, degree + 1):
            for k in range(1, n + 1):
                for d in (1, 2):
                    rep.first(f"bazin-{variant}-n{n}-k{k}-d{d}", failures(variant, n, k, d))
    return rep


SUITES = {
    "defining-relation": suite_defining_relation,
    "base-change": suite_base_change,
    "shift-coefficients": suite_shift_coefficients,
    "macmahon": suite_macmahon,
    "duality": suite_duality,
    "nagelsbach": suite_nagelsbach,
    "wronski-newton": suite_wronski_newton,
    "translation": suite_translation,
    "hopf": suite_hopf,
    "specialization": suite_specialization,
    "symmetry": suite_symmetry,
    "extension": suite_extension,
    "recovery": suite_recovery,
    "giambelli": suite_giambelli,
    "bazin": suite_bazin,
}


def run_suite(name: str, degree: int | None = None, seed: int = 0) -> Report:
    """Run a suite; without a degree, at the default of its signature."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if degree is None:
        return SUITES[name](seed=seed)
    return SUITES[name](degree=degree, seed=seed)
