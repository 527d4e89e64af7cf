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
from itertools import chain, count
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
    translation_failures,
    wronski_newton_failures,
)
from .hopf import TensorElement, convolution_defect, coproduct, counit, word_coproduct
from .params import SEQ_A, SEQ_AHAT, LinComb, ParamPoly, ParamSubstitution
from .quasidet import (
    ExhaustedRetries,
    MatValue,
    bazin_holds,
    bazin_matrix,
    first_nonsingular,
    hessenberg_quasidet,
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
from .series import defining_relation_defect, lambda_series_at_minus_t, sigma_series, unit_defect
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
        passed = got == want
        self.add(id, passed, None if passed else nc_witness(got, want))

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

    def rng(self, id: str, label: str = "") -> random.Random:
        """The random stream of group label of case id, one per (suite, seed, case,
        label): the same at every degree and, seeded by a str, in every process."""
        return random.Random(f"{self.suite}/{self.seed}/{id}/{label}")

    def sampled(self, id: str, groups: Iterable[tuple], empty: str = "nothing to check"):
        """Record a randomized case from its (label, points, check) groups, in order.

        Each group draws points(self.rng(id, label)) through first_nonsingular:
        check at its first point that is not singular gives the group's
        failure witnesses, or a bool where False stands for [label].  Labels
        are unique within a case.  A group whose every draw is singular fails
        under its label.  The case fails with the first witness, or with the
        empty witness when it has no group: it has checked nothing.
        """

        def failures():
            checked = False
            for label, points, check in groups:
                checked = True
                try:
                    found = first_nonsingular(points(self.rng(id, label)), check)
                except ExhaustedRetries as e:
                    found = [f"{label}: {e}"]
                if isinstance(found, bool):
                    found = [] if found else [label]
                yield from found
            if not checked:
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
    """The first entry, row by row, where got and want differ."""
    for i, (g_row, w_row) in enumerate(zip(got.data, want.data), 1):
        for j, (g, w) in enumerate(zip(g_row, w_row), 1):
            if g != w:
                return f"entry ({i},{j}): got {g}, expected {w}"
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
    lam.coeffs[2] = lam.coeff(2) + NCElement.gen(1)
    mutated_fails = bool(unit_defect(lam.multiply(sigma_series(4))))
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

    a = SEQ_A.term
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
        shift_S(2, 1).scale(2) - shift_Lambda(1, 1) * S(1),
    )
    rep.check_nc("psi-2-short", psi(2), shift_S(2, 1) - lambda_in_S(2))
    rep.check_nc(
        "psi-3",
        psi(3),
        shift_S(3, 2).scale(3)
        - (shift_Lambda(1, 2) * shift_S(2, 1)).scale(2)
        + shift_Lambda(2, 1) * S(1),
    )
    rep.check_nc(
        "psi-3-ribbon",
        psi(3),
        shift_S(3, 2) - ribbon_uniform(Composition((1, 2)), 1) + lambda_in_S(3),
    )
    for n in range(1, degree + 1):
        rep.first(f"wronski-newton-n{n}", wronski_newton_failures(n))
    return rep


def suite_translation(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("translation", seed=seed)
    for n in range(1, degree + 1):
        rep.first(f"translation-n{n}", translation_failures(n))
    return rep


def suite_hopf(degree: int = 5, seed: int = 0) -> Report:
    rep = Report("hopf", seed=seed)
    t0 = time.monotonic()
    S = NCElement.gen
    one = ParamPoly.one()
    a = SEQ_A.term
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
        d = word_coproduct(w)
        return _tensor3(d, True) == _tensor3(d, False)

    def counital(w) -> bool:
        # (eps x id) and (id x eps) of Delta(w), each leg's counit at the other leg
        d, x = word_coproduct(w), NCElement.word(w)
        l = NCElement.linear(d, lambda k: NCElement({k[1]: counit(NCElement.word(k[0]))}))
        r = NCElement.linear(d, lambda k: NCElement({k[0]: counit(NCElement.word(k[1]))}))
        return l == x and r == x

    rng = rep.rng("algebra-morphism")
    degs = [w for w in words if sum(w) <= max(1, degree - 1)]

    def morphism_failures():
        if degree < 2:
            yield f"no pair of words of total degree <= {degree} to check"
            return
        for _ in range(12):
            w1 = rng.choice(degs)
            w2 = rng.choice([w for w in degs if sum(w) + sum(w1) <= degree])
            x, y = NCElement.word(w1), NCElement.word(w2)
            if coproduct(x * y) != coproduct(x) * coproduct(y):
                yield f"pair {w1}, {w2}"

    def antipodal(w) -> bool:
        return all(side.is_zero() for side in convolution_defect(NCElement.word(w)))

    def word_failures(holds):
        if not words:
            yield f"no nonempty word of degree <= {degree} to check"
        yield from (f"word {w}" for w in words if not holds(w))

    rep.first("coassociativity", word_failures(coassociative))
    rep.first("counit-laws", word_failures(counital))
    rep.first("algebra-morphism", morphism_failures())
    rep.first("antipode-convolutions", word_failures(antipodal))
    rep.add("runtime-under-60s", time.monotonic() - t0 < 60.0, "too slow")
    return rep


def _tensor3(d: TensorElement, left: bool) -> LinComb:
    """(Delta x id)(d) if left is set, else (id x Delta)(d), keyed by word triples."""
    # one coproduct per distinct word it splits, times the sum of its partners
    split: dict = {}
    for (w1, w2), c in d.terms.items():
        w, partner = (w1, w2) if left else (w2, w1)
        split.setdefault(w, {})[partner] = c
    join = (lambda k, u: (*k, u)) if left else (lambda k, u: (u, *k))
    pairs = ((word_coproduct(w), LinComb._of(partners)) for w, partners in split.items())
    return LinComb.sum_of_products(pairs, join)


def _draws(n: int, d: int, check) -> tuple:
    """The points and check of a Report.sampled group: random points of n
    d x d variables drawn from the group's rng, and check behind S_k,
    Lambda_k (k <= min(n, 2)).

    A draw counts only when every evaluation succeeds: one that raises
    SingularMinor part-way is dropped whole, for the next draw.
    """

    def evaluated(A):
        s_spec(min(n, 2), A)
        lambda_spec(min(n, 2), A)
        return check(A)

    return lambda rng: (random_assignment(rng, n, d) for _ in count()), evaluated


def _swaps_broken(expansion: NCElement, A) -> list[int]:
    """The i whose swap of x_i and x_{i+1} changes the value of expansion at A."""
    value = evaluate_nc(expansion, A)
    return [i for i in range(1, A.n) if evaluate_nc(expansion, swap_variables(A, i)) != value]


def suite_specialization(degree: int = 4, seed: int = 0) -> Report:
    rep = Report("specialization", seed=seed)

    def n2_check(A2) -> list[str]:
        x1, x2 = A2.vars
        d = A2.d
        I = MatValue.identity(d)
        failed = []
        A1 = VariableAssignment((x1,), A2.sub)
        if s_spec(1, A1) != x1 or lambda_spec(1, A1) != x1:
            failed.append(f"n=1 d={d}")
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
        return failed

    rep.sampled("printed-n2-formulas", (
        (f"d={d} draw {i}", *_draws(2, d, n2_check)) for d in (1, 2, 3) for i in range(3)
    ))

    s_claim = (
        "S_{k} of {n} variables is nonzero (e.g. S_2(x_1) = <x_1|a>^2); the defining "
        "series forces this, so the claimed vanishing holds for the elementary family only"
    )
    for id, spec, witness in (
        # Lambda_k rebuilt from the S values: lambda_spec is zero for k > n by definition
        ("vanishing-lambda", lambda k, A: evaluate_nc(lambda_in_S(k), A),
         "Lambda_{k} of {n} variables"),
        ("vanishing-s-printed", s_spec, s_claim),
    ):
        rep.sampled(id, (
            (f"n={n} d={d}", *_draws(n, d, lambda A: [
                witness.format(k=k, n=n) for k in (n + 1, n + 2) if not spec(k, A).is_zero()
            ]))
            for n in range(1, degree + 1) for d in (1, 2, 3)
        ), "no n in 1..degree to check at degree 0")
    rep.sampled("variable-shift-law", (
        (f"n={n} k={k}", *_draws(n, 2, lambda A: variable_shift_defect(k, A).is_zero()))
        for n in (2, 3) for k in range(1, n + 1)
    ))
    return rep


def suite_symmetry(degree: int = 4, seed: int = 0) -> Report:
    rep = Report("symmetry", seed=seed)
    rep.sampled("shifted-symmetry", (
        (f"n={n} k={k} i={i}", *_draws(n, 2, lambda A: check_shifted_symmetry(k, A, i)))
        for n in range(2, degree + 1) for k in range(1, min(degree, 4) + 1) for i in range(1, n)
    ), "no (n, k, i) with n >= 2 to check")
    # ribbon specializations inherit the symmetry
    rep.sampled("ribbon-symmetry", (
        (f"I={I} n={n}", *_draws(
            n, 2, lambda A: [f"I={I} n={n} i={i}" for i in _swaps_broken(ribbon(I), A)]
        ))
        for d_I in range(1, 5) for I in all_compositions(d_I) for n in (2, 3)
    ))
    return rep


def suite_extension(degree: int = 3, seed: int = 0) -> Report:
    rep = Report("extension", seed=seed)
    rep.sampled("extension-stability", (
        (f"n={n} k={k}", *_draws(n, 2, lambda A: check_extension(k, A)))
        for n in range(1, degree + 1) for k in range(1, degree + 1)
    ), "no (n, k) to check at degree 0")
    return rep


def suite_recovery(degree: int = 4, seed: int = 0) -> Report:
    rep = Report("recovery", seed=seed)

    def group(n: int, k: int) -> tuple:
        def points(rng):
            return ([Fraction(rng.randint(-9, 12), rng.choice([1, 2, 3])) for _ in range(n)]
                    for _ in count())

        return f"n={n} k={k}", points, lambda scalars: (
            [] if commutative_recovery(k, n, scalars) else [f"n={n} k={k} at {scalars}"]
        )

    rep.sampled("determinant-quotient-oracle", (
        group(n, k) for n in range(1, degree + 1) for k in range(1, degree + 1)
    ), "no (n, k) to check at degree 0")
    return rep


def suite_giambelli(degree: int = 6, seed: int = 0) -> Report:
    rep = Report("giambelli", seed=seed)
    shared = []  # A, the first point a group accepts: every later group starts there

    def at_shared(label: str, check) -> tuple:
        points, evaluated = _draws(4, 2, check)

        def kept(A):
            found = evaluated(A)
            if not shared:
                shared.append(A)
            return found

        return label, lambda rng: chain(shared, points(rng)), kept

    def row_column(A) -> list[str]:
        return [w for k in range(1, 4) for w, got, want in (
            (f"row shape ({k},)", quasi_schur_spec((k,), A), s_spec(k, A)),
            (f"column shape (1^{k})", quasi_schur_spec((1,) * k, A), lambda_spec(k, A)),
        ) if got != want]

    def conjugate(A) -> list[str]:
        witness = mat_witness(quasi_schur_spec((1, 1, 2), A), quasi_schur_lambda_form((1, 3), A))
        return [witness] if witness else []

    rep.sampled("quasi-schur-row-column", [at_shared("shapes (k,), (1^k) for k <= 3", row_column)])
    rep.sampled("conjugate-112-13", [at_shared("shapes (1, 1, 2), (1, 3)", conjugate)])
    # partitions of 2..degree, parts increasing, of Frobenius rank <= 2
    parts = {tuple(sorted(I.parts)) for m in range(2, degree + 1) for I in all_compositions(m)}
    shapes = [s for s in sorted(parts) if len(frobenius_form(s)[0]) <= 2]
    rep.sampled("giambelli-rank-le-2", (
        at_shared(f"shape {s}", lambda A: giambelli_check(s, A)) for s in shapes
    ), "no shape of size 2..degree to check")
    return rep


def suite_bazin(degree: int = 3, seed: int = 0) -> Report:
    rep = Report("bazin", seed=seed)
    misprint = "; the displayed reading fails for noncommuting entries, see the corrected variant"
    cases = [(variant, n, k, d) for variant in ("printed", "corrected")
             for n in range(1, degree + 1) for k in range(1, n + 1) for d in (1, 2)]
    for variant, n, k, d in cases:
        note = misprint if variant == "printed" and d > 1 and k > 1 else ""
        rep.sampled(f"bazin-{variant}-n{n}-k{k}-d{d}", (
            (f"seed offset {s}", lambda rng: (bazin_matrix(rng, n, d) for _ in count()),
             lambda A: [] if bazin_holds(A, k, variant) else [f"seed offset {s}{note}"])
            for s in range(10)
        ))
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
