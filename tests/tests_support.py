"""Shared helpers for the test suite, and the reference formulas only tests use."""

import random
from fractions import Fraction

from ncshift.algebra import NCElement, complete_homogeneous
from ncshift.params import SEQ_A, ParamPoly, ParamSequence
from ncshift.ribbon import Composition, RibbonElement
from ncshift.series import TruncatedTSeries
from ncshift.special import VariableAssignment, evaluate_nc, s_spec
from ncshift.shifts import shift_S


def random_element(rng: random.Random, max_degree=6, terms=3) -> NCElement:
    """A small random Q[a]-combination of words of bounded degree."""
    out = NCElement.zero()
    for _ in range(rng.randint(1, terms)):
        d = rng.randint(0, max_degree)
        w = []
        while d > 0:
            k = rng.randint(1, d)
            w.append(k)
            d -= k
        c = ParamPoly.const(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
        if rng.random() < 0.5:
            c = c * ParamPoly.gen(rng.randint(-2, 2))
        out = out + NCElement({tuple(w): c})
    return out


def elementary(values: list[ParamPoly], n: int) -> list[ParamPoly]:
    """[e_0, e_1, ..., e_n] of the given values; e_k = 0 past the list length."""
    es = [ParamPoly.one()] + [ParamPoly.zero()] * n
    for v in values:
        for i in range(min(n, len(values)), 0, -1):
            es[i] = es[i] + v * es[i - 1]
    return es


def project_shifted_closed_form(n: int) -> NCElement:
    """The printed elementary-symmetric closed form for S_{n;a}:
    sum_i (-1)^i e_i(a_1, ..., a_{n-1}) S_{n-i}."""
    es = elementary(SEQ_A.values(n - 1), n)
    out = NCElement.zero()
    for i in range(n):
        c = es[i] if i % 2 == 0 else -es[i]
        out = out + NCElement.gen(n - i).scale(c)
    return out


def generalized_macmahon_rhs(
    I: Composition, K: tuple[int, ...], J: Composition, L: tuple[int, ...]
) -> RibbonElement:
    """R_{I.J}^[K,L] + R_{I|>J}^[K, l_2..l_m]."""
    return RibbonElement.single(I.concat(J), K + L) + RibbonElement.single(
        I.fuse(J), K + L[1:]
    )


def phi_psi_relation_defect(k: int, assignment: VariableAssignment):
    """psi S_k(x) - phi^[1] S_k(x) - n c S_{k-1}(x) (the two shifts compared)."""
    n = assignment.n
    c = assignment.c
    lhs = s_spec(k, assignment.shift_all(1))
    phi = evaluate_nc(shift_S(k, 1), assignment)
    return lhs - phi - s_spec(k - 1, assignment).scale(n * c)


def reexpand(series: TruncatedTSeries, target: ParamSequence | None) -> TruncatedTSeries:
    """The same series over another denominator basis, up to the order."""
    plain = series.to_plain()
    if target is None:
        return plain
    # triangular solve: c_k = p_k - sum_{m<k} c_m h_{k-m}(b_1..b_m)
    values = target.values(series.order)
    out: dict[int, NCElement] = {}
    for k in range(1, series.order + 1):
        acc = plain.coeff(k)
        for m in range(1, k):
            prev = out.get(m)
            if prev is None:
                continue
            h = complete_homogeneous(values[:m], k - m)[k - m]
            acc = acc - prev.scale(h)
        if not acc.is_zero():
            out[k] = acc
    return TruncatedTSeries(series.order, plain.constant, out, target)
