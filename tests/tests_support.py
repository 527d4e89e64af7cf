"""Shared helpers for the test suite, and the reference formulas only tests use."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from operator import add

from ncshift.algebra import NCElement, complete_homogeneous
from ncshift.families import psi, psi_words_to_s, s_to_psi
from ncshift.hopf import TensorElement
from ncshift.params import (
    SEQ_A,
    MissingIndex,
    ParamPoly,
    ParamSequence,
    accumulate,
    exponents,
    monomial,
    signed,
)
from ncshift.quasidet import MatValue, block_quasidet, hessenberg_quasidet
from ncshift.ribbon import Composition, RibbonElement, ribbon_shifted
from ncshift.series import TruncatedTSeries
from ncshift.special import VariableAssignment, evaluate_nc, falling, s_spec
from ncshift.shifts import shift_S


def random_element(rng: random.Random, max_degree=6, terms=3, monomials=1) -> NCElement:
    """A small random Q[a]-combination of words of bounded degree, each
    coefficient a sum of `monomials` random terms c or c*a_i, with c in
    (1/6)Z; the draws for monomials=1 are those of one such term."""
    out = NCElement.zero()
    for _ in range(rng.randint(1, terms)):
        d = rng.randint(0, max_degree)
        w = []
        while d > 0:
            k = rng.randint(1, d)
            w.append(k)
            d -= k
        c = ParamPoly.zero()
        for _ in range(monomials):
            m = ParamPoly.const(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
            if rng.random() < 0.5:
                m = m * ParamPoly.gen(rng.randint(-2, 2))
            c = c + m
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


def reexpand(series: TruncatedTSeries, target: ParamSequence) -> dict[int, NCElement]:
    """The nonzero coefficients c_k of the series over the shifted powers of
    target b: series = sum_k c_k/((t-b_1)...(t-b_k)) for k = 0..order."""
    # triangular solve: c_k = p_k - sum_{m<k} c_m h_{k-m}(b_1..b_m)
    values = target.values(series.order)
    out: dict[int, NCElement] = {}
    for k in range(series.order + 1):
        acc = series.coeff(k)
        for m, prev in out.items():
            h = complete_homogeneous(values[:m], k - m)[k - m]
            acc = acc - prev.scale(h)
        if not acc.is_zero():
            out[k] = acc
    return out


# -- plain-Fraction reference for MatValue: lists of lists of Fractions --------


def ref_sum(a, b, sign=1):
    """a + sign b, entrywise."""
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scalar(n, c):
    """c times the n x n identity."""
    return [[Fraction(c) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def ref_product(a, b):
    """The product of rectangular matrices, entry by entry."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def ref_solve(num, rhs):
    """(det num, num^{-1} rhs) by Gauss-Jordan elimination over Fraction, for
    a square num and rows rhs beside it; the solve is None if num is singular."""
    n = len(num)
    aug = [[Fraction(x) for x in (*row, *r)] for row, r in zip(num, rhs)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def ref_inverse(a):
    """Gauss-Jordan inverse over Fraction, or None if a is singular."""
    n = len(a)
    return ref_solve(a, [[int(i == j) for j in range(n)] for i in range(n)])[1]


def ref_det(a):
    """Determinant by Gauss-Jordan elimination over Fraction."""
    return ref_solve(a, [()] * len(a))[0]


def ref_bazin_holds(A, k: int, variant: str) -> bool:
    """quasidet.bazin_holds with every quasiminor its own block_quasidet call."""
    n = len(A[0])

    def quasiminor(rows, pos):
        return block_quasidet([A[i - 1] for i in rows], pos, n)

    B = [[quasiminor(list(range(i, i + n - 1)) + [n + j], n) for j in range(1, k + 1)]
         for i in range(1, k + 1)]
    lhs = block_quasidet(B, 1, k) if variant == "printed" else block_quasidet([*zip(*B)], k, 1)
    rows1 = list(range(k, n)) + list(range(n + 1, n + k + 1))
    f1 = quasiminor(rows1, len(rows1))
    rows2 = list(range(k, n + k))
    f2 = quasiminor(rows2, rows2.index(n) + 1)
    f3 = quasiminor(list(range(1, n + 1)), n)
    return lhs == f1 * f2.inverse() * f3


#: the Fraction pool random matrices were drawn from before their entries
#: became numerators over 2
REF_RANDOM_POOL = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]


def ref_random_mat(rng: random.Random, d: int) -> MatValue:
    """quasidet.random_mat as a d x d matrix of Fractions drawn from REF_RANDOM_POOL."""
    return MatValue([[rng.choice(REF_RANDOM_POOL) for _ in range(d)] for _ in range(d)])


def ref_commutative_oracle(family: str, k: int, scalars: list) -> Fraction:
    """special.commutative_oracle with every entry its own falling power: the
    ratio of determinants of falling(x_j + n - j, m) over Fraction, None
    where the denominator vanishes."""
    n = len(scalars)
    if k == 0:
        return Fraction(1)
    if family == "L" and k > n:
        return Fraction(0)
    ys = [Fraction(x) + n - j for j, x in enumerate(scalars, start=1)]
    if family == "S":
        exps = list(range(n - 1)) + [n + k - 1]
    else:
        exps = [m for m in range(n + 1) if m != n - k]
    den = ref_det([[falling(y, m) for y in ys] for m in range(n)])
    if den == 0:
        return None
    return ref_det([[falling(y, m) for y in ys] for m in exps]) / den


def ref_flatten(blocks):
    """The matrix of square Fraction blocks as one matrix, row by row."""
    return [[x for blk in brow for x in blk[r]] for brow in blocks for r in range(len(brow[0]))]


def ref_block_quasidet(blocks, p, q):
    """|A|_{pq} of a matrix of square Fraction blocks, from the defining formula
    a_pq - row (minor^{-1} col) on the flattened blocks; None if the minor is singular."""
    n = len(blocks)

    def flat(rows, cols):
        return ref_flatten([[blocks[i][j] for j in cols] for i in rows])

    rows = [i for i in range(n) if i != p - 1]
    cols = [j for j in range(n) if j != q - 1]
    corner = blocks[p - 1][q - 1]
    if n == 1:
        return corner
    inv = ref_inverse(flat(rows, cols))
    if inv is None:
        return None
    solved = ref_product(inv, flat(rows, [q - 1]))
    return ref_sum(corner, ref_product(flat([p - 1], cols), solved), -1)


def ref_evaluate_nc(x: NCElement, assignment: VariableAssignment) -> MatValue:
    """special.evaluate_nc term by term: each word's value starts from its
    coefficient times the identity, and each is added to the running sum."""
    d = assignment.d
    out = MatValue.zeros(d)
    for w, c in x.substitute(assignment.sub).items():
        acc = MatValue.scalar(d, c)
        for k in w:
            acc = acc * s_spec(k, assignment)
        out = out + acc
    return out


def ref_hessenberg_quasidet(n, entry, subdiag=None):
    """quasidet.hessenberg_quasidet one product at a time, generic over its
    entries: NCElements, or MatValue blocks over a subdiagonal of multiples
    of the identity.  Each row's sum copies the running sum once per pair."""
    subdiag = [1] * (n - 1) if subdiag is None else subdiag
    scale = [Fraction(1), Fraction(1)] + [1 / Fraction(c) for c in subdiag]

    def scaled(i, j):
        e = entry(i, j)
        return e.scale(scale[i]) if scale[i] != 1 else e

    tail = {}
    for i in range(n, 0, -1):
        acc = scaled(i, n)
        for m in range(i, n):
            acc = acc - scaled(i, m) * tail[m + 1]
        tail[i] = acc
    return tail[1] if n % 2 else -tail[1]


def ref_ribbon_shifted(I: Composition, K: tuple, base: ParamSequence) -> NCElement:
    """R_I^[K] as the Hessenberg quasideterminant of its full matrix, whose
    (p, q) entry is S_{i_p+...+i_q}^[k_p] over base."""
    return hessenberg_quasidet(
        I.length, lambda p, q: shift_S(sum(I.parts[p - 1 : q]), K[p - 1], base)
    )


# -- tuple-monomial reference for ParamPoly --------------------------------------
#
# A polynomial as a dict from the sorted tuple of a monomial's factor indices
# (a_1^2 a_3 is (1, 1, 3)) to its coefficient: the product of two monomials is
# their sorted concatenation, and the (index, exponent) form is read off the
# tuple only to print it.


def factors(m: int) -> tuple[int, ...]:
    """The factor indices of a monomial in increasing order, each index
    repeated by its exponent: (1, 1, 3) for a_1^2 a_3."""
    return tuple(i for i, e in exponents(m) for _ in range(e))


def factor_terms(p: ParamPoly) -> dict:
    """The rational coefficients of p keyed by the decoded factor tuple of
    each monomial."""
    return {factors(m): Fraction(c, p.den) for m, c in p.terms.items()}


def from_factor_terms(terms: dict) -> ParamPoly:
    """The ParamPoly of a dict keyed by sorted factor tuples."""
    return ParamPoly({monomial(Counter(f).items()): c for f, c in terms.items()})


def ref_poly_sum(p: dict, q: dict) -> dict:
    """p + q on factor-tuple dicts."""
    out = dict(p)
    for f, c in q.items():
        accumulate(out, f, c)
    return out


def ref_scale(p: dict, r: Fraction) -> dict:
    """r p on a factor-tuple dict."""
    return {f: r * c for f, c in p.items()} if r else {}


def ref_monomial_product(p: dict, q: dict) -> dict:
    """p*q on factor-tuple dicts, each monomial product summed through accumulate."""
    out: dict = {}
    for m1, a in p.items():
        for m2, b in q.items():
            accumulate(out, tuple(sorted(m1 + m2)), a * b)
    return out


def ref_tau(p: dict, s: int) -> dict:
    """a_i -> a_{i+s} on a factor-tuple dict."""
    return {tuple(i + s for i in f): c for f, c in p.items()}


def ref_hat(p: ParamPoly) -> ParamPoly:
    """The dual-parameter map a_i -> -a_{-i+1}; an involution."""
    return from_factor_terms(
        {tuple(1 - i for i in reversed(f)): (-1) ** len(f) * c for f, c in factor_terms(p).items()}
    )


def ref_index_value(sub, i: int) -> Fraction:
    """a_i under sub, over Fraction: base + i c, or the table's entry."""
    if sub.kind == "equidistant":
        return sub.base + i * sub.c
    table = dict(sub.table)
    if i not in table:
        raise MissingIndex(i)
    return table[i]


def ref_substitute(p: dict, sub) -> Fraction:
    """The value of a factor-tuple dict under a substitution, factor by factor."""
    return sum((c * prod(sub.index_value(i) for i in f) for f, c in p.items()), Fraction(0))


def ref_degree(p: dict) -> int:
    return max(map(len, p), default=-1)


def ref_sorted_terms(p: dict) -> list:
    """The terms in serialization order: graded, then lex on the factor tuples."""
    return sorted(p.items(), key=lambda t: (-len(t[0]), t[0]))


def ref_to_json(p: dict) -> list:
    return [{"c": str(c), "e": {str(i): e for i, e in Counter(f).items()}} for f, c in ref_sorted_terms(p)]


def ref_from_json(data) -> dict:
    """The factor-tuple dict of a JSON term list."""
    out: dict = {}
    for item in data:
        f = tuple(sorted(int(i) for i, e in item["e"].items() for _ in range(e)))
        accumulate(out, f, Fraction(item["c"]))
    return out


def _ref_show(p: dict, term) -> str:
    """The printed signed sum of term(f, c) over a factor-tuple dict in
    serialization order."""
    return " + ".join(term(f, c) for f, c in ref_sorted_terms(p)).replace("+ -", "- ") or "0"


def ref_str(p: dict) -> str:
    def term(f, c):
        body = "*".join(f"a[{i}]" + (f"^{e}" if e > 1 else "") for i, e in Counter(f).items())
        return signed(str(c), body, f"{c}*{body}") if body else str(c)

    return _ref_show(p, term)


def ref_latex(p: dict) -> str:
    def term(f, c):
        body = " ".join(f"a_{{{i}}}" + (f"^{{{e}}}" if e > 1 else "") for i, e in Counter(f).items())
        cl = str(c.numerator) if c.denominator == 1 else (
            f"{'-' if c < 0 else ''}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
        )
        return signed(cl, body, f"{cl} {body}") if body else cl

    return _ref_show(p, term)


# -- nested-product reference for sums of products over Q[a] -------------------
#
# Each product of two coefficients is a fresh ParamPoly, built one monomial
# pair at a time, and each is added to the running sum through accumulate:
# the per-pair path that the package's single accumulator replaces.


def ref_poly_product(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    """p*q, each monomial product summed through accumulate."""
    return from_factor_terms(ref_monomial_product(factor_terms(p), factor_terms(q)))


def ref_sum_of_products(triples) -> dict:
    """key -> the sum of p*q over the (key, p, q) triples."""
    out: dict = {}
    for key, p, q in triples:
        accumulate(out, key, ref_poly_product(p, q))
    return out


def ref_nested_product(x, y, join):
    """The bilinear product of two combinations with ParamPoly coefficients."""
    return type(x)._of(
        ref_sum_of_products(
            (join(k1, k2), c1, c2) for k1, c1 in x.terms.items() for k2, c2 in y.terms.items()
        )
    )


def ref_apply_letters(x: NCElement, image, reverse=False) -> NCElement:
    """sum_w c_w image(w_1)...image(w_m), each word's product taken nested."""
    triples = []
    for w, c in x.terms.items():
        p = NCElement.one()
        for k in reversed(w) if reverse else w:
            p = ref_nested_product(p, image(k), add)
        triples += [(u, c, d) for u, d in p.terms.items()]
    return NCElement._of(ref_sum_of_products(triples))


def ref_antipode(x: NCElement) -> NCElement:
    """The word-reversing extension of Psi_n -> -Psi_n, letter by letter."""
    return ref_apply_letters(s_to_psi(x), lambda k: -psi(k), reverse=True)


def ref_series_multiply(s: TruncatedTSeries, t: TruncatedTSeries) -> TruncatedTSeries:
    """The product of two series, each coefficient the running sum of its
    nested products."""
    n = min(s.order, t.order)
    out: dict[int, NCElement] = {}
    for k in range(n + 1):
        acc = NCElement.zero()
        for i in range(k + 1):
            acc = acc + ref_nested_product(s.coeff(i), t.coeff(k - i), add)
        if not acc.is_zero():
            out[k] = acc
    return TruncatedTSeries(n, out)


def ref_reexpand_values(order, coeffs, values) -> TruncatedTSeries:
    """sum_k coeffs[k]/((t-v_1)...(t-v_k)) in plain powers, each scaled
    coefficient added to its order on its own."""
    out: dict[int, NCElement] = {}
    for k, c in coeffs.items():
        if k > order:
            continue
        hs = complete_homogeneous(values[:k], order - k)
        for i in range(order - k + 1):
            scaled = ref_sum_of_products((w, d, hs[i]) for w, d in c.terms.items())
            accumulate(out, k + i, NCElement._of(scaled))
    return TruncatedTSeries(order, out)


def ref_from_ribbon_basis(x: RibbonElement) -> NCElement:
    """sum c R_I^[K] over the terms of x."""
    return NCElement._of(
        ref_sum_of_products(
            (u, c, d)
            for (comp, K), c in x.terms.items()
            for u, d in ribbon_shifted(Composition(comp), K, SEQ_A).terms.items()
        )
    )


def ref_coproduct(x: NCElement) -> TensorElement:
    """Delta(x): every split (left, right) of every Psi-word, its coefficient
    times each term pair of the two legs, one pair at a time."""
    in_psi: dict = {}
    for w, c in s_to_psi(x).terms.items():
        for mask in range(1 << len(w)):
            left = tuple(k for i, k in enumerate(w) if mask >> i & 1)
            right = tuple(k for i, k in enumerate(w) if not mask >> i & 1)
            accumulate(in_psi, (left, right), c)
    triples = []
    for (left, right), c in in_psi.items():
        legs = psi_words_to_s(NCElement.word(left)), psi_words_to_s(NCElement.word(right))
        triples += [
            ((w1, w2), c, ref_poly_product(c1, c2))
            for w1, c1 in legs[0].terms.items()
            for w2, c2 in legs[1].terms.items()
        ]
    return TensorElement._of(ref_sum_of_products(triples))


def ref_convolution_defect(x: NCElement) -> tuple[NCElement, NCElement]:
    """m(S x id)Delta(x) - eps(x) 1 and m(id x S)Delta(x) - eps(x) 1, one
    coproduct term at a time."""
    left, right = [], []
    for (w1, w2), c in ref_coproduct(x).terms.items():
        left += [(u + w2, c, d) for u, d in ref_antipode(NCElement.word(w1)).terms.items()]
        right += [(w1 + u, c, d) for u, d in ref_antipode(NCElement.word(w2)).terms.items()]
    eps = NCElement.scalar(s_to_psi(x).constant_term())
    return (
        NCElement._of(ref_sum_of_products(left)) - eps,
        NCElement._of(ref_sum_of_products(right)) - eps,
    )


def assert_lowest_terms(p: ParamPoly) -> None:
    """p stores nonzero int numerators over an int den >= 1, and
    gcd(den, *numerators) == 1: the zero polynomial has den 1."""
    assert type(p) is ParamPoly and type(p.den) is int and p.den >= 1, (p, p.den)
    assert all(type(c) is int and c for c in p.terms.values()), (p, p.terms)
    assert gcd(p.den, *p.terms.values()) == 1, (p, p.den)


def assert_normal_form(x) -> None:
    """No zero or empty coefficient is stored, and every coefficient is in
    lowest terms."""
    for key, c in x.terms.items():
        assert type(c) is ParamPoly and c.terms, (key, c)
        assert_lowest_terms(c)
