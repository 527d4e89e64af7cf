"""Coefficient ring: shift, dual map, substitution, serialization."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncshift.params import (
    MAX_JSON_EXPONENT,
    MissingIndex,
    ParamPoly,
    ParamSubstitution,
    SEQ_A,
    SEQ_AHAT,
)
from tests_support import (
    assert_lowest_terms,
    factor_terms,
    factors,
    from_factor_terms,
    random_element,
    ref_degree,
    ref_from_json,
    ref_hat,
    ref_latex,
    ref_monomial_product,
    ref_poly_sum,
    ref_scale,
    ref_sorted_terms,
    ref_str,
    ref_substitute,
    ref_tau,
    ref_to_json,
)

a = ParamPoly.gen


def poly_terms(max_terms=4):
    """Lists of ([(index, exponent), ...], coefficient) pairs; an index may repeat."""
    monom = st.lists(
        st.tuples(st.integers(-5, 5), st.integers(1, 3)), min_size=0, max_size=2
    )
    coeff = st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 4)
    )
    term = st.tuples(monom, coeff)
    return st.lists(term, min_size=0, max_size=max_terms)


def polys(max_terms=4):
    return poly_terms(max_terms).map(_build_poly)


def _build_poly(terms):
    """The sum of the terms, built from const, gen, * and ** alone."""
    out = ParamPoly.zero()
    for monom, coeff in terms:
        term = ParamPoly.const(coeff)
        for i, e in monom:
            term = term * a(i) ** e
        out = out + term
    return out


def _json_terms(p: ParamPoly):
    """The ((index, exponent) pairs, coefficient) terms of p, read from to_json()."""
    return [({int(i): e for i, e in t["e"].items()}.items(), Fraction(t["c"])) for t in p.to_json()]


def _to_sympy(terms, sp):
    """The sympy expression of (((index, exponent), ...), coefficient) pairs."""
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator)
            * sp.Mul(*(sp.Symbol(f"a{i}") ** e for i, e in m))
            for m, c in terms
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    poly_terms(),
    poly_terms(),
    st.integers(-4, 4),
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=11, max_size=11),
)
def test_ring_matches_sympy(p_terms, q_terms, s, values):
    """+, -, *, tau, ref_hat, substitute and the JSON form, each against sympy."""
    sp = pytest.importorskip("sympy")
    a_ = {i: sp.Symbol(f"a{i}") for i in range(-5, 6)}  # poly_terms() uses these indices

    def same(got: ParamPoly, want) -> bool:
        return sp.expand(_to_sympy(_json_terms(got), sp) - want) == 0

    p, q = _build_poly(p_terms), _build_poly(q_terms)
    P, Q = _to_sympy(p_terms, sp), _to_sympy(q_terms, sp)
    assert same(p + q, P + Q)
    assert same(p - q, P - Q)
    assert same(p * q, P * Q)
    assert same(3 * p - Fraction(1, 2), 3 * P - sp.Rational(1, 2))
    shifted = {x: sp.Symbol(f"a{i + s}") for i, x in a_.items()}
    assert same(p.tau(s), P.subs(shifted, simultaneous=True))
    dual = {x: -sp.Symbol(f"a{1 - i}") for i, x in a_.items()}
    assert same(ref_hat(p), P.subs(dual, simultaneous=True))
    table = dict(zip(a_, values))
    got = p.substitute(ParamSubstitution.explicit(table))
    point = {x: sp.Rational(table[i].numerator, table[i].denominator) for i, x in a_.items()}
    assert sp.Rational(got.numerator, got.denominator) == P.subs(point)
    data = p.to_json()
    assert sp.expand(_to_sympy(_json_terms(p), sp) - P) == 0
    assert ParamPoly.from_json(data) == p


def _graded_lex_key(term):
    """The serialization order of JSON terms: total degree descending, then lex
    on the (index, -exponent) pairs in increasing index order."""
    e = sorted((int(i), x) for i, x in term["e"].items())
    return (-sum(x for _, x in e), tuple((i, -x) for i, x in e))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(-4, 4))
def test_json_term_order(p, q, s):
    for r in (p, q, p * q, p.tau(s), ref_hat(p), ref_hat((p * q).tau(s))):
        data = r.to_json()
        assert data == sorted(data, key=_graded_lex_key)
        assert all(list(t["e"]) == sorted(t["e"], key=int) for t in data)


@settings(max_examples=60, deadline=None)
@given(
    polys(),
    polys(),
    st.integers(-4, 4),
    st.fractions(-3, 3, max_denominator=4),
    st.integers(0, 3),
)
def test_coefficients_are_int_numerators_in_lowest_terms(p, q, n, f, e):
    """Every result stores int numerators over an int den >= 1 with
    gcd(den, *numerators) == 1: never a bool, a float or a Fraction."""
    results = [
        p + q, p - q, p * q, p + n, n - p, p - f,
        p.scale(n), p.scale(f), p.scale(str(f)), p.scale(q), n * p, p * f, f * p, p ** e,
        p.tau(n), ref_hat(p), -p,
        ParamPoly.const(n), ParamPoly.const(f), ParamPoly.gen(n),
        ParamPoly.from_json(p.to_json()),
        ParamPoly.from_json([{"c": "6/3", "e": {"1": 1}}, {"c": "1/2", "e": {}}]),
    ]
    for r in results:
        assert_lowest_terms(r)


def test_integral_fraction_prints_as_its_int():
    p = ParamPoly.const(Fraction(6, 3)) * ParamPoly.gen(1)
    q = 2 * ParamPoly.gen(1)
    assert (str(p), p.to_json(), p.latex()) == (str(q), q.to_json(), q.latex())


def test_tau_shift_examples():
    assert a(1).tau(1) == a(2)
    p = a(3) * a(-1) + 2 * a(0)
    assert p.tau(0) == p
    # index arithmetic applied per generator
    assert (a(3) * a(-1)).tau(-2) == a(1) * a(-3)


def test_hat_dual_examples():
    assert ref_hat(a(1)) == -a(0)
    # sign cancels on even powers
    assert ref_hat(a(2) * a(2)) == a(-1) * a(-1)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_hat_is_involution(p):
    assert ref_hat(ref_hat(p)) == p


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(-4, 4))
def test_hat_conjugates_tau(p, s):
    assert ref_hat(p.tau(s)) == ref_hat(p).tau(-s)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(-4, 4), st.integers(-4, 4))
def test_tau_is_additive(p, s, t):
    assert p.tau(s).tau(t) == p.tau(s + t)
    assert p.tau(s).tau(-s) == p


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


def test_substitution_examples():
    assert a(3).substitute(ParamSubstitution.equidistant(1, -1)) == 2
    zero = ParamSubstitution.equidistant(0, 0)
    assert (a(5) - a(-7)).substitute(zero) == 0
    assert a(2).substitute(ParamSubstitution.explicit({2: Fraction(3, 2)})) == Fraction(3, 2)


def test_explicit_substitution_missing_index():
    sub = ParamSubstitution.explicit({1: 1})
    with pytest.raises(MissingIndex):
        a(2).substitute(sub)


@pytest.mark.parametrize("key", [1.5, True, "1", Fraction(1)])
def test_explicit_substitution_rejects_non_integer_indices(key):
    # int(key) would read 1.5 and True both as index 1
    with pytest.raises(ValueError, match="indices must be integers"):
        ParamSubstitution.explicit({key: "1", 2: "2"})


def test_equidistant_difference_is_linear():
    sub = ParamSubstitution.equidistant(Fraction(2, 3), 5)
    for n in range(-3, 4):
        for k in range(-3, 4):
            assert (a(n + k) - a(k)).substitute(sub) == Fraction(2, 3) * n


def test_whole_distant_predicate():
    assert ParamSubstitution.equidistant(2, Fraction(1, 2)).is_whole_distant()
    assert not ParamSubstitution.equidistant(Fraction(1, 2), 0).is_whole_distant()
    assert ParamSubstitution.explicit({0: Fraction(1, 3), 5: Fraction(7, 3)}).is_whole_distant()
    assert not ParamSubstitution.explicit({0: 0, 1: Fraction(1, 2)}).is_whole_distant()


def test_sequences():
    assert SEQ_A.term(3) == a(3)
    assert SEQ_AHAT.term(3) == -a(-2)
    assert SEQ_A.tau(2).term(1) == a(3)
    assert SEQ_A.dual() == SEQ_AHAT
    assert SEQ_AHAT.dual() == SEQ_A
    b = SEQ_A.tau(2)
    assert b.dual().term(1) == -b.term(0)
    assert b.dual().dual() == b


def test_json_round_trip_and_ordering():
    p = a(2) * a(-1) - Fraction(7, 3) * a(0) ** 2 + 1
    data = p.to_json()
    assert ParamPoly.from_json(data) == p
    # canonical order: graded first, ties broken by the exponent vector
    degrees = [sum(item["e"].values()) for item in data]
    assert degrees == sorted(degrees, reverse=True)
    # bit-exact determinism
    import json

    assert json.dumps(data) == json.dumps((p + ParamPoly.zero()).to_json())


def test_zero_is_canonical():
    p = a(1) - a(1)
    assert p.is_zero() and not p.terms
    assert (p * a(5)).is_zero()
    q = ParamPoly.const(Fraction(1, 2)) * ParamPoly.const(2)
    assert q == ParamPoly.one()


def test_constants_hash_as_the_numbers_they_equal():
    for c in (0, 1, -3, 10**30, Fraction(1, 2), Fraction(-7, 3)):
        p = ParamPoly.const(c)
        assert p == c and hash(p) == hash(c)
    assert hash(ParamPoly.zero()) == 0
    assert len({ParamPoly.one(), 1, Fraction(1)}) == 1
    # a bool is no number: == declines instead of raising
    assert ParamPoly.one().__eq__(True) is NotImplemented
    assert not ParamPoly.gen(1) == True  # noqa: E712
    assert ParamPoly.one() != True  # noqa: E712


#: indices the monomial encoding must place, far ones included
INDICES = list(range(-12, 13)) + [10**9, -(10**12)]


def _random_poly(rng: random.Random) -> ParamPoly:
    """A sum of up to four terms c a_i^e a_j^f ... over INDICES."""
    out = ParamPoly.zero()
    for _ in range(rng.randint(1, 4)):
        term = ParamPoly.const(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
        for _ in range(rng.randint(0, 3)):
            term = term * a(rng.choice(INDICES)) ** rng.randint(1, 3)
        out = out + term
    return out


def _differential_polys() -> list[ParamPoly]:
    rng = random.Random(2801)
    coeffs = [c for _ in range(20) for c in random_element(rng, monomials=3).terms.values()]
    return coeffs + [_random_poly(rng) for _ in range(40)] + [
        ParamPoly.zero(),
        ParamPoly.one(),
        ParamPoly.const(Fraction(-2, 3)),
        a(10**9),
        Fraction(5, 2) * a(-(10**12)) ** 2,
    ]


def test_ring_matches_the_tuple_monomial_reference():
    """Every operation that builds or reads a monomial or a coefficient,
    against the sorted-factor-tuple loop of tests_support on plain Fractions
    (factor_terms reads each numerator over the denominator), every result
    in lowest terms."""
    h, t = Fraction(1, 2), Fraction(1, 3)
    polys = _differential_polys() + [
        ParamPoly.const(h),
        ParamPoly.const(-t),
        ParamPoly.const(Fraction(1, 6)),
        a(1).scale(h) + t,
        a(1).scale(h) - a(2).scale(Fraction(1, 4)),
        a(2).scale(Fraction(3, 4)) - a(1).scale(Fraction(5, 6)),
    ]
    subs = [
        ParamSubstitution.equidistant(Fraction(2, 3), Fraction(-1, 5)),
        ParamSubstitution.equidistant(3, 1),
        ParamSubstitution.explicit({i: Fraction(i, 7) + 1 for i in INDICES}),
    ]
    scalars = [0, 1, -1, 6, h, Fraction(-4, 3), "5/6", "-3"]
    for p, q in zip(polys, polys[1:] + polys[:1]):
        f, g = factor_terms(p), factor_terms(q)
        results = [
            (p + q, ref_poly_sum(f, g)),
            (p - q, ref_poly_sum(f, ref_scale(g, -1))),
            (-p, ref_scale(f, -1)),
            (p * q, ref_monomial_product(f, g)),
            (p.scale(q), ref_monomial_product(f, g)),
            (ParamPoly.from_json(p.to_json()), ref_from_json(p.to_json())),
        ]
        results += [(p.tau(s), ref_tau(f, s)) for s in (-3, 0, 5)]
        results += [(p.scale(c), ref_scale(f, Fraction(c))) for c in scalars]
        for got, want in results:
            assert_lowest_terms(got)
            assert factor_terms(got) == want
            assert got == from_factor_terms(want) and hash(got) == hash(from_factor_terms(want))
        assert ref_from_json(p.to_json()) == f
        for sub in subs:
            assert p.substitute(sub) == ref_substitute(f, sub)
        assert p.degree() == ref_degree(f)
        assert p.to_json() == ref_to_json(f)
        assert (str(p), p.latex()) == (ref_str(f), ref_latex(f))
        assert [(factors(m), c) for m, c in p.sorted_terms()] == ref_sorted_terms(f)


def test_equality_and_hash_across_denominators():
    h, t, s = (ParamPoly.const(Fraction(1, d)) for d in (2, 3, 6))
    # sums whose denominator shrinks are the numbers they equal
    for p, c in ((h + h, 1), (s + t, h), (h - t, s), (s - h + t, 0), (h * 4, 2)):
        assert_lowest_terms(p)
        assert p == c and c == p and hash(p) == hash(c)
        assert p.__eq__(bool(c)) is NotImplemented
    half = a(1).scale(Fraction(1, 2))
    assert half != a(1) and half.terms == a(1).terms and half.den == 2
    assert half + half == a(1) and hash(half + half) == hash(a(1))
    assert half.scale(2) == a(1) and (half + Fraction(1, 2)).scale("2") == a(1) + 1


def test_round_trip_at_the_largest_json_exponent():
    # p(3)^20000 p(-5)^20000 is an int of over 15,000 digits; the decoder
    # reads each exponent back with O(log e) divisions
    start = time.perf_counter()
    data = [{"c": "-1/2", "e": {"-5": MAX_JSON_EXPONENT, "3": MAX_JSON_EXPONENT}}]
    p = ParamPoly.from_json(data)
    assert p.to_json() == data and ParamPoly.from_json(p.to_json()) == p
    sq = p * p
    e = 2 * MAX_JSON_EXPONENT
    assert str(sq) == f"1/4*a[-5]^{e}*a[3]^{e}" == ref_str(factor_terms(sq))
    assert sq.latex() == f"\\tfrac{{1}}{{4}} a_{{-5}}^{{{e}}} a_{{3}}^{{{e}}}"
    assert sq.degree() == 2 * e
    assert json.dumps(sq.to_json()) == json.dumps([{"c": "1/4", "e": {"-5": e, "3": e}}])
    assert time.perf_counter() - start < 1
