"""The coefficient ring Q[a] of the shift parameters, and LinComb.

Everything downstream is linear over polynomials in commuting indeterminates
a_i, indexed by arbitrary (signed) integers.  Every linear combination of the
package is a LinComb: a finite, zero-pruned map from basis keys to nonzero
coefficients, with the linear structure, equality, sorted serialization, the
printed signed sum and the bilinear product loop written once, and
accumulate() the in-place sum of the linear structure.  Each class prints only
its own term, most through signed(), which writes coefficient 1 or -1 as the
bare or negated term.  ParamPoly is the LinComb of monomials with rational
coefficients, stored as int numerators over one positive denominator in
lowest terms; the element classes downstream are LinCombs with ParamPoly
coefficients.  A monomial is a positive int, the product of one prime per
factor: each index gets the next unused prime the first time it is seen (a
per-process table), so a_1^2 a_3 is p(1)^2 p(3), the constant monomial is 1,
and the product of two monomials is their integer product, exact by unique
factorization.  Only the serialization order, the printers, the JSON form,
tau, substitute and degree read a monomial's factors, each through the one
cached decoder to (index, exponent) pairs.

Every sum of products over Q[a] -- element products, letter substitutions,
ribbon and coproduct expansions, the signed sums of the generator families --
is one call of LinComb.sum_of_products() (the sum of x*y over pairs of
combinations) or LinComb.linear() (the sum of c_k image(k) over the terms of
a combination).  Both write each coefficient product straight into one
accumulator, a dict from output key to a raw monomial -> int numerator dict
and its one denominator, and normalize it once at the end: zeros dropped,
numerators and denominator divided by their gcd, vanished keys dropped.  A
product over a denominator that the key's does not divide first puts the key
over their lcm, so the monomial loop adds ints only.  The accumulator never
leaves this module, and a Fraction is built only where a coefficient leaves
the ring: as text, as the number substitute() returns, or to hash a constant
that is no integer.
ParamPoly's own product runs through the same monomial loop, so the monomial
join is written once.

Three structure maps act on the index lattice:

* the shift tau, sending a_i to a_{i+1};
* the dual map, sending a_i to -a_{-i+1} (an involution of the sequences);
* numeric substitution, assigning a rational value to every index.

Coefficients are exact rationals throughout so that every identity check in
the package is a zero-tolerance equality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import takewhile
from math import gcd, lcm, prod
from typing import Callable, Iterable, Mapping

Monomial = int  # a product of index primes: a_1^2 a_3 is p(1)^2 p(3), and 1 is constant
MAX_JSON_EXPONENT = 10_000  # the decoded form holds one entry per factor

_PRIME_OF: dict[int, int] = {}  # index -> its prime
_INDEX_OF: dict[int, int] = {}  # prime -> its index, in increasing prime order


class MissingIndex(KeyError):
    """An explicit substitution was asked for an index it does not cover."""


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; a bool is no number."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def json_ints(x) -> tuple[int, ...]:
    """A JSON array of integers as a tuple; anything else is a ValueError."""
    if not isinstance(x, list) or any(type(k) is not int for k in x):
        raise ValueError(f"expected an array of integers, got {x!r}")
    return tuple(x)


def canonical_int(text: str) -> int:
    """An integer in canonical spelling only: not "1_0", " 1", "+1" or "01".

    Reads every integer that comes from outside: JSON index keys and the
    integer options of the command line.
    """
    i = int(text)
    if str(i) != text:
        raise ValueError(f"{text!r} is not a canonical integer")
    return i


def _prime(i: int) -> int:
    """The prime of index i: the smallest prime no index holds yet, the first
    time i is seen.  The primes handed out are the first primes, in order."""
    p = _PRIME_OF.get(i)
    if p is None:
        p = next(reversed(_INDEX_OF), 1) + 1
        while not all(p % q for q in takewhile(lambda q: q * q <= p, _INDEX_OF)):
            p += 1
        _PRIME_OF[i], _INDEX_OF[p] = p, i
    return p


def monomial(exponents: Iterable[tuple[int, int]]) -> Monomial:
    """The monomial of (index, exponent) pairs: prod a_i^e."""
    return prod(_prime(i) ** e for i, e in exponents)


def _split_power(m: int, p: int) -> tuple[int, int]:
    """(e, m / p^e) for the largest e with p^e | m, in O(log e) divisions:
    the power of p^2 in m / p, found the same way, gives e up to one."""
    if m % p:
        return 0, m
    e, rest = _split_power(m // p, p * p)
    if rest % p:
        return 2 * e + 1, rest
    return 2 * e + 2, rest // p


@cache
def exponents(m: Monomial) -> tuple[tuple[int, int], ...]:
    """The (index, exponent) pairs of m in increasing index order: ((1, 2),
    (3, 1)) for a_1^2 a_3."""
    out = []
    for p, i in _INDEX_OF.items():
        if m == 1:
            break
        if m % p == 0:
            e, m = _split_power(m, p)
            out.append((i, e))
    return tuple(sorted(out))


def _ratio(c) -> tuple[int, int]:
    """An int, a Fraction or a 'p/q' string as (numerator, denominator > 0) in
    lowest terms; an int passes no coercion."""
    return (c if type(c) is int else as_fraction(c)).as_integer_ratio()


def accumulate(terms: dict, key, c) -> None:
    """terms[key] += c in place, dropping the key when the sum vanishes."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _add_monomial_products(t: dict, p: dict, q: dict, f: int = 1) -> None:
    """t[m1 m2] += f*a*b over the int terms a m1 of p and b m2 of q, with no
    pruning: t may hold zeros until _reduced() reads it."""
    for m1, a in p.items():
        a *= f
        for m2, b in q.items():
            m = m1 * m2
            t[m] = t.get(m, 0) + a * b


def _reduced(t: dict, den: int) -> tuple[dict, int]:
    """The numerators t over den in normal form: no zero, and numerators and
    denominator divided by their gcd (the zero polynomial has den 1)."""
    t = {m: c for m, c in t.items() if c}
    if den != 1:
        g = gcd(den, *t.values())
        if g != 1:
            den //= g
            t = {m: c // g for m, c in t.items()}
    return t, den


def _rational_terms(pairs: Iterable) -> tuple[dict, int]:
    """The normal form of the sum of c m over (monomial m, rational c) pairs."""
    ratios = [(m, *_ratio(c)) for m, c in pairs]
    den = lcm(*(d for _, _, d in ratios))
    t: dict = {}
    for m, n, d in ratios:
        t[m] = t.get(m, 0) + n * (den // d)
    return _reduced(t, den)


def add_product(acc: dict, key, p: "ParamPoly", q: "ParamPoly") -> None:
    """Add the polynomial product p*q into acc[key], a [numerators, den]
    entry: if the denominator of p*q does not divide den, the entry is first
    put over their lcm."""
    d = p.den * q.den
    e = acc.get(key)
    if e is None:
        e = acc[key] = [{}, d]
    elif e[1] % d:
        f = lcm(e[1], d) // e[1]
        t = e[0]
        for m in t:
            t[m] *= f
        e[1] *= f
    _add_monomial_products(e[0], p.terms, q.terms, e[1] // d)


def signed(coeff: str, body: str, scaled: str) -> str:
    """A printed term: body under the coefficient text "1", -body under "-1",
    else the caller's scaled form."""
    return body if coeff == "1" else f"-{body}" if coeff == "-1" else scaled


class LinComb:
    """A finite map key -> nonzero coefficient: a linear combination.

    Immutable by convention.  The term map never stores a zero coefficient.
    Subclasses fix the key type and set ``_sort_key``, the key function of
    their serialization order (None for the keys' own order).
    """

    __slots__ = ("terms",)
    _sort_key: Callable | None = None

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a zero-pruned dict without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def _summed(cls, acc: dict):
        """The combination an accumulator holds: each entry in normal form,
        and the keys whose polynomial vanished dropped."""
        out = {}
        for key, (t, den) in acc.items():
            t, den = _reduced(t, den)
            if t:
                out[key] = ParamPoly._of(t, den)
        return cls._of(out)

    @classmethod
    def sum_of_products(cls, pairs: Iterable, join: Callable):
        """The sum of x*y over the pairs (x, y) of combinations with ParamPoly
        coefficients, where the product of the terms c1 k1 of x and c2 k2 of y
        is c1*c2 at join(k1, k2)."""
        acc: dict = {}
        for x, y in pairs:
            for k1, c1 in x.terms.items():
                for k2, c2 in y.terms.items():
                    add_product(acc, join(k1, k2), c1, c2)
        return cls._summed(acc)

    @classmethod
    def linear(cls, x: "LinComb", image: Callable):
        """The sum of c_k image(k) over the terms c_k k of x, where image(k) is
        a combination of cls and every coefficient is a ParamPoly."""
        acc: dict = {}
        for k, c in x.terms.items():
            for u, d in image(k).terms.items():
                add_product(acc, u, c, d)
        return cls._summed(acc)

    @classmethod
    def zero(cls):
        return cls._of({})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._of(out)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, -c)
        return self._of(out)

    def scale(self, c):
        """Multiply every coefficient by c, used as given; the int 1 returns self.
        A c that is zero after coercion ('0', '0/3', a zero ParamPoly) gives zero."""
        if type(c) is int and c == 1:
            return self
        return self._of({k: p for k, v in self.terms.items() if (p := c * v)})

    def _product(self, other, join: Callable):
        """The bilinear product of two combinations with ParamPoly coefficients:
        c1*c2 summed at join(k1, k2) over all term pairs."""
        return self.sum_of_products(((self, other),), join)

    def sorted_terms(self) -> list:
        terms = self.terms
        return [(k, terms[k]) for k in sorted(terms, key=self._sort_key)]

    def _show(self, term: Callable) -> str:
        """The printed sum of term(key, coeff) over the sorted terms, "+ -"
        folded into "- "; "0" for the zero combination."""
        if not self.terms:
            return "0"
        return " + ".join(term(k, c) for k, c in self.sorted_terms()).replace("+ -", "- ")

    @classmethod
    def _from_json(cls, data: Mapping, key_of: Callable):
        """Sum the JSON terms (ParamPoly coefficients); a ValueError names the
        first malformed one."""
        if "terms" not in data:
            raise ValueError("missing key 'terms'")
        items = data["terms"]
        if not isinstance(items, list):
            raise ValueError(f"terms must be a list, got {items!r}")
        out: dict = {}
        for item in items:
            try:
                key, c = key_of(item), ParamPoly.from_json(item["coeff"])
            except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
                raise ValueError(f"malformed term {item!r}: {e!r}") from None
            accumulate(out, key, c)
        return cls._of(out)


def _monomial_sort_key(m: Monomial):
    # Graded order, then lex on the (index, -exponent) pairs, which is lex on
    # the sorted factor indices.  Smaller key = earlier in the serialized form.
    ex = exponents(m)
    return (-sum(e for _, e in ex), tuple((i, -e) for i, e in ex))


class ParamPoly(LinComb):
    """Sparse polynomial in the a_i: a LinComb of monomials with rational
    coefficients, stored as int numerators (terms) over one positive
    denominator (den) with gcd(den, *numerators) == 1; the zero polynomial
    has den 1.  So the ring operations add and multiply ints, and a
    coefficient becomes a Fraction only where it leaves the ring: in
    sorted_terms (the printers and to_json read it), in substitute, and to
    hash a constant that is no integer.  Numerators are only added,
    multiplied and floor-divided by a common gcd, so no float can arise.

    Ints and Fractions are constants: they compare, add and multiply as such,
    and a constant hashes as the number it equals.
    """

    __slots__ = ("den",)
    _sort_key = staticmethod(_monomial_sort_key)

    def __init__(self, terms: Mapping | None = None):
        """The sum of c m over the items (m, c) of a monomial -> rational map."""
        self.terms, self.den = _rational_terms(terms.items() if terms else ())

    @classmethod
    def _of(cls, terms: dict, den: int = 1) -> "ParamPoly":
        """Wrap numerators in normal form over den without copying them."""
        out = cls.__new__(cls)
        out.terms, out.den = terms, den
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c) -> "ParamPoly":
        n, d = _ratio(c)
        return ParamPoly._of({1: n} if n else {}, d)

    @staticmethod
    def one() -> "ParamPoly":
        return ParamPoly.const(1)

    @staticmethod
    def gen(i: int) -> "ParamPoly":
        """The indeterminate a_i."""
        return ParamPoly._of({_prime(i): 1})

    @staticmethod
    def coerce(x) -> "ParamPoly":
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is int or isinstance(other, Fraction):
            other = ParamPoly.const(other)
        elif type(other) is not ParamPoly:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the number it equals, the zero polynomial as 0
        if self.terms.keys() <= {1}:
            c = self.terms.get(1, 0)
            return hash(c if self.den == 1 else Fraction(c, self.den))
        return hash((frozenset(self.terms.items()), self.den))

    def _plus(self, other: "ParamPoly", sign: int) -> "ParamPoly":
        """self + sign*other, over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        f = den // self.den
        t = {m: f * c for m, c in self.terms.items()} if f != 1 else dict(self.terms)
        f = sign * (den // other.den)
        for m, c in other.terms.items():
            s = t.get(m, 0) + f * c
            if s:
                t[m] = s
            else:
                del t[m]
        return ParamPoly._of(t) if den == 1 else ParamPoly._of(*_reduced(t, den))

    def __add__(self, other) -> "ParamPoly":
        return self._plus(ParamPoly.coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        return self._plus(ParamPoly.coerce(other), -1)

    def __rsub__(self, other) -> "ParamPoly":
        return ParamPoly.coerce(other) - self

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._of({m: -c for m, c in self.terms.items()}, self.den)

    def scale(self, c) -> "ParamPoly":
        """Multiply by c, an int, a Fraction, a 'p/q' string or a ParamPoly;
        the int 1 returns self."""
        if isinstance(c, ParamPoly):
            return self * c
        if type(c) is int and c == 1:
            return self
        n, d = _ratio(c)
        return ParamPoly._of(*_reduced({m: n * v for m, v in self.terms.items()}, d * self.den))

    def __mul__(self, other) -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            return self.scale(other)
        t: dict = {}
        _add_monomial_products(t, self.terms, other.terms)
        return ParamPoly._of(*_reduced(t, self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max((sum(e for _, e in exponents(m)) for m in self.terms), default=-1)

    # -- structure maps ----------------------------------------------------

    def tau(self, s: int) -> "ParamPoly":
        """Shift every index by s: a_i -> a_{i+s}.  A ring homomorphism."""
        if s == 0:
            return self
        return ParamPoly._of(
            {monomial((i + s, e) for i, e in exponents(m)): c for m, c in self.terms.items()},
            self.den,
        )

    def substitute(self, sub: "ParamSubstitution") -> Fraction:
        """Numeric evaluation under a substitution; the value of each index
        is read from sub once per call, as an int where integral."""
        values: dict[int, int | Fraction] = {}
        total = 0
        for m, c in self.terms.items():
            v = c
            for i, e in exponents(m):
                x = values.get(i)
                if x is None:
                    x = sub.index_value(i)
                    x = values[i] = x.numerator if x.denominator == 1 else x
                v *= x**e
            total += v
        return Fraction(total) if self.den == 1 else Fraction(total, self.den)

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list:
        """The (monomial, rational coefficient) pairs in serialization order."""
        terms, den = LinComb.sorted_terms(self), self.den
        return terms if den == 1 else [(m, Fraction(c, den)) for m, c in terms]

    def to_json(self) -> list:
        return [
            {"c": str(c), "e": {str(i): e for i, e in exponents(m)}}
            for m, c in self.sorted_terms()
        ]

    @staticmethod
    def from_json(data: Iterable) -> "ParamPoly":
        pairs = []
        for item in data:
            exponents = []
            for key, e in item["e"].items():
                if type(e) is not int or not 0 <= e <= MAX_JSON_EXPONENT:
                    raise ValueError(f"exponent not in 0..{MAX_JSON_EXPONENT} in {item!r}")
                exponents.append((canonical_int(key), e))
            pairs.append((monomial(exponents), item["c"]))
        return ParamPoly._of(*_rational_terms(pairs))

    def __str__(self) -> str:
        def term(m, c):
            body = "*".join(f"a[{i}]" + (f"^{e}" if e > 1 else "") for i, e in exponents(m))
            return signed(str(c), body, f"{c}*{body}") if body else str(c)

        return self._show(term)

    __repr__ = __str__

    def latex(self) -> str:
        def term(m, c):
            body = " ".join(
                f"a_{{{i}}}" + (f"^{{{e}}}" if e > 1 else "") for i, e in exponents(m)
            )
            cl = _latex_fraction(c)
            return signed(cl, body, f"{cl} {body}") if body else cl

        return self._show(term)


def _latex_fraction(c: int | Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


@dataclass(frozen=True)
class ParamSequence:
    """One of the parameter sequences tau^s(a) or tau^s(a-hat).

    value(i) is a_{i+offset} for the plain family and -a_{1-i-offset} for the
    dualized one.  The family is closed under tau and under dualization, which
    is all the generating-series calculus ever needs.
    """

    hat: bool = False
    offset: int = 0

    def term(self, i: int) -> ParamPoly:
        if self.hat:
            return -ParamPoly.gen(1 - i - self.offset)
        return ParamPoly.gen(i + self.offset)

    def tau(self, s: int) -> "ParamSequence":
        return ParamSequence(self.hat, self.offset + s)

    def dual(self) -> "ParamSequence":
        return ParamSequence(not self.hat, -self.offset)

    def values(self, n: int) -> list[ParamPoly]:
        """The first n entries (indices 1..n)."""
        return [self.term(i) for i in range(1, n + 1)]


#: the undressed sequence a
SEQ_A = ParamSequence(False, 0)
#: its dual a-hat
SEQ_AHAT = ParamSequence(True, 0)


@dataclass(frozen=True)
class ParamSubstitution:
    """Assignment of rational values to the indices of the sequence a.

    kind is 'equidistant', a_i = base + i*c for every integer i, or
    'explicit', a table of finitely many a_i; symbolic parameters have none.
    """

    kind: str
    c: Fraction | None = None
    base: Fraction | None = None
    table: tuple[tuple[int, Fraction], ...] | None = None

    @staticmethod
    def equidistant(c, base=0) -> "ParamSubstitution":
        return ParamSubstitution("equidistant", c=as_fraction(c), base=as_fraction(base))

    @staticmethod
    def explicit(mapping: Mapping[int, object]) -> "ParamSubstitution":
        if any(type(i) is not int for i in mapping):
            raise ValueError(f"substitution indices must be integers, got {list(mapping)}")
        table = tuple(sorted((i, as_fraction(v)) for i, v in mapping.items()))
        return ParamSubstitution("explicit", table=table)

    def index_value(self, i: int) -> Fraction:
        if self.kind == "equidistant":
            return self.base + i * self.c
        for j, v in self.table:
            if j == i:
                return v
        raise MissingIndex(i)

    def is_whole_distant(self) -> bool:
        """Whether a_i - a_j is an integer for all covered i, j."""
        if self.kind == "equidistant":
            return self.c.denominator == 1
        if not self.table:
            return True
        v0 = self.table[0][1]
        return all((v - v0).denominator == 1 for _, v in self.table)
