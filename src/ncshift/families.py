"""Generator families of the shifted algebra and their interrelations.

The elementary generators are produced operationally from the triangular
linear relation

    sum_{i+j=n} (-1)^j S_i^[n-1] Lambda_j = delta_{n,0},

which pins Lambda_n once the shifted complete homogeneous expansions are
known.  The Hessenberg quasideterminant closed forms (Jacobi-Trudi and its
inverse) are theorems about this solution and are checked, not assumed.

Everything else on the elementary side comes from the complete side through
the duality anti-isomorphism omega (words reversed, S_k over a sequence sent
to Lambda_k over its dual, coefficients unchanged), which maps S_k^[s] to
Lambda_k^[-s].  So Lambda_k^[s] over Lambda-letters is S_k^[-s] over the
dual sequence, and S_n over Lambda-letters is Lambda_n over the dual
sequence with every word reversed.

Power sums are the alternating hook combination

    Psi_n = sum_{k=0}^{n-1} (-1)^k (n-k) Lambda_k^[n-k] S_{n-k}^[n-k-1],

free generators over Q[a] (the rewrite into them needs denominators 1/n, so
the Z[a]-lattice is left).  S_n over Psi-letters comes degree by degree from
the Wronski recursion; round trips are exact.

Everything is parameterized by the base sequence, so the same functions
compute in the dual algebra by passing the dualized sequence.

Memo tables are keyed by (argument, base) through functools.cache, which is
safe for concurrent readers: a consistent map is observed, at worst a value
is computed twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, pairwise

from .algebra import NCElement, Word, apply_letters, complete_homogeneous
from .params import SEQ_A, ParamSequence
from .quasidet import hessenberg_quasidet
from .shifts import shift_S


@cache
def lambda_in_S(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """Lambda_n expanded in the S-basis, by the triangular solve."""
    if n < 0:
        return NCElement.zero()
    if n == 0:
        return NCElement.one()
    # Lambda_n = (-1)^{n+1} sum_{j=0}^{n-1} (-1)^j S_{n-j}^[n-1] Lambda_j
    out = NCElement.zero()
    for j in range(n):
        term = shift_S(n - j, n - 1, base) * lambda_in_S(j, base)
        out = out + (term if j % 2 == 0 else -term)
    return out if (n + 1) % 2 == 0 else -out


@cache
def shift_Lambda(k: int, s: int, base: ParamSequence = SEQ_A) -> NCElement:
    """Lambda_k^[s] in the S-basis: S_k^[-s] over the dual sequence, read in Lambda-letters."""
    return lambda_words_to_s(shift_S(k, -s, base.dual()), base)


def lambda_by_quasidet(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """Lambda_n via the quasideterminant closed form (a checked theorem).

    Entry (i,j) of the Hessenberg matrix is S_{j-i+1}^[n-i]; unit subdiagonal.
    """
    if n == 0:
        return NCElement.one()
    return hessenberg_quasidet(n, lambda i, j: shift_S(j - i + 1, n - i, base))


def s_in_lambda(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """S_n as a polynomial in Lambda-letters, via the inverse closed form.

    The returned words are monomials in the elementary generators.  Entry
    (i,j) of the underlying matrix (1-indexed) is Lambda_{j-i+1}^[1-j] over
    Lambda-letters, that is S_{j-i+1}^[j-1] over the dual sequence.
    """
    if n == 0:
        return NCElement.one()
    dual = base.dual()
    return hessenberg_quasidet(n, lambda i, j: shift_S(j - i + 1, j - 1, dual))


def lambda_words_to_s(x: NCElement, base: ParamSequence = SEQ_A) -> NCElement:
    """Interpret words of x as Lambda-monomials and expand in the S-basis."""
    return apply_letters(x, lambda k: lambda_in_S(k, base))


def s_to_lambda(x: NCElement, base: ParamSequence = SEQ_A) -> NCElement:
    """Rewrite an S-basis element over Lambda-letters: omega, then every word reversed."""
    return NCElement({w[::-1]: c for w, c in omega(x, base).terms.items()})


def omega(x: NCElement, base: ParamSequence = SEQ_A) -> NCElement:
    """The duality anti-isomorphism into the algebra over the dual sequence.

    Words are reversed, each letter S_k becomes Lambda_k over the dual
    sequence, and coefficient polynomials pass through unchanged.
    """
    dual = base.dual()
    return apply_letters(x, lambda k: lambda_in_S(k, dual), reverse=True)


# -- power sums ---------------------------------------------------------------


def psi(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """The shifted power sum Psi_n in the S-basis."""
    return psi_shifted(n, 0, base)


@cache
def psi_shifted(n: int, s: int, base: ParamSequence = SEQ_A) -> NCElement:
    """Psi_n^[s]; coincides with phi_shift(psi(n), s)."""
    if n < 1:
        raise ValueError("power sums start at n = 1")
    out = NCElement.zero()
    for k in range(n):
        term = shift_Lambda(k, n - k + s, base) * shift_S(n - k, n - k - 1 + s, base)
        term = term.scale(Fraction(n - k))
        out = out + (term if k % 2 == 0 else -term)
    return out


@cache
def s_in_psi_table(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """S_n over Psi-letters.

    Built from the Wronski recursion n S_n^[n-1] = sum_k S_k^[n-1] Psi_{n-k};
    its validity is pinned by the exact round trip with psi(n).
    """
    if n == 0:
        return NCElement.one()
    table = lambda k: s_in_psi_table(k, base)
    acc = NCElement.gen(n)  # the Psi_n letter
    for k in range(1, n):
        acc = acc + apply_letters(shift_S(k, n - 1, base), table) * NCElement.gen(n - k)
    # acc / n = S_n^[n-1] over Psi-letters: S_n plus lower single-letter
    # terms, whose images are subtracted
    lower = shift_S(n, n - 1, base) - NCElement.gen(n)
    return acc.scale(Fraction(1, n)) - apply_letters(lower, table)


def psi_words_to_s(x: NCElement, base: ParamSequence = SEQ_A) -> NCElement:
    """Interpret words of x as Psi-monomials and expand in the S-basis."""
    return apply_letters(x, lambda k: psi(k, base))


def s_to_psi(x: NCElement, base: ParamSequence = SEQ_A) -> NCElement:
    """Rewrite an S-basis element over Psi-letters (denominators 1/n appear)."""
    return apply_letters(x, lambda k: s_in_psi_table(k, base))


# -- identity checks -----------------------------------------------------------


def check_lineareq(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """The defect of sum_{i+j=n} (-1)^j S_i^[n-1] Lambda_j (zero iff it holds)."""
    acc = NCElement.zero()
    for j in range(n + 1):
        term = shift_S(n - j, n - 1, base) * lambda_in_S(j, base)
        acc = acc + (term if j % 2 == 0 else -term)
    if n == 0:
        acc = acc - NCElement.one()
    return acc


def verify_wronski_newton(n: int, base: ParamSequence = SEQ_A) -> tuple[bool, str]:
    """Check the fundamental, Wronski and Newton identities at degree n."""
    # S_n^[n-1] = sum_{k=1}^{n} (-1)^{k-1} Lambda_k^[n-k] S_{n-k}^[n-1-k]
    lhs = shift_S(n, n - 1, base)
    rhs = NCElement.zero()
    for k in range(1, n + 1):
        term = shift_Lambda(k, n - k, base) * shift_S(n - k, n - 1 - k, base)
        rhs = rhs + (term if (k - 1) % 2 == 0 else -term)
    if lhs != rhs:
        return False, f"fundamental identity fails at n={n}"
    # n S_n^[n-1] = sum_{k=0}^{n-1} S_k^[n-1] Psi_{n-k}
    lhs = shift_S(n, n - 1, base).scale(Fraction(n))
    rhs = NCElement.zero()
    for k in range(n):
        rhs = rhs + shift_S(k, n - 1, base) * psi(n - k, base)
    if lhs != rhs:
        return False, f"Wronski identity fails at n={n}"
    # n Lambda_n = sum_{k=0}^{n-1} (-1)^{n-k-1} Psi_{n-k}^[k] Lambda_k
    lhs = lambda_in_S(n, base).scale(Fraction(n))
    rhs = NCElement.zero()
    for k in range(n):
        term = psi_shifted(n - k, k, base) * lambda_in_S(k, base)
        rhs = rhs + (term if (n - k - 1) % 2 == 0 else -term)
    if lhs != rhs:
        return False, f"Newton identity fails at n={n}"
    return True, ""


def translation_psi_from_s(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """Psi_n as the quasideterminant in shifted S's, last column weighted (-1)^(n-1) (n-i+1)."""
    sign = (-1) ** (n - 1)

    def entry(i: int, j: int) -> NCElement:
        e = shift_S(j - i + 1, n - i, base)
        return e.scale(Fraction(sign * (n - i + 1))) if j == n else e

    return hessenberg_quasidet(n, entry)


def translation_psi_from_lambda(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """Psi_n as the quasideterminant in shifted Lambdas (first row weighted)."""

    def entry(i: int, j: int) -> NCElement:
        e = shift_Lambda(j - i + 1, n - j, base)
        return e.scale(Fraction(j)) if i == 1 else e

    return hessenberg_quasidet(n, entry)


def translation_s_from_psi(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """n S_n^[n-1] as the quasideterminant in shifted Psis, last column weighted (-1)^(n-1)."""
    def entry(i: int, j: int) -> NCElement:
        e = psi_shifted(j - i + 1, n - j, base)
        return -e if j == n and n % 2 == 0 else e

    return hessenberg_quasidet(n, entry, subdiag=[-i for i in range(1, n)])


def translation_lambda_from_psi(n: int, base: ParamSequence = SEQ_A) -> NCElement:
    """n Lambda_n as the quasideterminant in shifted Psis (subdiagonal n-i)."""
    return hessenberg_quasidet(
        n,
        lambda i, j: psi_shifted(j - i + 1, n - j, base),
        subdiag=[n - i for i in range(1, n)],
    )


def verify_translations(n: int, base: ParamSequence = SEQ_A) -> tuple[bool, str]:
    """All four translation quasideterminants at degree n."""
    p = psi(n, base)
    if translation_psi_from_s(n, base) != p:
        return False, f"Psi-from-S quasideterminant fails at n={n}"
    if translation_psi_from_lambda(n, base) != p:
        return False, f"Psi-from-Lambda quasideterminant fails at n={n}"
    if translation_s_from_psi(n, base) != shift_S(n, n - 1, base).scale(Fraction(n)):
        return False, f"S-from-Psi quasideterminant fails at n={n}"
    if translation_lambda_from_psi(n, base) != lambda_in_S(n, base).scale(Fraction(n)):
        return False, f"Lambda-from-Psi quasideterminant fails at n={n}"
    return True, ""


# -- the finite-variable embedding --------------------------------------------


@cache
def embed_unshifted(n: int) -> NCElement:
    """The unshifted S_n written in the shifted S-basis.

    Coefficient of S_{n-i;a} is h_i(a_1, ..., a_{n-i}), read off from the
    geometric-series re-expansion of the generating series.
    """
    if n == 0:
        return NCElement.one()
    out = NCElement.zero()
    for k in range(1, n + 1):
        h = complete_homogeneous(SEQ_A.values(k), n - k)[n - k]
        out = out + NCElement.gen(k).scale(h)
    return out


@cache
def project_shifted(n: int) -> NCElement:
    """S_{n;a} written in unshifted S-letters (triangular inverse of embed).

    Matches sum_i (-1)^i e_i(a_1,...,a_{n-1}) S_{n-i}.
    """
    if n == 0:
        return NCElement.one()
    embedded = embed_unshifted(n).terms
    out = NCElement.gen(n)
    for k in range(1, n):
        out = out - project_shifted(k).scale(embedded[(k,)])
    return out


def all_words(max_degree: int) -> list[Word]:
    """Every word of degree up to max_degree, in serialization order."""
    out: list[Word] = [()]
    for d in range(1, max_degree + 1):
        out.extend(compositions_of(d))
    return out


def compositions_of(d: int) -> list[Word]:
    """All compositions of d, lexicographically: one per set of cut points in 1..d-1."""
    if d == 0:
        return [()]
    return sorted(
        tuple(b - a for a, b in pairwise((0, *cuts, d)))
        for r in range(d)
        for cuts in combinations(range(1, d), r)
    )
