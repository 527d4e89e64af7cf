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

Everything is computed over the sequence a, except lambda_in_S and omega,
which take a sequence: omega maps the algebra over a sequence to the one over
its dual, so omega and its Lambda-images are needed over a-hat too.

Memo tables are functools.cache tables, which are safe for concurrent
readers: a consistent map is observed, at worst a value is computed twice.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import combinations, pairwise
from operator import add

from .algebra import NCElement, Word, apply_letters
from .params import SEQ_A, SEQ_AHAT, ParamSequence
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
    return NCElement.sum_of_products(
        (
            (shift_S(n - j, n - 1, base).scale((-1) ** (n + 1 + j)), lambda_in_S(j, base))
            for j in range(n)
        ),
        add,
    )


@cache
def shift_Lambda(k: int, s: int) -> NCElement:
    """Lambda_k^[s] in the S-basis: S_k^[-s] over the dual sequence, read in Lambda-letters."""
    return lambda_words_to_s(shift_S(k, -s, SEQ_AHAT))


def lambda_by_quasidet(n: int) -> NCElement:
    """Lambda_n via the quasideterminant closed form (a checked theorem).

    Entry (i,j) of the Hessenberg matrix is S_{j-i+1}^[n-i]; unit subdiagonal.
    """
    if n == 0:
        return NCElement.one()
    return hessenberg_quasidet(n, lambda i, j: shift_S(j - i + 1, n - i))


def s_in_lambda(n: int) -> NCElement:
    """S_n as a polynomial in Lambda-letters, via the inverse closed form.

    The returned words are monomials in the elementary generators.  Entry
    (i,j) of the underlying matrix (1-indexed) is Lambda_{j-i+1}^[1-j] over
    Lambda-letters, that is S_{j-i+1}^[j-1] over the dual sequence.
    """
    if n == 0:
        return NCElement.one()
    return hessenberg_quasidet(n, lambda i, j: shift_S(j - i + 1, j - 1, SEQ_AHAT))


def lambda_words_to_s(x: NCElement) -> NCElement:
    """Interpret words of x as Lambda-monomials and expand in the S-basis."""
    # a passed as omega(x, SEQ_AHAT) passes it, so that both read the same
    # word_image entry of each word
    return apply_letters(x, lambda_in_S, args=(SEQ_A,))


def s_to_lambda(x: NCElement) -> NCElement:
    """Rewrite an S-basis element over Lambda-letters: omega, then every word reversed."""
    return NCElement({w[::-1]: c for w, c in omega(x).terms.items()})


def omega(x: NCElement, base: ParamSequence = SEQ_A) -> NCElement:
    """The duality anti-isomorphism into the algebra over the dual sequence.

    Words are reversed, each letter S_k becomes Lambda_k over the dual
    sequence, and coefficient polynomials pass through unchanged.
    """
    return apply_letters(x, lambda_in_S, True, (base.dual(),))


# -- power sums ---------------------------------------------------------------


def psi(n: int) -> NCElement:
    """The shifted power sum Psi_n in the S-basis."""
    return psi_shifted(n, 0)


@cache
def psi_shifted(n: int, s: int) -> NCElement:
    """Psi_n^[s]; coincides with phi_shift(psi(n), s)."""
    if n < 1:
        raise ValueError("power sums start at n = 1")
    return NCElement.sum_of_products(
        (
            (shift_Lambda(k, n - k + s), shift_S(n - k, n - k - 1 + s).scale((-1) ** k * (n - k)))
            for k in range(n)
        ),
        add,
    )


@cache
def s_in_psi_table(n: int) -> NCElement:
    """S_n over Psi-letters.

    Built from the Wronski recursion n S_n^[n-1] = sum_k S_k^[n-1] Psi_{n-k};
    its validity is pinned by the exact round trip with psi(n).
    """
    if n == 0:
        return NCElement.one()
    # the k = 0 term S_0^[n-1] Psi_n is the Psi_n letter
    acc = NCElement.sum_of_products(
        (
            (apply_letters(shift_S(k, n - 1), s_in_psi_table), NCElement.gen(n - k))
            for k in range(n)
        ),
        add,
    )
    # acc / n = S_n^[n-1] over Psi-letters: S_n plus lower single-letter
    # terms, whose images are subtracted
    lower = shift_S(n, n - 1) - NCElement.gen(n)
    return acc.scale(Fraction(1, n)) - apply_letters(lower, s_in_psi_table)


def psi_words_to_s(x: NCElement) -> NCElement:
    """Interpret words of x as Psi-monomials and expand in the S-basis."""
    return apply_letters(x, psi)


def s_to_psi(x: NCElement) -> NCElement:
    """Rewrite an S-basis element over Psi-letters (denominators 1/n appear)."""
    return apply_letters(x, s_in_psi_table)


# -- identity checks -----------------------------------------------------------


def check_lineareq(n: int) -> NCElement:
    """The defect of sum_{i+j=n} (-1)^j S_i^[n-1] Lambda_j (zero iff it holds)."""
    acc = NCElement.sum_of_products(
        ((shift_S(n - j, n - 1).scale((-1) ** j), lambda_in_S(j)) for j in range(n + 1)), add
    )
    if n == 0:
        acc = acc - NCElement.one()
    return acc


def wronski_newton_failures(n: int) -> Iterator[str]:
    """Witnesses of the fundamental, Wronski and Newton identities failing at
    degree n, lazily: a reader that stops at the first witness expands no
    identity past it."""
    # S_n^[n-1] = sum_{k=1}^{n} (-1)^{k-1} Lambda_k^[n-k] S_{n-k}^[n-1-k]
    rhs = NCElement.sum_of_products(
        (
            (shift_Lambda(k, n - k), shift_S(n - k, n - 1 - k).scale((-1) ** (k - 1)))
            for k in range(1, n + 1)
        ),
        add,
    )
    if shift_S(n, n - 1) != rhs:
        yield f"fundamental identity fails at n={n}"
    # n S_n^[n-1] = sum_{k=0}^{n-1} S_k^[n-1] Psi_{n-k}
    rhs = NCElement.sum_of_products(((shift_S(k, n - 1), psi(n - k)) for k in range(n)), add)
    if shift_S(n, n - 1).scale(n) != rhs:
        yield f"Wronski identity fails at n={n}"
    # n Lambda_n = sum_{k=0}^{n-1} (-1)^{n-k-1} Psi_{n-k}^[k] Lambda_k
    rhs = NCElement.sum_of_products(
        ((psi_shifted(n - k, k).scale((-1) ** (n - k - 1)), lambda_in_S(k)) for k in range(n)), add
    )
    if lambda_in_S(n).scale(n) != rhs:
        yield f"Newton identity fails at n={n}"


def translation_psi_from_s(n: int) -> NCElement:
    """Psi_n as the quasideterminant in shifted S's, last column weighted (-1)^(n-1) (n-i+1)."""
    sign = (-1) ** (n - 1)

    def entry(i: int, j: int) -> NCElement:
        e = shift_S(j - i + 1, n - i)
        return e.scale(sign * (n - i + 1)) if j == n else e

    return hessenberg_quasidet(n, entry)


def translation_psi_from_lambda(n: int) -> NCElement:
    """Psi_n as the quasideterminant in shifted Lambdas (first row weighted)."""

    def entry(i: int, j: int) -> NCElement:
        e = shift_Lambda(j - i + 1, n - j)
        return e.scale(j) if i == 1 else e

    return hessenberg_quasidet(n, entry)


def translation_s_from_psi(n: int) -> NCElement:
    """n S_n^[n-1] as the quasideterminant in shifted Psis, last column weighted (-1)^(n-1)."""
    def entry(i: int, j: int) -> NCElement:
        e = psi_shifted(j - i + 1, n - j)
        return -e if j == n and n % 2 == 0 else e

    return hessenberg_quasidet(n, entry, subdiag=[-i for i in range(1, n)])


def translation_lambda_from_psi(n: int) -> NCElement:
    """n Lambda_n as the quasideterminant in shifted Psis (subdiagonal n-i)."""
    return hessenberg_quasidet(
        n,
        lambda i, j: psi_shifted(j - i + 1, n - j),
        subdiag=[n - i for i in range(1, n)],
    )


def translation_failures(n: int) -> Iterator[str]:
    """Witnesses of the four translation quasideterminants failing at degree
    n, lazily: a reader that stops at the first witness expands no
    quasideterminant past it."""
    p = psi(n)
    if translation_psi_from_s(n) != p:
        yield f"Psi-from-S quasideterminant fails at n={n}"
    if translation_psi_from_lambda(n) != p:
        yield f"Psi-from-Lambda quasideterminant fails at n={n}"
    if translation_s_from_psi(n) != shift_S(n, n - 1).scale(n):
        yield f"S-from-Psi quasideterminant fails at n={n}"
    if translation_lambda_from_psi(n) != lambda_in_S(n).scale(n):
        yield f"Lambda-from-Psi quasideterminant fails at n={n}"


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
