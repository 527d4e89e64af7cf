"""Quasideterminant engines: symbolic Hessenberg and exact block-matrix."""

import random
from collections import Counter
from fractions import Fraction
from itertools import count, permutations

import pytest

from ncshift.algebra import NCElement
from ncshift.params import ParamPoly
from ncshift.quasidet import (
    ExhaustedRetries,
    MatValue,
    ShapeError,
    SingularMinor,
    _flatten,
    block_quasidet,
    first_nonsingular,
    hessenberg_quasidet,
    random_mat,
    verify_bazin,
)
from ncshift.shifts import shift_S
from ncshift.special import ZeroDenominator

a = ParamPoly.gen
S = NCElement.gen


def test_hessenberg_1x1():
    e = S(2).scale(a(1))
    assert hessenberg_quasidet(1, lambda i, j: e) == e


def test_hessenberg_2x2_ribbon_entries():
    # (-1)^(2-1) |A|_{12} = -(e12 - e11 e22) for unit subdiagonal
    i, j = 2, 3
    rows = [
        [shift_S(i, i), shift_S(i + j, i)],
        [None, shift_S(j, 0)],
    ]
    q = hessenberg_quasidet(2, lambda r, c: rows[r - 1][c - 1])
    assert q == shift_S(i, i) * S(j) - shift_S(i + j, i)


def test_hessenberg_3x3_expansion():
    # four-term alternating expansion over break subsets; (-1)^(3-1) = 1
    def e(i, j):
        return NCElement.word((10 * i + j,))

    q = hessenberg_quasidet(3, e)
    expect = e(1, 3) - e(1, 1) * e(2, 3) - e(1, 2) * e(3, 3) + e(1, 1) * e(2, 2) * e(3, 3)
    assert q == expect


def test_hessenberg_asks_each_entry_once():
    for n in range(1, 6):
        asked = Counter()

        def entry(i, j):
            asked[i, j] += 1
            return NCElement.word((10 * i + j,))

        hessenberg_quasidet(n, entry, subdiag=[2] * (n - 1))
        assert asked == Counter((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def test_hessenberg_scalar_subdiagonal():
    # left-scaling non-boxed rows leaves the quasideterminant unchanged;
    # an arbitrary rational subdiagonal is normalized the same way
    def e(i, j):
        return NCElement.word((i + j - 1,))

    plain = hessenberg_quasidet(3, e)
    row_scale = [1, -2, Fraction(1, 3)]
    q = hessenberg_quasidet(
        3, lambda i, j: e(i, j).scale(row_scale[i - 1]), subdiag=[-2, Fraction(1, 3)]
    )
    assert q == plain


def test_hessenberg_shape_errors():
    with pytest.raises(ShapeError):
        hessenberg_quasidet(0, lambda i, j: S(1))
    with pytest.raises(ShapeError):
        hessenberg_quasidet(3, lambda i, j: S(1), subdiag=[1])


def test_matvalue_inverse_and_det():
    rng = random.Random(5)
    for _ in range(20):
        m = random_mat(rng, 3)
        try:
            inv = m.inverse()
        except SingularMinor:
            assert m.det() == 0
            continue
        assert m * inv == MatValue.identity(3)
        assert inv * m == MatValue.identity(3)
        # determinant against permutation expansion
        brute = Fraction(0)
        for perm in permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = Fraction(1)
            for i in range(3):
                term *= m.data[i][perm[i]]
            brute += sign * term
        assert m.det() == brute


def test_matvalue_plus_rational_is_plus_multiple_of_identity():
    rng = random.Random(7)
    for d in (1, 2, 3):
        m = random_mat(rng, d)
        for c in (0, 2, Fraction(-1, 2)):
            assert m + c == m + MatValue.scalar(d, c)
            assert m - c == m - MatValue.scalar(d, c)


def _gauss_jordan_inverse(m):
    """Reference inverse: Gauss-Jordan over Fraction, or None if singular."""
    n = m.n
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.data)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return MatValue([row[n:] for row in aug])


def test_matvalue_inverse_matches_fraction_gauss_jordan():
    # many zero entries force row exchanges; mixed denominators exercise the
    # exact divisions of the fraction-free elimination
    rng = random.Random(41)
    pool = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-5, 7), Fraction(9, 4)]
    pool += [Fraction(0)] * 3
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        m = MatValue([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        want = _gauss_jordan_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(SingularMinor):
                m.inverse()
        else:
            assert m.inverse() == want
    assert 0 < singular < 400


def test_block_quasidet_base_cases():
    rng = random.Random(11)
    b = random_mat(rng, 2)
    assert block_quasidet([[b]], 1, 1) == b
    blocks = [[random_mat(rng, 2) for _ in range(2)] for _ in range(2)]
    got = block_quasidet(blocks, 1, 1)
    want = blocks[0][0] - blocks[0][1] * blocks[1][1].inverse() * blocks[1][0]
    assert got == want


def test_block_quasidet_row_permutation_invariance():
    # permuting two non-selected rows leaves |A|_{pq} unchanged
    rng = random.Random(23)
    for _ in range(10):
        blocks = [[random_mat(rng, 2) for _ in range(3)] for _ in range(3)]
        try:
            ref = block_quasidet(blocks, 1, 1)
            swapped = [blocks[0], blocks[2], blocks[1]]
            assert block_quasidet(swapped, 1, 1) == ref
        except SingularMinor:
            continue


def test_block_quasidet_row_scaling_invariance():
    # left-multiplying a non-selected row by an invertible matrix is neutral
    rng = random.Random(29)
    for _ in range(10):
        blocks = [[random_mat(rng, 2) for _ in range(3)] for _ in range(3)]
        g = random_mat(rng, 2)
        try:
            g.inverse()
            ref = block_quasidet(blocks, 1, 2)
            scaled = [blocks[0], [g * x for x in blocks[1]], blocks[2]]
            assert block_quasidet(scaled, 1, 2) == ref
        except SingularMinor:
            continue


def test_block_quasidet_commutative_det_ratio():
    # for d = 1, |A|_{pq} = (-1)^{p+q} det(A)/det(A^{pq})
    rng = random.Random(31)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        blocks = [[random_mat(rng, 1) for _ in range(n)] for _ in range(n)]
        full = _flatten(blocks, 1)
        p = rng.randint(1, n)
        q = rng.randint(1, n)
        minor = MatValue(
            [
                [full.data[i][j] for j in range(n) if j != q - 1]
                for i in range(n)
                if i != p - 1
            ]
        )
        if minor.det() == 0:
            continue
        got = block_quasidet(blocks, p, q).data[0][0]
        assert got == (-1) ** (p + q) * full.det() / minor.det()


def test_block_quasidet_inverse_block_property():
    # |A|_{pq} = ((A^{-1})_{qp})^{-1}
    rng = random.Random(37)
    for n, d in [(3, 2)] * 10 + [(4, 2)] * 4:
        blocks = [[random_mat(rng, d) for _ in range(n)] for _ in range(n)]
        try:
            inv = _flatten(blocks, d).inverse()
        except SingularMinor:
            continue
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                sub = MatValue(
                    [
                        [inv.data[(q - 1) * d + r][(p - 1) * d + c] for c in range(d)]
                        for r in range(d)
                    ]
                )
                try:
                    expected = sub.inverse()
                    got = block_quasidet(blocks, p, q)
                except SingularMinor:
                    continue
                assert got == expected


def test_bazin_trivial_k1():
    assert verify_bazin(2, 1, 1, seed=3, variant="printed")
    assert verify_bazin(2, 1, 2, seed=3, variant="printed")
    assert verify_bazin(3, 1, 2, seed=3, variant="corrected")


def test_bazin_scalar_case():
    for seed in range(5):
        assert verify_bazin(2, 2, 1, seed=100 + seed, variant="printed")
        assert verify_bazin(2, 2, 1, seed=100 + seed, variant="corrected")


def test_bazin_corrected_noncommutative():
    for seed in range(5):
        assert verify_bazin(3, 3, 2, seed=200 + seed, variant="corrected")
        assert verify_bazin(3, 2, 2, seed=300 + seed, variant="corrected")


def test_bazin_printed_reading_fails_noncommutatively():
    # the published display does not survive matrix entries; the corrected
    # transposed reading (exercised above) does
    results = [verify_bazin(2, 2, 2, seed=400 + s, variant="printed") for s in range(6)]
    assert not all(results)


def test_bazin_exhausted_retries(monkeypatch):
    import ncshift.quasidet as qd

    # every sampled matrix singular -> bounded reseeding must give up
    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "3")
    monkeypatch.setattr(qd, "random_mat", lambda rng, d: MatValue.zeros(d))
    with pytest.raises(ExhaustedRetries):
        verify_bazin(2, 2, 2, seed=1)


def test_bazin_respects_reseed_env(monkeypatch):
    import ncshift.quasidet as qd

    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "2")
    calls = []
    original = qd.random_mat

    def counting(rng, d):
        calls.append(1)
        return MatValue.zeros(d)

    monkeypatch.setattr(qd, "random_mat", counting)
    with pytest.raises(ExhaustedRetries):
        verify_bazin(2, 1, 1, seed=1)
    # 3 attempts (NCSHIFT_MAX_RESEED + 1), each drawing a 2n x n = 4 x 2 block matrix
    assert len(calls) == 3 * 8


def _counted(points):
    """The points, with each one recorded in taken as it is drawn."""
    taken = []

    def draw():
        for p in points:
            taken.append(p)
            yield p

    return taken, draw()


def test_first_nonsingular_spends_the_budget(monkeypatch):
    def singular(p):
        raise SingularMinor("forced")

    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "2")
    taken, points = _counted(count())
    with pytest.raises(ExhaustedRetries, match="^no nonsingular sample in 3 draws$"):
        first_nonsingular(points, singular)
    assert taken == [0, 1, 2]


def test_first_nonsingular_stops_at_the_first_good_point(monkeypatch):
    def check(p):
        if p < 2:
            raise SingularMinor("forced")
        return 10 * p

    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "5")
    taken, points = _counted(count())
    assert first_nonsingular(points, check) == 20
    assert taken == [0, 1, 2]


def test_first_nonsingular_only_redraws_singular_points(monkeypatch):
    def vanishing_first(p):
        if p == 0:
            raise ZeroDenominator("vanishing Vandermonde-type determinant")
        return p

    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "5")
    # an arithmetic error that is no singular draw is a fault, not a redraw
    for error in (ValueError, ZeroDivisionError):

        def bad(p):
            raise error("not a sampling failure")

        taken, points = _counted(count())
        with pytest.raises(error, match="not a sampling failure"):
            first_nonsingular(points, bad)
        assert taken == [0]
    taken, points = _counted(count())
    assert first_nonsingular(points, vanishing_first) == 1
    assert taken == [0, 1]


@pytest.mark.parametrize("variant", ["printed", "corrected"])
def test_bazin_redraws_a_singular_attempt_at_the_next_seed(monkeypatch, variant):
    import ncshift.quasidet as qd

    # n = k = d = 2: an attempt draws 2n x n = 8 blocks; the first attempt's are zero
    original = qd.random_mat

    def run(seed, zeros):
        drawn = []

        def recording(rng, d):
            m = MatValue.zeros(d) if len(drawn) < zeros else original(rng, d)
            drawn.append(m)
            return m

        monkeypatch.setattr(qd, "random_mat", recording)
        return verify_bazin(2, 2, 2, seed=seed, variant=variant), drawn[zeros:]

    for s in range(400, 403):
        got, redrawn = run(s, 8)
        want, drawn = run(s + 1, 0)
        assert got == want and redrawn == drawn and len(drawn) >= 8


def test_max_reseed_default(monkeypatch):
    from ncshift.quasidet import max_reseed_default

    monkeypatch.delenv("NCSHIFT_MAX_RESEED", raising=False)
    assert max_reseed_default() == 16
    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "0")
    assert max_reseed_default() == 0
    for bad in ("-1", "two", "1.5", ""):
        monkeypatch.setenv("NCSHIFT_MAX_RESEED", bad)
        with pytest.raises(ValueError, match="NCSHIFT_MAX_RESEED must be a non-negative integer"):
            max_reseed_default()
