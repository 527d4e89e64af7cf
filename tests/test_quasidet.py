"""Quasideterminant engines: symbolic Hessenberg and exact block-matrix."""

import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import count, permutations

import pytest

from ncshift import quasidet
from ncshift.algebra import NCElement
from ncshift.params import ParamPoly
from ncshift.quasidet import (
    ExhaustedRetries,
    MatValue,
    ShapeError,
    SingularMinor,
    _flatten,
    block_quasidet,
    combination,
    first_nonsingular,
    hessenberg_quasidet,
    random_mat,
    verify_bazin,
)
from ncshift.shifts import shift_S
from ncshift.special import ZeroDenominator
from tests_support import (
    assert_normal_form,
    random_element,
    ref_block_quasidet,
    ref_det,
    ref_flatten,
    ref_hessenberg_quasidet,
    ref_inverse,
    ref_product,
    ref_random_mat,
    ref_scalar,
    ref_sum,
)

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


def test_hessenberg_matches_per_pair_reference():
    # one accumulator call per row against the one-product-at-a-time loop,
    # at unit, integer and rational subdiagonals
    rng = random.Random(26)
    subdiagonals = (None, [-3, -1, 2, 5], [-3, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)])
    for n in range(1, 7):
        for pool in subdiagonals:
            subdiag = None if pool is None else [rng.choice(pool) for _ in range(n - 1)]
            entries = {
                (i, j): random_element(rng, max_degree=3, terms=3, monomials=2)
                for i in range(1, n + 1)
                for j in range(i, n + 1)
            }

            def entry(i, j):
                return entries[i, j]

            got = hessenberg_quasidet(n, entry, subdiag)
            assert got == ref_hessenberg_quasidet(n, entry, subdiag)
            assert_normal_form(got)


def test_hessenberg_shape_errors():
    with pytest.raises(ShapeError):
        hessenberg_quasidet(0, lambda i, j: S(1))
    with pytest.raises(ShapeError):
        hessenberg_quasidet(3, lambda i, j: S(1), subdiag=[1])


@pytest.mark.parametrize(
    "subdiag, position",
    [([0], "(2, 1)"), ([1, Fraction(0)], "(3, 2)"), (["1/2", "0", 3], "(3, 2)"), ([0, 0], "(2, 1)")],
)
def test_hessenberg_zero_subdiagonal_names_its_position(subdiag, position):
    with pytest.raises(ShapeError, match=f"zero subdiagonal entry at {re.escape(position)}"):
        hessenberg_quasidet(len(subdiag) + 1, lambda i, j: S(1), subdiag)


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
        want = ref_inverse(m.data)
        if want is None:
            singular += 1
            with pytest.raises(SingularMinor):
                m.inverse()
        else:
            assert m.inverse() == MatValue(want)
    assert 0 < singular < 400


#: entries with mixed denominators, a quarter of them zero
MIXED_POOL = [Fraction(k, q) for k in range(-5, 6) if k for q in (1, 2, 3, 4, 6, 9)]
MIXED_POOL += [Fraction(0)] * (len(MIXED_POOL) // 3)


def _mixed(rng, d):
    return [[rng.choice(MIXED_POOL) for _ in range(d)] for _ in range(d)]


def _lowest_terms(m):
    """m, after asserting its representation: int rows over den > 0 in lowest terms."""
    assert m.den > 0 and m.n == len(m.num)
    entries = [x for row in m.num for x in row]
    assert all(type(x) is int for x in entries) and len(entries) == m.n**2
    assert math.gcd(m.den, *entries) == 1
    return m


def _agrees(m, ref):
    """m is the reference matrix, entry by entry and as a MatValue."""
    _lowest_terms(m)
    return [list(row) for row in m.data] == ref and m == MatValue(ref)


def test_matvalue_ops_match_fraction_reference():
    rng = random.Random(53)
    singular = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        a, b, c = _mixed(rng, d), _mixed(rng, d), rng.choice(MIXED_POOL)
        A, B = MatValue(a), MatValue(b)
        assert _agrees(A, a) and _agrees(B, b)
        assert _agrees(A + B, ref_sum(a, b)) and _agrees(A - B, ref_sum(a, b, -1))
        assert _agrees(A + c, ref_sum(a, ref_scalar(d, c)))
        assert _agrees(A - c, ref_sum(a, ref_scalar(d, c), -1))
        assert _agrees(-A, ref_sum(ref_scalar(d, 0), a, -1))
        scaled = ref_product(ref_scalar(d, c), a)
        assert _agrees(A.scale(c), scaled) and _agrees(c * A, scaled) and _agrees(A * c, scaled)
        assert _agrees(A * B, ref_product(a, b))
        assert A.det() == ref_det(a)
        assert A.is_zero() == (a == ref_scalar(d, 0))
        inv = ref_inverse(a)
        if inv is None:
            singular += 1
            with pytest.raises(SingularMinor):
                A.inverse()
        else:
            assert _agrees(A.inverse(), inv)
    assert 0 < singular < 400


def test_random_mat_draws_the_fraction_pool_matrices():
    # the int pool over 2 picks the same entries as the Fraction pool and
    # leaves the stream where the Fraction draws left it
    for d in (1, 2, 3):
        for seed in range(50):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                m = random_mat(rng, d)
                assert m == ref_random_mat(ref, d) and _lowest_terms(m) is m
            assert rng.getstate() == ref.getstate()


#: scalar operands of every form MatValue accepts: ints (zero and negative
#: included), Fractions and 'p/q' strings, some not in lowest terms
SCALARS = [0, 1, 3, -4, Fraction(5, 6), Fraction(-7, 4), Fraction(-3), "2/3", "-9/6", "5", "0/7"]


def test_matvalue_scalar_operands_match_fraction_reference():
    rng = random.Random(73)
    for d in (1, 2, 3):
        assert _agrees(MatValue.identity(d), ref_scalar(d, 1))
        for c in SCALARS:
            assert _agrees(MatValue.scalar(d, c), ref_scalar(d, Fraction(c)))
        for _ in range(20):
            a = _mixed(rng, d)
            A = MatValue(a)
            for c in SCALARS:
                cid = ref_scalar(d, Fraction(c))
                assert _agrees(A + c, ref_sum(a, cid)) and _agrees(A - c, ref_sum(a, cid, -1))
                assert _agrees(A.scale(c), ref_product(cid, a))
            for p, q in ((0, 1), (5, 1), (-3, 2), (4, 6), (-10, 4)):
                assert _agrees(A._plus_scalar(p, q), ref_sum(a, ref_scalar(d, Fraction(p, q))))


def test_matvalue_rejects_non_rational_scalars():
    A = MatValue.identity(2)
    for c in (True, 0.5, None):
        for op in (A.__add__, A.__sub__, A.scale, partial(MatValue.scalar, 2)):
            with pytest.raises(TypeError):
                op(c)


def test_fused_step_and_combination_match_fraction_reference():
    rng = random.Random(71)
    for d in (1, 2, 3):
        for _ in range(40):
            a, b, c = _mixed(rng, d), _mixed(rng, d), rng.choice(MIXED_POOL)
            A, B = MatValue(a), MatValue(b)
            # the shifted-power step A (B - s Id) at a zero, a negative, a
            # non-integral and a drawn shift
            for s in (Fraction(0), Fraction(-3), Fraction(5, 6), c):
                want = ref_product(a, ref_sum(b, ref_scalar(d, s), -1))
                assert _agrees(A.times_shifted(B, s.numerator, s.denominator), want)
            terms = [(c, A), (Fraction(-2, 3), B), (3, MatValue.identity(d))]
            want = ref_sum(ref_product(ref_scalar(d, c), a), ref_scalar(d, 3))
            want = ref_sum(want, ref_product(ref_scalar(d, Fraction(2, 3)), b), -1)
            assert _agrees(combination(d, terms), want)
            assert _agrees(combination(d, [(c, A), (-c, A)]), ref_scalar(d, 0))
        assert _agrees(combination(d, []), ref_scalar(d, 0))


def test_block_quasidet_matches_fraction_reference():
    rng = random.Random(59)
    singular = 0
    for _ in range(150):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        blocks = [[_mixed(rng, d) for _ in range(n)] for _ in range(n)]
        p, q = rng.randint(1, n), rng.randint(1, n)
        want = ref_block_quasidet(blocks, p, q)
        mats = [[MatValue(blk) for blk in row] for row in blocks]
        if want is None:
            singular += 1
            with pytest.raises(SingularMinor):
                block_quasidet(mats, p, q)
        else:
            assert _agrees(block_quasidet(mats, p, q), want)
    assert 0 < singular < 150


def test_flatten_is_unreduced_integer_rows_over_the_lcm():
    # the minors, rows and columns handed to the elimination are not reduced
    rng = random.Random(67)
    for _ in range(60):
        n, m, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        blocks = [[_mixed(rng, d) for _ in range(m)] for _ in range(n)]
        mats = [[MatValue(blk) for blk in row] for row in blocks]
        rows, den = _flatten(mats, d)
        assert den == math.lcm(*(blk.den for row in mats for blk in row))
        assert all(type(x) is int for row in rows for x in row)
        assert [[Fraction(x, den) for x in row] for row in rows] == ref_flatten(blocks)


def test_matvalue_equal_values_by_different_routes_are_equal():
    half = MatValue([[Fraction(1, 2)]])
    for other in (MatValue([[Fraction(2, 4)]]), MatValue([["3/6"]]), MatValue([[3]]).scale("1/6")):
        assert other == half and hash(other) == hash(half)
    # 1/2 + 1/2 and 2 * (1/2) reduce to the integer 1
    for one in (half + half, half + Fraction(1, 2), half.scale(2), MatValue.identity(1)):
        assert (one.num, one.den) == (((1,),), 1) and hash(one) == hash(MatValue([[1]]))
    rng = random.Random(61)
    checked = 0
    for _ in range(100):
        d = rng.randint(1, 4)
        A = MatValue(_mixed(rng, d))
        try:
            inv = A.inverse()
        except SingularMinor:
            continue
        checked += 1
        for one in (A * inv, inv * A, _lowest_terms(inv).inverse() * inv):
            assert one == MatValue.identity(d) and hash(one) == hash(MatValue.identity(d))
        assert inv.inverse() == A and hash(inv.inverse()) == hash(A)
    assert checked > 50


def test_matvalue_inverse_with_negative_pivots():
    # Bareiss ends at the last pivot, here negative; the denominator stays positive
    for rows, inv in [
        ([[-2]], [[Fraction(-1, 2)]]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
        ([[1, 2], [3, 4]], [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]),
        ([[Fraction(1, 3), 1], [1, 0]], [[0, 1], [1, Fraction(-1, 3)]]),
    ]:
        got = _lowest_terms(MatValue(rows).inverse())
        assert got == MatValue(inv) and got.data == MatValue(inv).data


def test_block_quasidet_base_cases():
    rng = random.Random(11)
    b = random_mat(rng, 2)
    assert block_quasidet([[b]], 1, 1) == b
    blocks = [[random_mat(rng, 2) for _ in range(2)] for _ in range(2)]
    got = block_quasidet(blocks, 1, 1)
    want = blocks[0][0] - blocks[0][1] * blocks[1][1].inverse() * blocks[1][0]
    assert got == want


@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (0, 0), (3, 1), (1, 3), (-1, 1), (2, -2)])
def test_block_quasidet_rejects_indices_outside_the_matrix(p, q):
    # 0 and -1 would wrap to the last row or column, 3 would index past it
    rng = random.Random(12)
    blocks = [[random_mat(rng, 2) for _ in range(2)] for _ in range(2)]
    with pytest.raises(ValueError, match=r"need 1 <= p, q <= 2"):
        block_quasidet(blocks, p, q)


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
        full = MatValue(ref_flatten([[blk.data for blk in row] for row in blocks]))
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
            inv = MatValue(ref_flatten([[blk.data for blk in row] for row in blocks])).inverse()
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
    monkeypatch.setattr(qd, "MAX_RESEED", 3)
    monkeypatch.setattr(qd, "random_mat", lambda rng, d: MatValue.zeros(d))
    with pytest.raises(ExhaustedRetries):
        verify_bazin(2, 2, 2, seed=1)


def test_bazin_respects_reseed_budget(monkeypatch):
    import ncshift.quasidet as qd

    monkeypatch.setattr(qd, "MAX_RESEED", 2)
    calls = []
    original = qd.random_mat

    def counting(rng, d):
        calls.append(1)
        return MatValue.zeros(d)

    monkeypatch.setattr(qd, "random_mat", counting)
    with pytest.raises(ExhaustedRetries):
        verify_bazin(2, 1, 1, seed=1)
    # 3 attempts (MAX_RESEED + 1), each drawing a 2n x n = 4 x 2 block matrix
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

    monkeypatch.setattr(quasidet, "MAX_RESEED", 2)
    taken, points = _counted(count())
    with pytest.raises(ExhaustedRetries, match="^no nonsingular sample in 3 draws$"):
        first_nonsingular(points, singular)
    assert taken == [0, 1, 2]


def test_first_nonsingular_stops_at_the_first_good_point(monkeypatch):
    def check(p):
        if p < 2:
            raise SingularMinor("forced")
        return 10 * p

    monkeypatch.setattr(quasidet, "MAX_RESEED", 5)
    taken, points = _counted(count())
    assert first_nonsingular(points, check) == 20
    assert taken == [0, 1, 2]


def test_first_nonsingular_only_redraws_singular_points(monkeypatch):
    def vanishing_first(p):
        if p == 0:
            raise ZeroDenominator("vanishing Vandermonde-type determinant")
        return p

    monkeypatch.setattr(quasidet, "MAX_RESEED", 5)
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
