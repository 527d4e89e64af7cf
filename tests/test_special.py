"""Matrix specialization: printed formulas, symmetries, recovery, quasi-Schur."""

import random
from fractions import Fraction

import pytest

from ncshift.params import SEQ_A, ParamSubstitution
from ncshift.quasidet import MatValue, SingularMinor, block_quasidet, random_mat
from ncshift.ribbon import Composition, ribbon
from ncshift.special import (
    VariableAssignment,
    ZeroDenominator,
    check_extension,
    check_shifted_symmetry,
    commutative_oracle,
    commutative_recovery,
    evaluate_nc,
    frobenius_form,
    giambelli_check,
    hook_partition,
    lambda_spec,
    quasi_schur_lambda_form,
    quasi_schur_spec,
    s_spec,
    shifted_power,
    spec_value,
    swap_variables,
    variable_shift_defect,
)

from tests_support import phi_psi_relation_defect

STAR = ParamSubstitution.equidistant(1, -1)  # a_i = i - 1


def assignment(n, d, seed, sub=STAR, tries=24):
    for attempt in range(tries):
        rng = random.Random(seed + attempt)
        A = VariableAssignment(
            tuple(random_mat(rng, d) for _ in range(n)), sub
        )
        try:
            s_spec(min(n, 2), A)
            lambda_spec(min(n, 2), A)
            return A
        except SingularMinor:
            continue
    pytest.skip("no nonsingular sample")


def test_shifted_power_examples():
    x = MatValue([[2, 1], [0, 3]])
    assert shifted_power(x, STAR, 0) == MatValue.identity(2)
    zero = ParamSubstitution.equidistant(0, 0)
    assert shifted_power(x, zero, 3) == x * x * x
    y = MatValue([[3]])
    assert shifted_power(y, STAR, 3) == MatValue([[6]])  # 3 * 2 * 1


def test_printed_small_formulas():
    for d in (1, 2, 3):
        for seed in (1, 2, 3):
            rng = random.Random(1000 * d + seed)
            x1, x2 = random_mat(rng, d), random_mat(rng, d)
            I = MatValue.identity(d)
            A1 = VariableAssignment((x1,), STAR)
            assert lambda_spec(1, A1) == x1
            assert s_spec(1, A1) == x1
            A2 = VariableAssignment((x1, x2), STAR)
            try:
                den = (x2 - x1 - I).inverse()
                s1 = (x2 * (x2 - I) - (x1 + I) * x1) * den
                assert s_spec(1, A2) == s1
                assert lambda_spec(1, A2) == s1
                l2 = (x2 * (x2 - I) - x1 * x2) * (
                    (x1 + I).inverse() * x2 - I
                ).inverse()
                assert lambda_spec(2, A2) == l2
                s2 = (x2 * (x2 - I) * (x2 - 2 * I) - (x1 + I) * x1 * (x1 - I)) * den
                assert s_spec(2, A2) == s2
            except SingularMinor:
                continue


def test_lambda_vanishing_beyond_variable_count():
    for n in (1, 2, 3):
        A = assignment(n, 2, 140 + n)
        for k in range(n + 1, n + 3):
            assert lambda_spec(k, A).is_zero()


def test_s_does_not_vanish_beyond_variable_count():
    # the defining series forces S_2(x_1) = <x_1|a>^2; the displayed claim
    # that S_k vanishes for k > n contradicts the commutative recovery
    x = MatValue([[Fraction(5, 2)]])
    A = VariableAssignment((x,), STAR)
    assert s_spec(2, A) == shifted_power(x, STAR, 2)
    assert not s_spec(2, A).is_zero()


def test_zero_matrix_values_k0():
    A = assignment(2, 2, 150)
    assert s_spec(0, A) == MatValue.identity(2)
    assert lambda_spec(0, A) == MatValue.identity(2)


def test_variable_shift_laws():
    A = assignment(2, 2, 160)
    assert spec_value("S", 1, A.shift_all(0)) == s_spec(1, A)
    for k in (1, 2):
        assert variable_shift_defect(k, A).is_zero()
        assert phi_psi_relation_defect(k, A).is_zero()
    # c = 0 makes the shift the identity
    zero = ParamSubstitution.equidistant(0, 0)
    A0 = assignment(2, 2, 170, sub=zero)
    for k in (1, 2):
        assert spec_value("S", k, A0.shift_all(3)) == s_spec(k, A0)


def _checked_symmetry(n, d, seed, k, i, sub=STAR, tries=24):
    for attempt in range(tries):
        A = assignment(n, d, seed + 1000 * attempt, sub=sub)
        try:
            return check_shifted_symmetry(k, A, i)
        except SingularMinor:
            continue
    pytest.skip("no nonsingular swapped sample")


def test_shifted_symmetry():
    # c = 0: plain transposition invariance
    zero = ParamSubstitution.equidistant(0, 0)
    assert _checked_symmetry(2, 2, 190, 1, 1, sub=zero)
    assert _checked_symmetry(2, 2, 191, 2, 1, sub=zero)
    # printed example: n = 2 invariance under (x1, x2) -> (x2 - 1, x1 + 1)
    for k in (1, 2):
        assert _checked_symmetry(2, 2, 200 + k, k, 1)
    assert _checked_symmetry(4, 2, 210, 3, 2)


def test_ribbon_specialization_symmetry():
    A = assignment(3, 2, 230)
    for I in (Composition((2, 1)), Composition((1, 2)), Composition((2, 2))):
        x = ribbon(I)
        for i in (1, 2):
            assert evaluate_nc(x, A) == evaluate_nc(x, swap_variables(A, i))


def test_denominator_stability_under_reindexing():
    # the denominator grid with the offsets of n+1 rows reduces to the n-row one
    A = assignment(3, 2, 240)
    lhs = _grid(A, A.n + 1, list(range(A.n)), A.n)
    rhs = _grid(A, A.n, list(range(A.n)), A.n)
    assert lhs == rhs


def test_extension_stability():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            A = assignment(n, 2, 260 + 10 * n + k)
            assert check_extension(k, A)
    # printed instance: S_1(x_1, 0) = x_1 when a_1 = 0
    x1 = MatValue([[Fraction(3)]])
    A = VariableAssignment((x1, MatValue([[0]])), STAR)
    assert s_spec(1, A) == x1


def test_defining_relation_under_unshifted_specialization():
    # c = 0: sum_{i+j=m} (-1)^j S_i(x) Lambda_j(x) = delta_{m,0} up to m = n
    zero = ParamSubstitution.equidistant(0, 0)
    A = assignment(3, 2, 280, sub=zero)
    d = A.d
    for m in range(1, A.n + 1):
        acc = MatValue.zeros(d)
        for j in range(m + 1):
            term = s_spec(m - j, A) * lambda_spec(j, A)
            acc = acc + (term if j % 2 == 0 else -term)
        assert acc.is_zero()


def test_commutative_recovery():
    rng = random.Random(31415)
    for n in range(1, 5):
        for k in range(1, 5):
            for _ in range(40):
                scalars = [
                    Fraction(rng.randint(-9, 12), rng.choice([1, 2, 3]))
                    for _ in range(n)
                ]
                try:
                    assert commutative_recovery(k, n, scalars)
                    break
                except SingularMinor:  # ZeroDenominator included
                    continue


def test_recovery_at_shifted_schur_vanishing_point():
    # x = (lambda_i + n - i) pattern makes falling factorials vanish; both
    # sides agree (here: they are both zero or both the same value)
    scalars = [Fraction(3), Fraction(1)]  # x_1 = lambda_1 + 1, x_2 = lambda_2
    try:
        assert commutative_recovery(2, 2, scalars)
    except ZeroDenominator:
        pytest.skip("denominator vanished for this sample")


def test_recovery_k_beyond_n():
    # the oracle ratio is nonzero for the complete homogeneous family and
    # zero for the elementary one
    assert commutative_oracle("L", 3, [Fraction(2), Fraction(5, 2)]) == 0
    val = commutative_oracle("S", 2, [Fraction(5, 2)])
    assert val == Fraction(5, 2) * Fraction(3, 2)


def test_quasi_schur_row_and_column():
    A = assignment(4, 2, 300)
    for k in (1, 2, 3):
        assert quasi_schur_spec((k,), A) == s_spec(k, A)
        assert quasi_schur_spec((1,) * k, A) == lambda_spec(k, A)


def test_quasi_schur_conjugate_identity():
    A = assignment(4, 2, 310)
    assert quasi_schur_spec((1, 1, 2), A) == quasi_schur_lambda_form((1, 3), A)
    assert quasi_schur_spec((1, 3), A) == quasi_schur_lambda_form((1, 1, 2), A)


def test_quasi_schur_requires_partition():
    A = assignment(2, 1, 320)
    with pytest.raises(ValueError):
        quasi_schur_spec((2, 1, 2), A)


def test_frobenius_form():
    assert frobenius_form((1, 1, 2)) == ((2,), (1,))
    assert frobenius_form((2, 2)) == ((0, 1), (0, 1))
    assert hook_partition(2, 1) == (1, 1, 2)
    assert hook_partition(0, 3) == (4,)


def test_giambelli():
    A = assignment(4, 2, 330)
    for shape in ((2, 2), (1, 2, 2), (2, 3), (1, 1, 3)):
        try:
            assert giambelli_check(shape, A)
        except SingularMinor:
            continue


def test_assignment_json_round_trip():
    A = assignment(2, 2, 340)
    data = A.to_json()
    B = VariableAssignment.from_json(data)
    assert B.vars == A.vars and B.sub == A.sub
    assert data["d"] == 2 and len(data["vars"]) == 2
    assert all(len(v) == 4 for v in data["vars"])


def test_assignment_validation():
    with pytest.raises(ValueError):
        VariableAssignment((MatValue([[1]]),), ParamSubstitution.symbolic())
    with pytest.raises(ValueError):
        VariableAssignment(
            (MatValue([[1]]), MatValue.identity(2)), STAR
        )
    with pytest.raises(ValueError):
        VariableAssignment((), STAR)


def test_vanishing_cases_fail_when_no_sample_is_evaluated(monkeypatch):
    import ncshift.suites as suites

    # every draw singular -> the vanishing cases have checked nothing and
    # must not report the (misprinted) S-vanishing claim as true
    def singular(k, assignment):
        raise SingularMinor("forced")

    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "2")
    monkeypatch.setattr(suites, "lambda_spec", singular)
    cases = {c.id: c for c in suites.suite_specialization(degree=2).cases}
    for id in ("vanishing-lambda", "vanishing-s-printed"):
        assert not cases[id].passed
        assert cases[id].witness.startswith("no sample was evaluated")


@pytest.mark.parametrize(
    "suite, patched, case",
    [
        ("suite_specialization", "lambda_spec", "printed-n2-formulas"),
        ("suite_specialization", "lambda_spec", "variable-shift-law"),
        ("suite_symmetry", "evaluate_nc", "ribbon-symmetry"),
        ("suite_giambelli", "giambelli_check", "giambelli-rank-le-2"),
    ],
)
def test_randomized_cases_fail_when_no_sample_is_evaluated(monkeypatch, suite, patched, case):
    import ncshift.suites as suites

    def singular(*args):
        raise SingularMinor("forced")

    monkeypatch.setenv("NCSHIFT_MAX_RESEED", "2")
    monkeypatch.setattr(suites, patched, singular)
    cases = {c.id: c for c in getattr(suites, suite)(degree=2).cases}
    assert not cases[case].passed
    assert cases[case].witness == suites.NO_SAMPLE


def test_printed_n2_formulas_redraw_a_singular_point(monkeypatch):
    # the first draw is singular: it is redrawn, so all 9 points are evaluated
    import ncshift.suites as suites

    lambda_spec = suites.lambda_spec
    calls = []

    def first_singular(k, A):
        calls.append(k)
        if len(calls) == 1:
            raise SingularMinor("forced")
        return lambda_spec(k, A)

    points = {}
    sampled = suites.Report.sampled

    def recorded(self, id, found, *args):
        points[id] = list(found)
        return sampled(self, id, points[id], *args)

    monkeypatch.setattr(suites, "lambda_spec", first_singular)
    monkeypatch.setattr(suites.Report, "sampled", recorded)
    suites.suite_specialization(degree=1)
    assert points["printed-n2-formulas"] == [[]] * 9


# -- the per-assignment memo against the formula restated without it ------------


def _grid(A, s, exps, box_row):
    """Quasideterminant of rows <x_j | tau^{j-s} a>^m, m in exps, boxed at (box_row, n)."""
    blocks = [
        [shifted_power(A.vars[j], A.sub, m, SEQ_A.tau(j + 1 - s)) for j in range(A.n)]
        for m in exps
    ]
    return block_quasidet(blocks, box_row, A.n)


def _reference(family, k, A):
    """S_k / Lambda_k from public shifted_power, block_quasidet and inverse alone."""
    n, d = A.n, A.d
    if k == 0:
        return MatValue.identity(d)
    if family == "S":
        num = _grid(A, n, list(range(n - 1)) + [n + k - 1], n)
        return num * _grid(A, n, list(range(n)), n).inverse()
    if k > n:
        return MatValue.zeros(d)
    num = _grid(A, n, [m for m in range(n + 1) if m != n - k], n)
    val = num * _grid(A, n, list(range(n)), n - k + 1).inverse()
    return val if (k - 1) % 2 == 0 else -val


SPEC = {"S": s_spec, "L": lambda_spec}
KS = range(5)
ORDERS = {
    "lambda-first": [(f, k) for f in ("L", "S") for k in KS],
    "k-descending": [(f, k) for k in reversed(KS) for f in ("S", "L")],
    "repeated": [(f, k) for f in ("S", "L") for k in KS for _ in range(2)],
}


def _memo_points():
    # up to n = 4 and 3 x 3 blocks: Lambda_2 and Lambda_3 then box against
    # minors that drop an interior row
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3):
            for seed in range(3):
                yield n, d, 500 + 100 * n + 10 * d + seed


def _reference_or_singular(family, k, A):
    try:
        return _reference(family, k, A)
    except SingularMinor:
        return SingularMinor


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_memoized_values_match_reference(order):
    for n, d, seed in _memo_points():
        rng = random.Random(seed)
        vars = tuple(random_mat(rng, d) for _ in range(n))
        fresh = VariableAssignment(vars, STAR)
        want = {(f, k): _reference_or_singular(f, k, fresh) for f in SPEC for k in KS}
        A = VariableAssignment(vars, STAR)
        for f, k in ORDERS[order]:
            if want[f, k] is SingularMinor:
                with pytest.raises(SingularMinor):
                    SPEC[f](k, A)
            else:
                assert SPEC[f](k, A) == want[f, k], (order, n, d, seed, f, k)


def test_memo_is_not_shared_with_derived_assignments():
    from ncshift.special import _power

    A = assignment(3, 2, 600)
    for k in KS:
        s_spec(k, A), lambda_spec(k, A)
    for B in (swap_variables(A, 1), swap_variables(A, 2), A.shift_all(1)):
        for f in SPEC:
            for k in range(1, 4):
                assert SPEC[f](k, B) == _reference(f, k, B)
        # S and Lambda are invariant under the swaps, the shifted powers are
        # not: a power chain served from A's memo would show here
        for j in range(3):
            for m in range(1, 7):
                want = shifted_power(B.vars[j], B.sub, m, SEQ_A.tau(j - 2))
                assert want != _power(A, j, j - 2, m) or B.vars[j] == A.vars[j]
                assert _power(B, j, j - 2, m) == want
    shifted = A.shift_all(1)
    assert all(s_spec(k, shifted) != s_spec(k, A) for k in (1, 2, 3))


def test_memo_is_not_part_of_identity():
    A = assignment(2, 2, 610)
    fresh = VariableAssignment(A.vars, A.sub)
    for k in KS:
        s_spec(k, A), lambda_spec(k, A)
    assert A == fresh and hash(A) == hash(fresh)
    assert repr(A) == repr(fresh)
    assert s_spec(3, fresh) == s_spec(3, A)


def test_singular_assignment_raises_on_every_call():
    # a_i = i - 1: the denominator <x_2|a>^1 - <x_1|tau^-1 a>^1 = x_2 - x_1 - 1 vanishes
    A = VariableAssignment((MatValue([[0]]), MatValue([[1]])), STAR)
    for spec in (s_spec, lambda_spec):
        for _ in range(2):
            with pytest.raises(SingularMinor):
                spec(2, A)


def test_singular_shared_minor_raises_on_every_call():
    # x_2 = x_1 + c Id gives the first two columns of every grid the same
    # shifted powers, so the minor each S_k and Lambda_k shares is singular
    rng = random.Random(620)
    x, y = random_mat(rng, 2), random_mat(rng, 2)
    A = VariableAssignment((x, x + STAR.c, y), STAR)
    for f in SPEC:
        for k in (1, 2, 3):
            assert _reference_or_singular(f, k, A) is SingularMinor
            for _ in range(2):
                with pytest.raises(SingularMinor):
                    SPEC[f](k, A)
    assert {key[0] for key in A._memo} == {"power"}


def test_quasi_schur_is_memoized(monkeypatch):
    import ncshift.special as special

    A = assignment(3, 2, 630)
    value = quasi_schur_spec((1, 2), A)
    calls = []

    def counting(*args):
        calls.append(args)
        return block_quasidet(*args)

    monkeypatch.setattr(special, "block_quasidet", counting)
    assert quasi_schur_spec((1, 2), A) == value
    assert calls == []
    assert quasi_schur_spec((1, 2), VariableAssignment(A.vars, A.sub)) == value
    assert len(calls) == 1


def test_singular_quasi_schur_is_not_memoized(monkeypatch):
    import ncshift.special as special

    A = assignment(3, 2, 640)
    calls = []

    def singular(*args):
        calls.append(args)
        raise SingularMinor("forced")

    monkeypatch.setattr(special, "block_quasidet", singular)
    for _ in range(2):
        with pytest.raises(SingularMinor):
            quasi_schur_spec((2, 2), A)
    assert len(calls) == 2
    assert not any(key[0] == "Q" for key in A._memo)


def test_memoized_quasi_schur_matches_fresh_assignment():
    # every shape the giambelli suite checks up to degree 6, with its hooks,
    # served from one shared memo against a fresh assignment per shape
    from ncshift.ribbon import all_compositions

    A = assignment(3, 2, 650)
    parts = {tuple(sorted(I.parts)) for m in range(2, 7) for I in all_compositions(m)}
    shapes = [s for s in sorted(parts) if len(frobenius_form(s)[0]) <= 2]
    for shape in shapes:
        try:
            giambelli_check(shape, A)
        except SingularMinor:
            continue
    memoized = {key[1]: value for key, value in A._memo.items() if key[0] == "Q"}
    assert set(shapes) <= set(memoized)
    for shape, value in memoized.items():
        assert quasi_schur_spec(shape, VariableAssignment(A.vars, A.sub)) == value, shape
