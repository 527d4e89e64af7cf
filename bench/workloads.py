"""Operations of the three benchmark workloads.

An op is one identity instance (a composition, a word, an (I,J) pair, a
sample point) or one CLI request.  Each op carries a golden key: ops with the
same key must produce the same output on every seed, which is what
goldens.json records.  A workload is built in two steps:

* ``pool(workload, scale, workdir)`` lists the workload's ops in a fixed
  order; every repetition runs all of them, and the golden capture
  evaluates them too.
* ``stream(workload, pool, seed)`` orders the whole pool from the seed:
  every seed runs the same ops, so seeds can be compared; the seed shuffles
  the blocks (the session requests) and the random matrix points come from
  a generator the caller seeds per op.

All ncshift calls go through module attributes (``R.omega``, not a bound
name), so the traced run sees them after it replaces those attributes.  Ops
call the functions that state the identities; the enumeration helpers and
the suite-private pieces they need (compositions, partitions, the threefold
coproduct) are restated here, so that a refactor of those helpers does not
change what the benchmark runs.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import import_module
from typing import Callable

# import_module, not `import ncshift.ribbon as R`: the package re-exports a
# function named `ribbon`, which shadows the submodule attribute.
A = import_module("ncshift.algebra")
C = import_module("ncshift.cli")
F = import_module("ncshift.families")
H = import_module("ncshift.hopf")
P = import_module("ncshift.params")
Q = import_module("ncshift.quasidet")
R = import_module("ncshift.ribbon")
SE = import_module("ncshift.series")
SH = import_module("ncshift.shifts")
SP = import_module("ncshift.special")

WORKLOADS = ("symbolic", "numeric", "session")
#: resampling budget for a singular random point, as in the suites
MAX_DRAWS = 16
#: random points a printed (misprinted) numeric claim is tried at
REFUTE_POINTS = 12
#: times each numeric check runs in a repetition, each at its own points
NUMERIC_DRAWS = 5


@dataclass
class Op:
    key: str
    run: Callable[[random.Random, "SampleStats"], object]
    block: str


@dataclass
class SampleStats:
    """Random points drawn by the numeric sampler, and how many were kept."""

    draws: int = 0
    accepted: int = 0


# -- symbolic ---------------------------------------------------------------


def _compositions(d: int) -> list[tuple[int, ...]]:
    """Compositions of d, lexicographically."""
    if d == 0:
        return [()]
    return [(k,) + rest for k in range(1, d + 1) for rest in _compositions(d - k)]


def _words(max_degree: int) -> list[tuple[int, ...]]:
    return [w for d in range(1, max_degree + 1) for w in _compositions(d)]


def _comps(max_degree: int) -> list:
    return [R.Composition(w) for w in _words(max_degree)]


def _omega_involution(k, rng, stats):
    x = A.NCElement.gen(k)
    return R.omega(R.omega(x), P.SEQ_AHAT) == x


def _duality(I, printed, rng, stats):
    w = R.duality_shift(I) + (1 if printed else 0)
    return R.omega(R.ribbon(I)) == R.ribbon_uniform(I.conjugate(), w, P.SEQ_AHAT)


def _ribbon_round_trip(I, rng, stats):
    back = R.to_ribbon_basis(R.ribbon(I))
    return back.terms == {(I.parts, I.row_shifts()): P.ParamPoly.one()}


def _macmahon(I, J, rng, stats):
    lhs = R.ribbon_uniform(I, R.macmahon_left_shift(I, J)) * R.ribbon(J)
    return lhs == R.from_ribbon_basis(R.macmahon_product(I, J))


def _hook(k, last):
    return R.Composition((1,) * k + (last,))


def _example_lambda_s(k, l, printed, rng, stats):
    a = P.ParamPoly.gen
    lhs = F.lambda_in_S(k) * A.NCElement.gen(l)
    if printed:
        rhs = R.ribbon(_hook(k, l)) + R.ribbon_uniform(_hook(k - 1, l + 1), 1)
        if k >= 2:
            rhs = rhs + (
                R.ribbon(_hook(k - 1, l)) + R.ribbon(_hook(k - 2, l + 1))
            ).scale(a(1) - a(k))
    else:
        rhs = (
            R.ribbon(_hook(k, l))
            + R.ribbon(_hook(k - 1, l + 1))
            + R.ribbon(_hook(k - 1, l)).scale(a(l) - a(1 - k))
        )
    return lhs == rhs


def _example_s_s(k, l, printed, rng, stats):
    rhs = A.NCElement.zero()
    for nu in range(k):
        term = R.ribbon(R.Composition((k - nu, l))) + SH.shift_S(k - nu + l, k - nu)
        if printed:
            c = SH.a_binomial(nu + k - 1, nu, 1 - k, P.SEQ_A.tau(k - nu))
        else:
            c = SH.a_binomial(k - 1, nu, -k)
        rhs = rhs + term.scale(c)
    return A.NCElement.gen(k) * A.NCElement.gen(l) == rhs


def _example_lambda_lambda(k, l, printed, rng, stats):
    rhs = A.NCElement.zero()
    for nu in range(k):
        body = F.lambda_in_S(k - nu + l) + R.ribbon(
            R.Composition((1,) * (k - nu - 1) + (2,) + (1,) * (l - 1))
        )
        seq = P.SEQ_AHAT.tau(-l) if printed else P.SEQ_AHAT
        rhs = rhs + body.scale(SH.a_binomial(l, nu, k - nu, seq))
    return F.lambda_in_S(k) * F.lambda_in_S(l) == rhs


def _delta_s2(rng, stats):
    one = P.ParamPoly.one()
    want = H.TensorElement({((2,), ()): one, ((1,), (1,)): one, ((), (2,)): one})
    return H.coproduct(A.NCElement.gen(2)) == want


def _delta_s3(printed, rng, stats):
    a, one = P.ParamPoly.gen, P.ParamPoly.one()
    if printed:
        mid = P.ParamPoly.const(Fraction(4, 3)) * (a(0) - a(1))
    else:
        mid = P.ParamPoly.const(Fraction(1, 3)) * (a(-1) - a(0)) + (a(1) - a(2))
    want = H.TensorElement(
        {
            ((3,), ()): one,
            ((2,), (1,)): one,
            ((1,), (2,)): one,
            ((), (3,)): one,
            ((1,), (1,)): mid,
        }
    )
    return H.coproduct(A.NCElement.gen(3)) == want


def _tensor3(d, left: bool) -> dict:
    """(Delta x id) Delta or (id x Delta) Delta as a dict of word triples."""
    out: dict = {}
    for (w1, w2), c in d.terms.items():
        leg = w1 if left else w2
        inner = H.coproduct(A.NCElement.word(leg) if leg else A.NCElement.one())
        for (u1, u2), c2 in inner.terms.items():
            key = (u1, u2, w2) if left else (w1, u1, u2)
            s = out.get(key, P.ParamPoly.zero()) + c * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _coassociativity(w, rng, stats):
    d = H.coproduct(A.NCElement.word(w))
    return _tensor3(d, True) == _tensor3(d, False)


def _counit_laws(w, rng, stats):
    x = A.NCElement.word(w)
    left = right = A.NCElement.zero()
    for (w1, w2), c in H.coproduct(x).terms.items():
        e1 = A.NCElement.word(w1) if w1 else A.NCElement.one()
        e2 = A.NCElement.word(w2) if w2 else A.NCElement.one()
        left = left + e2.scale(H.counit(e1) * c)
        right = right + e1.scale(H.counit(e2) * c)
    return left == x and right == x


def _algebra_morphism(w1, w2, rng, stats):
    x, y = A.NCElement.word(w1), A.NCElement.word(w2)
    return H.coproduct(x * y) == H.coproduct(x) * H.coproduct(y)


def _antipode(w, rng, stats):
    left, right = H.convolution_defect(A.NCElement.word(w))
    return left.is_zero() and right.is_zero()


def _defining_relation(n, rng, stats):
    return not SE.defining_relation_defect(n)


def _round_trip(kind, w, rng, stats):
    x = A.NCElement.word(w)
    if kind == "lambda":
        return F.lambda_words_to_s(F.s_to_lambda(x)) == x
    return F.psi_words_to_s(F.s_to_psi(x)) == x


def _symbolic_pool(scale: str) -> list[Op]:
    # Degrees are set so that one cold repetition takes a few seconds; the
    # suites' own defaults (omega(S_8), degree-6 duality) take half a minute.
    D = 5 if scale == "full" else 3
    ops: list[Op] = []

    def add(block, key, fn):
        ops.append(Op(key, fn, block))

    for k in range(1, D + 1):
        add("omega", f"omega-involution/k={k}", partial(_omega_involution, k))
    for I in _comps(D):
        add("duality", f"duality-corrected/I={I}", partial(_duality, I, False))
    for I in _comps(D - 1):
        add("duality", f"duality-printed/I={I}", partial(_duality, I, True))
    for I in _comps(D):
        add("ribbon-basis", f"ribbon-round-trip/I={I}", partial(_ribbon_round_trip, I))
    for total in range(2, D + 2):
        for dI in range(1, total):
            for I in map(R.Composition, _compositions(dI)):
                for J in map(R.Composition, _compositions(total - dI)):
                    add("macmahon", f"macmahon/I={I},J={J}", partial(_macmahon, I, J))
    for k in range(1, D):
        for l in range(1, D + 1 - k):
            for printed in (True, False):
                tag = "printed" if printed else "corrected"
                add("examples", f"example-lambda-s-{tag}/k={k},l={l}",
                    partial(_example_lambda_s, k, l, printed))
                if k >= 2:
                    add("examples", f"example-s-s-{tag}/k={k},l={l}",
                        partial(_example_s_s, k, l, printed))
                if l >= 2:
                    add("examples", f"example-lambda-lambda-{tag}/k={k},l={l}",
                        partial(_example_lambda_lambda, k, l, printed))
    add("hopf", "delta-s2", _delta_s2)
    add("hopf", "delta-s3-printed-symbolic", partial(_delta_s3, True))
    add("hopf", "delta-s3-corrected-symbolic", partial(_delta_s3, False))
    for w in _words(D - 1):
        for name, fn in (
            ("coassociativity", _coassociativity),
            ("counit-laws", _counit_laws),
            ("antipode-convolutions", _antipode),
        ):
            add("hopf", f"{name}/w={w}", partial(fn, w))
    small = _words(D - 2)
    for w1 in small:
        for w2 in small:
            if sum(w1) + sum(w2) <= D - 1:
                add("hopf", f"algebra-morphism/{w1}*{w2}",
                    partial(_algebra_morphism, w1, w2))
    for n in range(2, D + 3):
        add("defining-relation", f"defining-relation/N={n}", partial(_defining_relation, n))
    for w in _words(D):
        add("round-trips", f"round-trip-lambda/w={w}", partial(_round_trip, "lambda", w))
        add("round-trips", f"round-trip-psi/w={w}", partial(_round_trip, "psi", w))
    return ops


# -- numeric ----------------------------------------------------------------


def _at_point(n, d, check, rng, stats):
    """Run check(assignment) at a random n-variable d x d point.

    A draw whose quasiminors are singular is redrawn, as the suites do; the
    op fails if every draw in the budget is singular.
    """
    for _ in range(MAX_DRAWS):
        stats.draws += 1
        point = SP.random_assignment(rng, n, d)
        try:
            out = check(point)
        except Q.SingularMinor:
            continue
        stats.accepted += 1
        return out
    raise Q.ExhaustedRetries(f"no nonsingular point in {MAX_DRAWS} draws")


def _refute(n, d, claim, rng, stats):
    """A displayed claim at up to REFUTE_POINTS random points: false at the
    first point where it fails.  One point can satisfy a false claim by
    accident (S_2(x) vanishes at x = a_1 for d = 1), a dozen cannot."""
    return all(_at_point(n, d, claim, rng, stats) for _ in range(REFUTE_POINTS))


def _n2_formulas(x):
    x1, x2 = x.vars
    I = Q.MatValue.identity(x.d)
    den = (x2 - x1 - I).inverse()
    s1 = (x2 * (x2 - I) - (x1 + I) * x1) * den
    l2 = (x2 * (x2 - I) - x1 * x2) * ((x1 + I).inverse() * x2 - I).inverse()
    s2 = (x2 * (x2 - I) * (x2 - 2 * I) - (x1 + I) * x1 * (x1 - I)) * den
    one = SP.VariableAssignment((x1,), x.sub)
    return (
        SP.s_spec(1, one) == x1
        and SP.lambda_spec(1, one) == x1
        and SP.s_spec(1, x) == s1
        and SP.lambda_spec(1, x) == s1
        and SP.lambda_spec(2, x) == l2
        and SP.s_spec(2, x) == s2
    )


def _ribbon_symmetry(I, i, x):
    e = R.ribbon(I)
    return SP.evaluate_nc(e, x) == SP.evaluate_nc(e, SP.swap_variables(x, i))


def _quasi_schur_row(k, x):
    return SP.quasi_schur_spec((k,), x) == SP.s_spec(k, x)


def _quasi_schur_column(k, x):
    return SP.quasi_schur_spec((1,) * k, x) == SP.lambda_spec(k, x)


def _conjugate_112_13(x):
    return SP.quasi_schur_spec((1, 1, 2), x) == SP.quasi_schur_lambda_form((1, 3), x)


def _recovery(n, k, rng, stats):
    for _ in range(MAX_DRAWS):
        stats.draws += 1
        scalars = [Fraction(rng.randint(-9, 12), rng.choice([1, 2, 3])) for _ in range(n)]
        try:
            out = SP.commutative_recovery(k, n, scalars)
        except (SP.ZeroDenominator, Q.SingularMinor):
            continue
        stats.accepted += 1
        return out
    raise Q.ExhaustedRetries(f"no usable point in {MAX_DRAWS} draws")


def _bazin(n, k, d, variant, rng, stats):
    return Q.verify_bazin(n, k, d, rng.randrange(1 << 30), variant=variant)


def _giambelli_shapes(size: int) -> list[tuple[int, ...]]:
    """Partitions of 2..size (parts increasing) of Frobenius rank <= 2."""

    def frobenius_rank(shape):
        return sum(1 for i, p in enumerate(sorted(shape, reverse=True), 1) if p >= i)

    shapes = sorted({tuple(sorted(w)) for w in _words(size)})
    return [s for s in shapes if sum(s) >= 2 and frobenius_rank(s) <= 2]


def _numeric_pool(scale: str) -> list[Op]:
    full = scale == "full"
    ops: list[Op] = []

    def point(block, key, n, d, check):
        ops.append(Op(key, partial(_at_point, n, d, check), block))

    ds = (1, 2, 3) if full else (1, 2)
    for d in ds:
        for rep in range(3):
            point("specialization", f"printed-n2-formulas/d={d}#{rep}", 2, d, _n2_formulas)
    for n in range(1, 4):
        for d in ds:
            k = n + 1
            point("specialization", f"vanishing-lambda/n={n},k={k},d={d}", n, d,
                  lambda x, k=k: SP.lambda_spec(k, x).is_zero())
            ops.append(Op(f"vanishing-s-printed/n={n},k={k},d={d}",
                          partial(_refute, n, d, lambda x, k=k: SP.s_spec(k, x).is_zero()),
                          "specialization"))
    for n in (2, 3):
        for k in range(1, n + 1):
            point("specialization", f"variable-shift-law/n={n},k={k}", n, 2,
                  lambda x, k=k: SP.variable_shift_defect(k, x).is_zero())
    for n in (2, 3):
        for k in range(1, 4):
            for i in range(1, n):
                point("symmetry", f"shifted-symmetry/n={n},k={k},i={i}", n, 2,
                      lambda x, k=k, i=i: SP.check_shifted_symmetry(k, x, i))
    for I in _comps(3):
        for n in (2, 3):
            point("symmetry", f"ribbon-symmetry/I={I},n={n}", n, 2,
                  partial(_ribbon_symmetry, I, n - 1))
    for n in range(1, 4):
        for k in range(1, 4):
            point("extension", f"extension-stability/n={n},k={k}", n, 2,
                  lambda x, k=k: SP.check_extension(k, x))
    for n in range(1, 5):
        for k in range(1, 5):
            ops.append(Op(f"commutative-recovery/n={n},k={k}",
                          partial(_recovery, n, k), "recovery"))
    gn = 2  # quasi-Schur values of two variables: Giambelli at n = 3 doubles the run
    for k in range(1, 4):
        point("giambelli", f"quasi-schur-row/k={k}", gn, 2, partial(_quasi_schur_row, k))
        point("giambelli", f"quasi-schur-column/k={k}", gn, 2,
              partial(_quasi_schur_column, k))
    point("giambelli", "conjugate-112-13", gn, 2, _conjugate_112_13)
    for shape in _giambelli_shapes(4 if full else 3):
        point("giambelli", f"giambelli/shape={shape}", gn, 2,
              lambda x, shape=shape: SP.giambelli_check(shape, x))
    for variant in ("printed", "corrected"):
        for n in range(1, 4):
            for k in range(1, n + 1):
                for d in (1, 2):
                    ops.append(Op(f"bazin-{variant}/n={n},k={k},d={d}",
                                  partial(_bazin, n, k, d, variant), "bazin"))
    # every check runs at several seeded points: how long a check takes
    # depends on the sizes of the rationals drawn, and more draws per run
    # make one seed's total closer to another's
    return [op for op in ops for _ in range(NUMERIC_DRAWS if full else 1)]


# -- session ----------------------------------------------------------------

#: malformed-request classes from the CLI exit-code contract (exit 2, no
#: traceback); each appears MALFORMED_REPEATS times in every stream
MALFORMED_REPEATS = 3
#: repeat count of the cheap requests that read warm memo tables
HOT = 4


def _request(argv, rng, stats):
    """One in-process `ncshift` call; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = C.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return code, out.getvalue()


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _session_pool(scale: str, workdir: str) -> list[Op]:
    """Requests with their repeat counts.

    The pool is fixed (goldens hold one digest per request); the seed only
    orders the stream.  Cheap requests that read warm memo tables repeat,
    the few that fill them run once.
    """
    full = scale == "full"
    ops: list[Op] = []

    def req(key, argv, repeats=1):
        for _ in range(repeats if full else 1):
            ops.append(Op(key, partial(_request, argv), "request"))

    top = 5 if full else 3
    for k in range(1, top + 1):
        for s in (0, 1, 2):
            req(f"expand --s {k} --shift {s}", ["expand", "--s", str(k), "--shift", str(s)], HOT)
        req(f"expand --lambda {k}", ["expand", "--lambda", str(k)], HOT)
        req(f"expand --lambda {k} --shift 1", ["expand", "--lambda", str(k), "--shift", "1"])
        req(f"expand --psi {k}", ["expand", "--psi", str(k)], HOT)
    for I in _comps(4 if full else 3):
        comp = ",".join(map(str, I.parts))
        req(f"expand --ribbon {comp}", ["expand", "--ribbon", comp], HOT)
        req(f"expand --ribbon {comp} --format latex",
            ["expand", "--ribbon", comp, "--format", "latex"])
    if full:
        for parts in _compositions(5):
            comp = ",".join(map(str, parts))
            req(f"expand --ribbon {comp}", ["expand", "--ribbon", comp])
        req("expand --ribbon 2,1,2 --shift 1", ["expand", "--ribbon", "2,1,2", "--shift", "1"])
        req("expand --ribbon 1,2,1,1 --shifts 3,2,1,0",
            ["expand", "--ribbon", "1,2,1,1", "--shifts", "3,2,1,0"])

    words = _words(4 if full else 3)
    for i, w in enumerate(words):
        # single words in each source basis, and two-term elements in S
        for basis in ("S", "L", "Psi"):
            x = A.NCElement.word(w)
            path = _write(workdir, f"w{i}-{basis}.json", x.to_json(basis))
            for to in ("S", "L", "Psi", "R") if basis == "S" else ("S",):
                req(f"convert {basis}:{w} --to {to}",
                    ["convert", "--to", to, "--input", path])
    mixed = F.lambda_in_S(3) + A.NCElement.gen(1) * A.NCElement.gen(2)
    path = _write(workdir, "mixed.json", mixed.to_json("S"))
    name = "L3+S1S2"
    for to in ("L", "Psi", "R"):
        req(f"convert {name} --to {to}", ["convert", "--to", to, "--input", path], HOT)
    req(f"convert {name} --to R --params equidistant:1,0",
        ["convert", "--to", "R", "--params", "equidistant:1,0", "--input", path])
    ribbons = R.RibbonElement.single(R.Composition((2, 1))) + R.RibbonElement.single(
        R.Composition((1, 2)), coeff=P.ParamPoly.gen(1)
    )
    path = _write(workdir, "ribbons.json", ribbons.to_json())
    for to in ("S", "L"):
        req(f"convert ribbons --to {to}", ["convert", "--to", to, "--input", path], HOT)

    for n, d in ((1, 2), (2, 1), (2, 2), (3, 2)) if full else ((2, 1),):
        points = random.Random(f"point/{n}/{d}")  # fixed: the pool must match its goldens
        while True:
            x = SP.random_assignment(points, n, d)
            try:
                SP.s_spec(1, x), SP.lambda_spec(1, x)
                break
            except Q.SingularMinor:
                continue
        path = _write(workdir, f"point-n{n}-d{d}.json", x.to_json())
        for family in ("S", "L"):
            for k in (1, 2, 3):
                req(f"specialize {family} k={k} n={n} d={d}",
                    ["specialize", "--family", family, "--k", str(k), "--assignment", path], HOT)
        req(f"specialize S k=2 n={n} d={d} --shift 1",
            ["specialize", "--family", "S", "--k", "2", "--assignment", path, "--shift", "1"])

    good = SP.random_assignment(random.Random("point/float"), 2, 1).to_json()
    floats = _write(workdir, "float.json", dict(good, c=0.5))
    singular = _write(workdir, "singular.json",
                      {"c": "1", "base": "-1", "d": 1, "vars": [["0"], ["1"]]})
    malformed = [
        ("malformed/json-float-in-assignment",
         ["specialize", "--family", "S", "--k", "2", "--assignment", floats]),
        ("malformed/singular-assignment",
         ["specialize", "--family", "S", "--k", "2", "--assignment", singular]),
        ("malformed/composition-not-integer", ["expand", "--ribbon", "2,x,1"]),
        ("malformed/composition-zero-part", ["expand", "--ribbon", "0,2"]),
    ]
    for key, argv in malformed:
        for _ in range(MALFORMED_REPEATS):
            ops.append(Op(key, partial(_request, argv), "malformed"))
    return ops


# -- building a repetition ------------------------------------------------------


def memo_tables() -> dict[str, list]:
    """The functools.cache wrappers defined in each ncshift module, by module."""
    return {
        name.removeprefix("ncshift."): [
            f
            for f in vars(mod).values()
            if hasattr(f, "cache_info") and getattr(f, "__module__", None) == name
        ]
        for name, mod in list(sys.modules.items())
        if name.startswith("ncshift.") and mod is not None
    }


def pool(workload: str, scale: str, workdir: str) -> list[Op]:
    if workload == "symbolic":
        return _symbolic_pool(scale)
    if workload == "numeric":
        return _numeric_pool(scale)
    if workload == "session":
        return _session_pool(scale, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def stream(workload: str, ops: list[Op], seed: int) -> list[Op]:
    """Every op of the pool, in the order the seed gives.

    Identity workloads keep each block in increasing degree, as the suites
    run them, and shuffle the order of the blocks; the session stream is
    shuffled request by request.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "session":
        ops = list(ops)
        rng.shuffle(ops)
        return ops
    blocks: dict[str, list[Op]] = {}
    for op in ops:
        blocks.setdefault(op.block, []).append(op)
    order = list(blocks)
    rng.shuffle(order)
    return [op for b in order for op in blocks[b]]
