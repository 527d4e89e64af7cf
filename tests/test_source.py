"""The package source holds only what the package runs."""

import ast
from collections import Counter
from pathlib import Path

import ncshift

SRC = Path(ncshift.__file__).parent
#: the os names through which a module reads the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


#: top-level definitions that no module of the package uses, each kept for
#: the callers outside it that the reason names
EXTERNAL_ONLY = {
    "hopf.antipode": "public antipode map of demos/03, held by tests to the "
    "letter-by-letter reference; the hopf suite reads it through algebra.word_image",
    "quasidet.verify_bazin": "the numeric bench's Bazin op, with its own "
    "Random(seed + a) draws; the bazin suite draws through Report.sampled",
    "shifts.phi_shift": "public map phi^[s] of demos/01 and the shift-law tests; as "
    "a verify case the phi/psi relation would change the pinned digest",
    "special.shifted_power": "the generic product reference of the fused chain "
    "MatValue.times_shifted, traced as a layer by the bench",
}


def _unreferenced(src: Path) -> list[str]:
    """Top-level functions and classes whose name no module of src mentions
    as a name, an attribute or an import alias outside the definition
    itself: a re-export in __init__ and a call of itself are no use."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(src.glob("*.py"))
        if path.stem != "__init__"
    }
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update({node.name, node.asname})
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]


def test_every_top_level_definition_is_used_by_the_package():
    # a reference formula only tests call belongs in tests/tests_support.py
    assert sorted(_unreferenced(SRC)) == sorted(EXTERNAL_ONLY)


def _environment_reads(src: Path) -> list[str]:
    """module:line of every attribute or import alias in src that names an
    environment reader of os."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT or (
                isinstance(node, ast.alias) and node.name in ENVIRONMENT
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    # an option is a CLI flag or a module constant, never an environment variable
    assert _environment_reads(SRC) == []


def _scopes(src: Path, matches) -> list[str]:
    """module.qualname of the function or class around each node of src that
    matches, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if matches(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def _names(node, name: str) -> bool:
    """Whether node is the name, or an attribute access ending in it."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_random_streams_are_made_in_two_places():
    # every randomized suite group draws from Report.rng, one stream per
    # (suite, seed, case, label); verify_bazin keeps its seed + a streams
    def makes_stream(node):
        return isinstance(node, ast.Call) and _names(node.func, "Random")

    assert _scopes(SRC, makes_stream) == ["quasidet.verify_bazin", "suites.Report.rng"]


def test_only_report_sampled_catches_exhausted_retries():
    # what a group whose every draw is singular means is decided in one place
    def catches(node):
        return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
            _names(n, "ExhaustedRetries") for n in ast.walk(node.type)
        )

    assert _scopes(SRC, catches) == ["suites.Report.sampled.failures"]


def test_only_the_duality_layer_takes_a_sequence():
    # the ring is built over a; the dual sequence enters only through omega,
    # the Lambda_n it sends S_n to, and the S_k^[s] and ribbons it images to
    def takes_sequence(node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        annotations = [n for arg in args if arg.annotation for n in ast.walk(arg.annotation)]
        defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        return any(_names(n, "ParamSequence") for n in annotations) or any(
            _names(d, "SEQ_A") or _names(d, "SEQ_AHAT") for d in defaults
        )

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and takes_sequence(node)
    ]
    assert found == [
        "families.lambda_in_S",
        "families.omega",
        "ribbon.ribbon_shifted",
        "ribbon.ribbon_uniform",
        "shifts.a_binomial",
        "shifts.shift_S",
    ]
    # the ribbon table keys each value once: ribbon_shifted has no default
    # sequence, and every call in the package passes (I, K, base)
    (definition,) = [
        node for node in trees["ribbon"].body
        if isinstance(node, ast.FunctionDef) and node.name == "ribbon_shifted"
    ]
    assert definition.args.defaults == [] and len(definition.args.args) == 3
    calls = [
        (module, node.lineno, len(node.args), len(node.keywords))
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names(node.func, "ribbon_shifted")
    ]
    assert len(calls) >= 5
    assert [c for c in calls if c[2:] != (3, 0)] == []


def _added_to_itself(node):
    """What node adds to or subtracts from its own target: e in x += e,
    x -= e, x = x + e or x = x - e; None for any other node."""
    if isinstance(node, ast.AugAssign):
        target, op, left, right = node.target, node.op, node.target, node.value
    elif isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
        target, op, left, right = node.targets[0], node.value.op, node.value.left, node.value.right
    else:
        return None
    if isinstance(op, (ast.Add, ast.Sub)) and ast.unparse(left) == ast.unparse(target):
        return right
    return None


def _is_product(node) -> bool:
    """Whether node is a * b; a repeated list is no product."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and not isinstance(node.left, ast.List)
    )


#: the sums that still add one product at a time, each with its reason
PER_PAIR_SUMS = {
    # commuting ParamPoly values, one polynomial product per step of the recurrence
    "algebra.complete_homogeneous": 1,
    # sums ParamPoly scalars, one product per term of the bracket recursion
    "shifts.a_binomial": 1,
}


def test_one_monomial_join_and_no_per_pair_products():
    # every sum of products over Q[a] writes into one accumulator; the
    # monomial join lives in its one loop, and no call site adds a product
    # built per pair, neither through accumulate nor as x = x + a * b
    def joins_monomials(node):
        # a function that multiplies two term keys, each bound by a loop or
        # comprehension over the items of a term map
        if not isinstance(node, ast.FunctionDef):
            return False
        keys = {
            loop.target.elts[0].id
            for loop in ast.walk(node)
            if isinstance(loop, (ast.For, ast.comprehension))
            and isinstance(loop.target, ast.Tuple)
            and isinstance(loop.target.elts[0], ast.Name)
            and isinstance(loop.iter, ast.Call)
            and _names(loop.iter.func, "items")
        }
        return any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and all(isinstance(side, ast.Name) and side.id in keys for side in (n.left, n.right))
            for n in ast.walk(node)
        )

    def sorts_a_concatenation(node):
        # the tuple-monomial join tuple(sorted(m1 + m2))
        return (
            isinstance(node, ast.Call)
            and _names(node.func, "sorted")
            and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add) for arg in node.args)
        )

    def accumulates_a_product(node):
        return (
            isinstance(node, ast.Call)
            and _names(node.func, "accumulate")
            and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult) for arg in node.args)
        )

    def adds_a_product_to_itself(node):
        # x = x + a * b, x = x - a * b, x += a * b and x -= a * b; and a loop
        # whose body binds term = a * b and later adds it, as in
        # x = x + (term if ... else -term)
        added = _added_to_itself(node)
        if added is not None:
            return _is_product(added)
        if not isinstance(node, (ast.For, ast.While)):
            return False
        products = set()
        for stmt in node.body:
            added = _added_to_itself(stmt)
            if added is not None and any(
                isinstance(n, ast.Name) and n.id in products for n in ast.walk(added)
            ):
                return True
            if isinstance(stmt, ast.Assign) and _is_product(stmt.value):
                products.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        return False

    assert _scopes(SRC, joins_monomials) == ["params._add_monomial_products"]
    assert _scopes(SRC, sorts_a_concatenation) == []
    assert _scopes(SRC, accumulates_a_product) == []
    assert Counter(_scopes(SRC, adds_a_product_to_itself)) == PER_PAIR_SUMS


def _letter_maps(src: Path) -> list[tuple[str, str, bool]]:
    """(module, source, stable) for each letter map that src passes to
    apply_letters or word_image; stable means a module-level function or
    import, or a parameter of an enclosing function passed on."""
    found = []

    def visit(node, module, names):
        if isinstance(node, ast.FunctionDef):
            names = names | {arg.arg for arg in node.args.args}
        if isinstance(node, ast.Call) and (
            _names(node.func, "apply_letters") or _names(node.func, "word_image")
        ):
            position = 1 if _names(node.func, "apply_letters") else 0
            maps = node.args[position : position + 1]
            maps += [kw.value for kw in node.keywords if kw.arg == "image"]
            for m in maps:
                stable = isinstance(m, ast.Name) and m.id in names
                found.append((module, ast.unparse(m), stable))
        for child in ast.iter_child_nodes(node):
            visit(child, module, names)

    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        top |= {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        visit(tree, path.stem, top)
    return found


def test_every_letter_map_is_a_module_level_function():
    # word_image keys its table on the letter map: a lambda, a partial or a
    # nested def made per call would never be read back, and would be kept
    maps = _letter_maps(SRC)
    assert [(module, m) for module, m, stable in maps if not stable] == []
    assert {module for module, _, _ in maps} >= {"families", "hopf", "shifts"}


def test_hopf_memoizes_only_the_coproduct_of_a_word():
    # Delta of an S-word is one table, filled by splitting the word's
    # Psi-words; the legs, the counit and the antipode read algebra.word_image.
    # An entry built from the coproduct of other words, or as a product of
    # tensors, would make the algebra-morphism case check the definition
    # against itself.
    tree = ast.parse((SRC / "hopf.py").read_text())
    memo = {"cache", "lru_cache", "cached_property"}
    uses = [
        node
        for node in ast.walk(tree)
        if any(_names(node, name) for name in memo)
        or (isinstance(node, ast.alias) and node.name in memo)
    ]
    tables = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(_names(d, name) for d in node.decorator_list for name in memo)
    ]
    assert [node.name for node in tables] == ["word_coproduct"]
    # the import and the one decorator
    assert len(uses) == 2
    assert not [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, (ast.Dict, ast.Call))
    ]
    banned = {"coproduct", "word_coproduct", "_product", "__mul__"}
    assert not [
        node.lineno
        for node in ast.walk(tables[0])
        if (isinstance(node, ast.Call) and any(_names(node.func, name) for name in banned))
        or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult))
    ]


def test_the_accumulator_stays_inside_params():
    # a sum of products over Q[a] is one LinComb.sum_of_products or
    # LinComb.linear call; the raw accumulator and its helpers are private
    # to params
    accumulator = {"add_product", "add_products", "_summed"}

    def refers(node):
        return any(_names(node, name) for name in accumulator) or (
            isinstance(node, ast.alias) and node.name in accumulator
        )

    assert {scope.split(".")[0] for scope in _scopes(SRC, refers)} == {"params"}


def test_only_the_prime_table_and_the_decoder_read_the_index_table():
    # a monomial's factors are read once, as (index, exponent) pairs of the
    # one cached decoder params.exponents; no reader rebuilds them by counting
    def reads_index_table(node):
        return isinstance(node, ast.Name) and node.id == "_INDEX_OF" and isinstance(node.ctx, ast.Load)

    def counts(node):
        return _names(node, "Counter") or (isinstance(node, ast.alias) and node.name == "Counter")

    assert sorted(set(_scopes(SRC, reads_index_table))) == ["params._prime", "params.exponents"]
    assert _scopes(SRC, counts) == []


def test_only_cli_dumps_writes_json_text():
    # json.dumps with indent runs the stdlib's pure-Python encoder; every JSON
    # text the package prints is written by cli._dumps through its one-pass
    # walk cli._write_json, which escapes through the C function json uses and
    # spells the other scalars by compact json.dumps
    def indents(node):
        return isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords)

    def writes_json(node):
        return isinstance(node, ast.Call) and any(
            _names(node.func, name) for name in ("dumps", "dump", "encode_basestring_ascii")
        )

    def calls_the_walk(node):
        return isinstance(node, ast.Call) and _names(node.func, "_write_json")

    assert _scopes(SRC, indents) == []
    assert set(_scopes(SRC, calls_the_walk)) == {"cli._dumps", "cli._write_json"}
    assert set(_scopes(SRC, writes_json)) == {"cli._write_json"}


#: the ring's hot path: the accumulator, its monomial loop and ParamPoly's
#: own sums and products
RING_OPERATIONS = [
    "_add_monomial_products",
    "add_product",
    "LinComb._summed",
    "LinComb.sum_of_products",
    "LinComb.linear",
    "ParamPoly.__add__",
    "ParamPoly.__sub__",
    "ParamPoly.__mul__",
    "ParamPoly.scale",
]


def _params_calls(fn, defs) -> set[str]:
    """The params definitions fn calls: a module function by name, and a
    LinComb or ParamPoly method through self, cls, super() or a class name."""
    receivers = {"self", "cls", "LinComb", "ParamPoly"}
    out = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            out.add(f.id)
        elif isinstance(f, ast.Attribute) and (
            (isinstance(f.value, ast.Name) and f.value.id in receivers)
            or (isinstance(f.value, ast.Call) and _names(f.value.func, "super"))
        ):
            out |= {f"LinComb.{f.attr}", f"ParamPoly.{f.attr}"}
    return out & set(defs)


def test_the_ring_operations_build_no_fraction():
    # a ParamPoly is int numerators over one denominator: the ring operations,
    # and every params definition they call, name no Fraction.  The call walk
    # stops at _ratio, where a rational from outside the ring (an int, a
    # Fraction or a string operand) is split into (numerator, denominator).
    tree = ast.parse((SRC / "params.py").read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs |= {f"{node.name}.{m.name}": m for m in node.body if isinstance(m, ast.FunctionDef)}
    assert "_integral" not in defs
    assert set(RING_OPERATIONS) <= set(defs)
    seen, todo, found = {"_ratio"}, list(RING_OPERATIONS), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += _params_calls(defs[name], defs)
            if any(_names(node, "Fraction") for node in ast.walk(defs[name])):
                found.add(name)
    assert found == set()
    assert {"_reduced", "ParamPoly._plus", "ParamPoly.coerce", "_ratio"} <= seen


#: the numeric layer's point evaluation: the random draws, the scalar shifts
#: and the shifted-power chains
POINT_EVALUATION = {
    "quasidet.random_mat",
    "quasidet.MatValue._plus_scalar",
    "quasidet.MatValue.__add__",
    "quasidet.MatValue.__sub__",
    "quasidet.MatValue.scale",
    "quasidet.MatValue.scalar",
    "quasidet.MatValue.identity",
    "quasidet.MatValue.times_shifted",
    "special._power",
    "special.random_assignment",
    "special.VariableAssignment.shift_all",
}
#: calls that build a Fraction: the coercion, an index value (also through its
#: alias VariableAssignment.a), MatValue's entrywise-coercing constructor and
#: a new substitution
FRACTION_CALLS = {"as_fraction", "index_value", "a", "MatValue", "equidistant"}


def test_point_evaluation_builds_no_fraction():
    # a rational from outside enters the numeric layer once, split by
    # params._ratio into (numerator, denominator); random entries are
    # numerators over 2 and the chain start is an integer shift
    from ncshift.quasidet import RANDOM_POOL

    def builds_fraction(node):
        return _names(node, "Fraction") or (
            isinstance(node, ast.Call) and any(_names(node.func, f) for f in FRACTION_CALLS)
        )

    assert POINT_EVALUATION <= set(_scopes(SRC, lambda node: True))
    assert POINT_EVALUATION.isdisjoint(_scopes(SRC, builds_fraction))
    assert all(type(x) is int for x in RANDOM_POOL)
