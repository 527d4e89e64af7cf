"""Command-line interface: flags, formats, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncshift.cli import _dumps, main
from ncshift.params import SEQ_A


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_expand_ribbon_latex(capsys):
    code, out, _ = run_cli(["expand", "--ribbon", "2,1,1", "--format", "latex"], capsys)
    assert code == 0
    assert "S_{2;a}" in out and "S_{4;a}" in out


def test_expand_ribbon_json_matches_library(capsys):
    code, out, _ = run_cli(["expand", "--ribbon", "2,1", "--shifts", "3,1"], capsys)
    assert code == 0
    from ncshift.algebra import NCElement
    from ncshift.ribbon import Composition, ribbon_shifted

    got = NCElement.from_json(json.loads(out))
    assert got == ribbon_shifted(Composition((2, 1)), (3, 1), SEQ_A)


def test_expand_negative_first_shift_takes_equals_form(capsys):
    # argparse reads a separate "-1,0" as an option string, so it needs --shifts=
    code, out, err = run_cli(["expand", "--ribbon", "1,2", "--shifts", "-1,0"], capsys)
    _assert_input_error(code, out, err)
    assert "argument --shifts: expected one argument" in err
    code, out, _ = run_cli(["expand", "--ribbon", "1,2", "--shifts=-1,0"], capsys)
    assert code == 0
    from ncshift.ribbon import Composition, ribbon_shifted

    assert json.loads(out) == ribbon_shifted(Composition((1, 2)), (-1, 0), SEQ_A).to_json("S")


def test_expand_shifted_generator(capsys):
    code, out, _ = run_cli(["expand", "--s", "3", "--shift", "1"], capsys)
    assert code == 0
    from ncshift.algebra import NCElement
    from ncshift.shifts import shift_S

    assert NCElement.from_json(json.loads(out)) == shift_S(3, 1)


def test_expand_requires_exactly_one_target(capsys):
    code, out, err = run_cli(["expand", "--s", "1", "--psi", "1"], capsys)
    _assert_input_error(code, out, err)
    assert "argument --psi: not allowed with argument --s" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["expand", "--s", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["expand"], "one of the arguments --s --lambda --psi --ribbon is required"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown-option", "no-target", "no-subcommand"],
)
def test_argparse_rejections_are_one_line_errors(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--ribbon", "1,2", "--shifts", ""],
        ["--ribbon", "1,2", "--shift", "1", "--shifts", "0,0"],
        ["--s", "2", "--shifts", "5"],
    ],
    ids=["empty-shifts", "shift-and-shifts", "shifts-without-ribbon"],
)
def test_expand_rejects_dropped_shift_options(argv, capsys):
    _assert_input_error(*run_cli(["expand", *argv], capsys))


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--ribbon", "1,,2"], "--ribbon"),
        (["--ribbon", "2,x,1"], "--ribbon"),
        (["--ribbon", "1,2", "--shifts", ""], "--shifts"),
        (["--ribbon", "1,2", "--shifts", "1,x"], "--shifts"),
        (["--ribbon", "1_0"], "--ribbon"),
        (["--ribbon", "1,2", "--shifts", "0, 0"], "--shifts"),
        (["--ribbon", "01,2"], "--ribbon"),
    ],
    ids=[
        "empty-part", "letter-part", "empty-shifts", "letter-shift",
        "underscore-part", "spaced-shift", "zero-padded-part",
    ],
)
def test_expand_names_the_malformed_option(argv, option, capsys):
    code, out, err = run_cli(["expand", *argv], capsys)
    _assert_input_error(code, out, err)
    assert option in err and "comma-separated integers" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["expand", "--s", "x"], "--s"),
        (["expand", "--s", "1_0"], "--s"),
        (["expand", "--lambda", "01"], "--lambda"),
        (["expand", "--psi", "+1"], "--psi"),
        (["expand", "--s", "2", "--shift", " 1"], "--shift"),
        (["verify", "duality", "--degree", " 1"], "--degree"),
        (["verify", "duality", "--degree", "1", "--seed", "1_0"], "--seed"),
        (["specialize", "--family", "S", "--k", "1_0", "--assignment", "a.json"], "--k"),
        (["specialize", "--family", "S", "--k", "1", "--shift", "+1", "--assignment", "a.json"],
         "--shift"),
    ],
    ids=[
        "s-letter", "s", "lambda", "psi", "expand-shift", "degree", "seed", "k",
        "specialize-shift",
    ],
)
def test_integer_options_take_canonical_spelling(argv, option, capsys):
    # the rule of JSON index keys: "1_0", " 1", "+1" and "01" are no integers
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert f"argument {option}: invalid canonical_int value" in err


def test_convert_round_trip_via_files(tmp_path, capsys):
    from ncshift.algebra import NCElement
    from ncshift.families import lambda_in_S

    x = lambda_in_S(3)
    src = tmp_path / "x.json"
    src.write_text(json.dumps(x.to_json("S")))
    code, out, _ = run_cli(["convert", "--to", "R", "--input", str(src)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "R"
    assert data["terms"][0]["comp"] == [1, 1, 1]
    back = tmp_path / "r.json"
    back.write_text(out)
    code, out2, _ = run_cli(["convert", "--to", "S", "--input", str(back)], capsys)
    assert code == 0
    assert NCElement.from_json(json.loads(out2)) == x


def test_convert_whole_distant_labeling(tmp_path, capsys):
    from ncshift.algebra import NCElement
    from ncshift.families import lambda_in_S

    x = lambda_in_S(2) * NCElement.gen(1)
    src = tmp_path / "x.json"
    src.write_text(json.dumps(x.to_json("S")))
    code, out, _ = run_cli(
        [
            "convert",
            "--to",
            "R",
            "--input",
            str(src),
            "--params",
            "equidistant:1,-1",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["whole_distant"] is True
    assert data["integer_coefficients"] is True
    # no substitution, symbolic parameters and a non-whole-distant one all
    # print the bare R-expansion: the same stdout, with no whole_distant key
    outs = []
    for params in ([], ["--params", "symbolic"], ["--params", "equidistant:1/2,0"]):
        code, out, _ = run_cli(["convert", "--to", "R", "--input", str(src), *params], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    labels = ("whole_distant", "integer_coefficients")
    bare = json.loads(outs[0])
    assert not any(key in bare for key in labels)
    assert bare == {k: v for k, v in data.items() if k not in labels}


def test_convert_psi_and_lambda_targets(tmp_path, capsys):
    from ncshift.algebra import NCElement
    from ncshift.families import lambda_words_to_s, psi_words_to_s

    x = NCElement.gen(2)
    src = tmp_path / "x.json"
    src.write_text(json.dumps(x.to_json("S")))
    for target, back in (("Psi", psi_words_to_s), ("L", lambda_words_to_s)):
        code, out, _ = run_cli(
            ["convert", "--to", target, "--input", str(src)], capsys
        )
        assert code == 0
        got = NCElement.from_json(json.loads(out))
        assert back(got) == x


def test_verify_green_suite_exit_zero(capsys):
    code, out, _ = run_cli(["verify", "nagelsbach", "--degree", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "nagelsbach"
    assert all(c["pass"] for c in data["cases"])


def test_verify_failure_exit_one(capsys):
    # the macmahon suite carries the faithful printed example lines, which
    # are misprints in the source; the suite reports them as failing cases
    code, out, _ = run_cli(["verify", "macmahon", "--degree", "4"], capsys)
    assert code == 1
    data = json.loads(out)
    failing = {c["id"] for c in data["cases"] if not c["pass"]}
    assert failing == {
        "example-lambda-s-printed",
        "example-s-s-printed",
        "example-lambda-lambda-printed",
    }
    for c in data["cases"]:
        if not c["pass"]:
            assert c["witness"]


def test_verify_unknown_suite_exit_two(capsys):
    code, out, err = run_cli(["verify", "nosuch"], capsys)
    _assert_input_error(code, out, err)
    assert "argument suite: invalid choice: 'nosuch'" in err and "'all'" in err


def test_verify_reports_deterministic(capsys):
    code1, out1, _ = run_cli(["verify", "base-change", "--degree", "3", "--seed", "7"], capsys)
    code2, out2, _ = run_cli(["verify", "base-change", "--degree", "3", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    ids = [c["id"] for c in data["cases"]]
    assert ids == sorted(ids)
    assert data["seed"] == 7


def test_specialize(tmp_path, capsys):
    assignment = {
        "c": "1",
        "base": "-1",
        "d": 1,
        "vars": [["3"], ["5"]],
    }
    path = tmp_path / "vars.json"
    path.write_text(json.dumps(assignment))
    code, out, _ = run_cli(
        ["specialize", "--family", "S", "--k", "1", "--assignment", str(path)], capsys
    )
    assert code == 0
    data = json.loads(out)
    # S_1(3, 5) = (5*4 - 4*3)(5 - 3 - 1)^{-1} = 8
    assert data["value"] == [["8"]]


def test_specialize_with_variable_shift(tmp_path, capsys):
    assignment = {"c": "1", "base": "-1", "d": 1, "vars": [["3"], ["5"]]}
    path = tmp_path / "vars.json"
    path.write_text(json.dumps(assignment))
    code, out, _ = run_cli(
        [
            "specialize",
            "--family",
            "S",
            "--k",
            "1",
            "--assignment",
            str(path),
            "--shift",
            "1",
        ],
        capsys,
    )
    assert code == 0
    # psi S_1 = S_1 + c(n + 1 - 1) S_0 = 8 + 2
    assert json.loads(out)["value"] == [["10"]]


def _assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_specialize_rejects_float_entries(tmp_path, capsys):
    assignment = {"c": 0.5, "base": "-1", "d": 1, "vars": [["3"], ["5"]]}
    path = tmp_path / "vars.json"
    path.write_text(json.dumps(assignment))
    argv = ["specialize", "--family", "S", "--k", "2", "--assignment", str(path)]
    _assert_input_error(*run_cli(argv, capsys))


def test_specialize_singular_assignment(tmp_path, capsys):
    # x_2 - x_1 - 1 = 0: the denominator quasiminor is singular
    assignment = {"c": "1", "base": "-1", "d": 1, "vars": [["0"], ["1"]]}
    path = tmp_path / "vars.json"
    path.write_text(json.dumps(assignment))
    for family in ("S", "L"):
        argv = ["specialize", "--family", family, "--k", "2", "--assignment", str(path)]
        _assert_input_error(*run_cli(argv, capsys))


@pytest.mark.parametrize(
    "change, named",
    [
        ({"vars": [[None], ["5"]]}, "variable 1"),
        ({"vars": [["3"], [["1"]]]}, "variable 2"),
        ({"vars": [["1/0"], ["5"]]}, "variable 1"),
        ({"d": None}, "d, c"),
        ({"d": True}, "d, c"),
        ({"d": " 1"}, "d, c"),
    ],
    ids=["null-entry", "list-entry", "zero-denominator-entry", "null-d", "bool-d", "string-d"],
)
def test_specialize_rejects_malformed_assignment(change, named, tmp_path, capsys):
    assignment = {"c": "1", "base": "-1", "d": 1, "vars": [["3"], ["5"]]} | change
    path = tmp_path / "vars.json"
    path.write_text(json.dumps(assignment))
    argv = ["specialize", "--family", "S", "--k", "1", "--assignment", str(path)]
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert named in err


@pytest.mark.parametrize(
    "command, data, key",
    [
        ("specialize", {"c": "1", "base": "-1", "vars": [["3"], ["5"]]}, "d"),
        ("specialize", {"base": "-1", "d": 1, "vars": [["3"], ["5"]]}, "c"),
        ("specialize", {"c": "1", "base": "-1", "d": 1}, "vars"),
        ("convert", {"basis": "S"}, "terms"),
        ("convert", {"basis": "R"}, "terms"),
    ],
    ids=["assignment-d", "assignment-c", "assignment-vars", "element-terms", "ribbon-terms"],
)
def test_missing_json_key_is_named(command, data, key, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    if command == "specialize":
        argv = ["specialize", "--family", "S", "--k", "1", "--assignment", str(path)]
    else:
        argv = ["convert", "--to", "S", "--input", str(path)]
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert f"missing key '{key}'" in err


def _term(word, c):
    return {"word": word, "coeff": [{"c": c, "e": {}}]}


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"terms": [_term([1], "1/0")]}),
        json.dumps({"terms": [_term(None, "1")]}),
        json.dumps([_term([1], "1")]),
        json.dumps({"terms": [_term([1], 0.5)]}),
        json.dumps({"terms": [_term([0], "1")]}),
        json.dumps({"basis": "R", "terms": [{"comp": [0], "shifts": [0], "coeff": []}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"1": -1}}]}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [
            {"c": "1", "e": {"1": 1, "01": 1}}, {"c": "-1", "e": {"1": 2}},
        ]}]}),
        json.dumps({"terms": [_term("12", "1")]}),
        json.dumps({"terms": [_term([True], "1")]}),
        json.dumps({"terms": [_term([1], True)]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"1": True}}]}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"1": "2"}}]}]}),
        json.dumps({"basis": "R", "terms": [{"comp": "21", "shifts": [1, 0], "coeff": []}]}),
        json.dumps({"basis": "R", "terms": [{"comp": [2, 1], "shifts": "10", "coeff": []}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"1_0": 1}}]}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {" +1": 1}}]}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"01": 1}}]}]}),
        json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"1": 10_001}}]}]}),
        json.dumps({"basis": ["S"], "terms": []}),
    ],
    ids=[
        "zero-denominator",
        "null-word",
        "top-level-list",
        "float",
        "letter-0",
        "ribbon-part-0",
        "negative-exponent",
        "repeated-exponent-index",
        "string-word",
        "bool-letter",
        "bool-coefficient",
        "bool-exponent",
        "string-exponent",
        "string-comp",
        "string-shifts",
        "underscore-index",
        "signed-space-index",
        "zero-padded-index",
        "exponent-over-bound",
        "list-basis",
    ],
)
def test_convert_rejects_malformed_element(text, tmp_path, capsys):
    src = tmp_path / "x.json"
    src.write_text(text)
    _assert_input_error(*run_cli(["convert", "--to", "S", "--input", str(src)], capsys))


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--to", "S", "--input", "{path}"],
        ["convert", "--to", "R", "--params", "file:{path}", "--input", "{element}"],
        ["specialize", "--family", "S", "--k", "1", "--assignment", "{path}"],
    ],
    ids=["convert-input", "convert-params", "specialize-assignment"],
)
def test_deeply_nested_json_is_an_input_error(argv, tmp_path, capsys):
    path, element = tmp_path / "deep.json", tmp_path / "x.json"
    path.write_text("[" * 100_000)
    element.write_text(json.dumps({"terms": []}))
    argv = [arg.format(path=path, element=element) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert err == "error: the JSON input is nested too deeply\n"


def test_convert_rejects_float_params_file(tmp_path, capsys):
    from ncshift.families import lambda_in_S

    src = tmp_path / "x.json"
    src.write_text(json.dumps(lambda_in_S(2).to_json("S")))
    table = tmp_path / "params.json"
    table.write_text(json.dumps({"1": 0.5, "2": "1"}))
    argv = ["convert", "--to", "R", "--params", f"file:{table}", "--input", str(src)]
    _assert_input_error(*run_cli(argv, capsys))


def test_convert_names_the_index_a_params_file_lacks(tmp_path, capsys):
    # the a_1 S_1 coefficient needs a_1; the file gives a_0 only
    src = tmp_path / "x.json"
    src.write_text(json.dumps({"terms": [{"word": [1], "coeff": [{"c": "1", "e": {"1": 1}}]}]}))
    table = tmp_path / "p.json"
    table.write_text(json.dumps({"0": "1"}))
    argv = ["convert", "--to", "R", "--params", f"file:{table}", "--input", str(src)]
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert err == "error: the --params file gives no value for a_1\n"


def test_convert_drops_zero_exponents(tmp_path, capsys):
    # 1*a_1^0 - 1 is the zero coefficient: the word cancels
    coeff = [{"c": "1", "e": {"1": 0}}, {"c": "-1", "e": {}}]
    src = tmp_path / "x.json"
    src.write_text(json.dumps({"terms": [{"word": [1], "coeff": coeff}]}))
    code, out, _ = run_cli(["convert", "--to", "S", "--input", str(src)], capsys)
    assert code == 0
    assert json.loads(out)["terms"] == []


@pytest.mark.parametrize(
    "target, params, named",
    [
        (["--to", "R"], "equidistant:1/0,0", "entry c"),
        (["--to", "R"], "file:list", "JSON object"),
        (["--to", "R"], "file:null", "entry a_2"),
        (["--to", "R"], "file:bool", "entry a_1"),
        (["--to", "S"], "bogus", "--params symbolic"),
        (["--to", "L"], "equidistant:1/0,0", "entry c"),
        (["--to", "R", "--format", "latex"], "bogus", "--params symbolic"),
        (["--to", "R"], "file:underscore", "'1_0'"),
        (["--to", "R"], "file:signed-space", "' +1'"),
        (["--to", "R"], "file:zero-padded", "'01'"),
    ],
    ids=[
        "zero-denominator-c", "list-file", "null-entry-file", "bool-entry-file",
        "bogus-to-S", "zero-denominator-to-L", "bogus-latex",
        "underscore-key-file", "signed-space-key-file", "zero-padded-key-file",
    ],
)
def test_convert_rejects_malformed_params(target, params, named, tmp_path, capsys):
    from ncshift.families import lambda_in_S

    src = tmp_path / "x.json"
    src.write_text(json.dumps(lambda_in_S(2).to_json("S")))
    (tmp_path / "list").write_text(json.dumps(["1", "2"]))
    (tmp_path / "null").write_text(json.dumps({"1": "1", "2": None}))
    (tmp_path / "bool").write_text(json.dumps({"1": True, "2": "1"}))
    (tmp_path / "underscore").write_text(json.dumps({"1_0": "3", "2": "1"}))
    (tmp_path / "signed-space").write_text(json.dumps({" +1": "3", "2": "1"}))
    (tmp_path / "zero-padded").write_text(json.dumps({"01": "3", "2": "1"}))
    if params.startswith("file:"):
        params = f"file:{tmp_path / params[5:]}"
    argv = ["convert", *target, "--params", params, "--input", str(src)]
    code, out, err = run_cli(argv, capsys)
    _assert_input_error(code, out, err)
    assert named in err


def test_verify_rejects_negative_degree(capsys):
    _assert_input_error(*run_cli(["verify", "shift-coefficients", "--degree", "-1"], capsys))


@pytest.mark.parametrize(
    "suite, degree, case",
    [
        ("symmetry", 1, "shifted-symmetry"),
        ("extension", 0, "extension-stability"),
        ("recovery", 0, "determinant-quotient-oracle"),
        ("specialization", 0, "vanishing-lambda"),
        ("bazin", 0, None),
        ("hopf", 0, "algebra-morphism"),
        ("hopf", 0, "coassociativity"),
        ("hopf", 0, "counit-laws"),
        ("hopf", 0, "antipode-convolutions"),
        ("hopf", 1, "algebra-morphism"),
    ],
)
def test_verify_fails_when_nothing_is_checked(suite, degree, case, capsys):
    # no group to sample at this degree: the case fails; bazin has no case at all
    code, out, err = run_cli(["verify", suite, "--degree", str(degree)], capsys)
    assert code == 1 and err == ""
    cases = {c["id"]: c for c in json.loads(out)["cases"]}
    if case is None:
        assert cases == {}
    else:
        assert not cases[case]["pass"] and "to check" in cases[case]["witness"]


def test_verify_giambelli_exhausted_reseeds(monkeypatch, capsys):
    # every draw singular: the three giambelli cases fail under their first group
    from ncshift import quasidet, suites
    from ncshift.quasidet import SingularMinor

    def singular(k, A):
        raise SingularMinor("singular matrix")

    monkeypatch.setattr(quasidet, "MAX_RESEED", 0)
    monkeypatch.setattr(suites, "s_spec", singular)
    code, out, err = run_cli(["verify", "giambelli"], capsys)
    assert code == 1 and err == ""
    cases = {c["id"]: (c["pass"], c["witness"]) for c in json.loads(out)["cases"]}
    exhausted = ": no nonsingular sample in 1 draws"
    assert cases == {
        "quasi-schur-row-column": (False, "shapes (k,), (1^k) for k <= 3" + exhausted),
        "conjugate-112-13": (False, "shapes (1, 1, 2), (1, 3)" + exhausted),
        "giambelli-rank-le-2": (False, "shape (1, 1)" + exhausted),
    }


def test_verify_recovery_draws_within_the_reseed_budget(monkeypatch, capsys):
    # every draw has a vanishing oracle denominator: a group makes 1 + budget draws
    from ncshift import quasidet, suites
    from ncshift.special import ZeroDenominator

    calls = []

    def vanishing(k, n, scalars):
        calls.append((n, k))
        raise ZeroDenominator("vanishing Vandermonde-type determinant")

    monkeypatch.setattr(quasidet, "MAX_RESEED", 2)
    monkeypatch.setattr(suites, "commutative_recovery", vanishing)
    code, out, err = run_cli(["verify", "recovery", "--degree", "2"], capsys)
    assert code == 1 and err == ""
    # the case stops at its first failing group, n = k = 1
    assert calls == [(1, 1)] * 3
    (case,) = json.loads(out)["cases"]
    assert not case["pass"] and case["witness"] == "n=1 k=1: no nonsingular sample in 3 draws"


def test_verify_extension_draws_within_the_reseed_budget(monkeypatch, capsys):
    # the check is singular at every point: a group makes 1 + budget draws in all
    from ncshift import quasidet, suites
    from ncshift.quasidet import SingularMinor

    draws = []

    def counted(rng, n, d):
        draws.append((n, d))
        return random_assignment(rng, n, d)

    def singular(k, A):
        raise SingularMinor("singular matrix")

    random_assignment = suites.random_assignment
    monkeypatch.setattr(quasidet, "MAX_RESEED", 0)
    monkeypatch.setattr(suites, "random_assignment", counted)
    monkeypatch.setattr(suites, "check_extension", singular)
    code, out, err = run_cli(["verify", "extension", "--degree", "1"], capsys)
    assert code == 1 and err == ""
    assert draws == [(1, 2)]
    (case,) = json.loads(out)["cases"]
    assert not case["pass"] and case["witness"] == "n=1 k=1: no nonsingular sample in 1 draws"


#: in-process requests whose options would leak into the next one if parsing kept state
_REQUEST_SEQUENCE = [
    ["expand", "--s", "1_0"],
    ["expand", "--s", "2", "--shift", "1"],
    ["expand", "--s", "2"],
    ["expand", "--ribbon", "2,1", "--shifts", "3,1"],
    ["expand", "--ribbon", "2,1"],
    ["verify", "nosuch"],
    ["expand", "--psi", "2"],
]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    from ncshift import cli
    from ncshift.ribbon import Composition, ribbon_shifted
    from ncshift.shifts import shift_S

    assert cli.build_parser() is cli.build_parser()
    first_calls = []
    for argv in _REQUEST_SEQUENCE:
        cli.build_parser.cache_clear()
        first_calls.append(run_cli(argv, capsys))
    cli.build_parser.cache_clear()
    shared = [run_cli(argv, capsys) for argv in _REQUEST_SEQUENCE]
    assert shared == first_calls
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 2, 0]
    _assert_input_error(*shared[0])
    _assert_input_error(*shared[5])

    def as_output(element):
        return json.dumps(element.to_json("S"), indent=2) + "\n"

    assert shared[2][1] == as_output(shift_S(2, 0))  # --shift is back to 0
    comp = Composition((2, 1))
    assert shared[4][1] == as_output(ribbon_shifted(comp, comp.row_shifts(), SEQ_A))  # --shifts is None


def test_console_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ncshift.cli", "expand", "--psi", "2"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    from ncshift.algebra import NCElement
    from ncshift.families import psi

    assert NCElement.from_json(json.loads(proc.stdout)) == psi(2)


#: leaves whose spelling json.dumps decides: escapes, a surrogate pair, big ints, floats
_LEAVES = [
    'say "hi"', "back\\slash", "tab\t nul\x00 us\x1f del\x7f\r\n", "Λ_k, ω^[s] café",
    "\U0001d54a", "", 0, -7, -(10**299) - 12345, 10**299, True, False, None, 0.5, -1e300,
]


def _payloads():
    """The package's own kinds of CLI payload, each with its name."""
    from ncshift.algebra import NCElement
    from ncshift.families import lambda_in_S, psi_shifted, shift_Lambda
    from ncshift.params import ParamSubstitution
    from ncshift.ribbon import Composition, ribbon_shifted, to_ribbon_basis
    from ncshift.shifts import shift_S
    from ncshift.special import VariableAssignment, spec_value
    from ncshift.suites import run_suite

    ribbons = to_ribbon_basis(lambda_in_S(2) * NCElement.gen(1))
    whole_distant = {
        **ribbons.to_json(),
        "whole_distant": True,
        "integer_coefficients": ribbons.integer_coefficients(ParamSubstitution.equidistant(1, -1)),
    }
    report = run_suite("macmahon", degree=4).to_json()
    witnesses = {c["witness"] is None for c in report["cases"]}
    assert witnesses == {True, False}  # a None and a text witness
    assignment = VariableAssignment.from_json(
        {"c": "1", "base": "-1", "d": 2, "vars": [["3", "1/2", "0", "-4"], ["5", "2", "7/3", "1"]]}
    )
    value = spec_value("S", 2, assignment).to_json()
    return {
        "expand-S": shift_S(4, 1).to_json("S"),
        "expand-L": shift_Lambda(4, 0).to_json("S"),
        "expand-Psi": psi_shifted(4, 0).to_json("S"),
        "expand-ribbon": ribbon_shifted(Composition((2, 1, 2)), (1, 0, -1), SEQ_A).to_json("S"),
        "convert-R-whole-distant": whole_distant,
        "verify": report,
        "verify-all": [report, report],
        "specialize": {"family": "S", "k": 2, "value": value},
    }


@pytest.mark.parametrize(
    "value",
    [
        *_LEAVES,
        {}, [], [[]], [{}], {"e": {}}, {"x": [[], {}]}, ("tuple", 1),
        list(_LEAVES), {str(i): leaf for i, leaf in enumerate(_LEAVES)},
        {'k"\\\x01ω\U0001d54a': [{"a": [1, [2, []]], "b": None}]},
    ],
)
def test_dumps_writes_the_text_of_indented_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_matches_json_dumps_on_real_payloads():
    for name, payload in _payloads().items():
        assert _dumps(payload) == json.dumps(payload, indent=2), name


def test_dumps_leaves_no_reference_cycle():
    # a cycle would keep every piece of an answer alive until the cyclic collector ran
    payload = _payloads()["expand-S"]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _dumps(payload)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("key", [1, None, True, 0.5])
def test_dumps_rejects_a_key_that_is_not_a_string(key):
    # json.dumps would write str(key) or "true"; the package writes str keys only
    with pytest.raises(TypeError, match="JSON keys must be str"):
        _dumps({"terms": [{key: 1}]})


def test_every_subcommand_prints_indented_json_dumps_text(tmp_path, capsys):
    from ncshift.algebra import NCElement
    from ncshift.families import lambda_in_S

    element = tmp_path / "x.json"
    element.write_text(json.dumps((lambda_in_S(2) * NCElement.gen(1)).to_json("S")))
    assignment = tmp_path / "vars.json"
    assignment.write_text(json.dumps({"c": "1", "base": "-1", "d": 1, "vars": [["3"], ["5"]]}))
    requests = [
        ["expand", "--s", "3", "--shift", "1"],
        ["expand", "--ribbon", "2,1", "--shifts", "3,1"],
        *(["convert", "--to", basis, "--input", str(element)] for basis in ("S", "L", "Psi", "R")),
        ["convert", "--to", "R", "--input", str(element), "--params", "equidistant:1,-1"],
        ["verify", "macmahon", "--degree", "4"],
        ["verify", "all", "--degree", "3"],
        ["specialize", "--family", "S", "--k", "1", "--assignment", str(assignment)],
    ]
    for argv in requests:
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 1) and err == "", argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
