"""Command-line front end.

Subcommands: expand (shifted generators, power sums, ribbons into the
S-basis), convert (between the S, L, Psi and R generating sets), verify
(named identity suites), specialize (matrix evaluation of a variable
assignment file).  Exit status 0 when every requested check passes, 1 on a
verification failure, 2 on usage and input errors.  Every usage error, the
ones argparse finds included, is a ValueError that `main` prints as one
`error: ...` line on stderr.  JSON output is the text of
`json.dumps(payload, indent=2)`, written in one pass by `_dumps`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .algebra import NCElement
from .families import (
    lambda_words_to_s,
    psi_shifted,
    psi_words_to_s,
    s_to_lambda,
    s_to_psi,
    shift_Lambda,
)
from .params import SEQ_A, MissingIndex, ParamSubstitution, as_fraction, canonical_int
from .quasidet import SingularMinor
from .ribbon import (
    Composition,
    RibbonElement,
    from_ribbon_basis,
    ribbon_shifted,
    to_ribbon_basis,
)
from .shifts import shift_S
from .special import VariableAssignment, spec_value
from .suites import SUITES, run_suite


#: generating set -> (its words into the S-basis, S-words into it, LaTeX letter)
BASES = {
    "S": (lambda x: x, lambda x: x, "S"),
    "L": (lambda_words_to_s, s_to_lambda, "\\Lambda"),
    "Psi": (psi_words_to_s, s_to_psi, "\\Psi"),
    "R": (from_ribbon_basis, to_ribbon_basis, None),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises its usage errors instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _load_exact(fh):
    """JSON with every number exact: a float literal is an input error, and so
    is nesting deeper than the decoder's recursion limit."""

    def reject(literal: str):
        raise ValueError(f"{literal} is not exact; write rationals as strings such as \"1/2\"")

    try:
        return json.load(fh, parse_float=reject)
    except RecursionError:
        raise ValueError("the JSON input is nested too deeply") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(canonical_int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _param_value(name: str, value) -> Fraction:
    try:
        return as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError(f"--params entry {name} is not an exact rational: {e!r}") from None


def _parse_params(text: str) -> ParamSubstitution | None:
    """The substitution a --params value names; None for symbolic parameters."""
    if text == "symbolic":
        return None
    if text.startswith("equidistant:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError("--params equidistant:c,base")
        return ParamSubstitution.equidistant(*map(_param_value, ("c", "base"), parts))
    if text.startswith("file:"):
        with open(text.split(":", 1)[1]) as fh:
            table = _load_exact(fh)
        if not isinstance(table, dict):
            raise ValueError("a --params file holds one JSON object mapping each i to a_i")
        return ParamSubstitution.explicit(
            {canonical_int(k): _param_value(f"a_{k}", v) for k, v in table.items()}
        )
    raise ValueError("--params symbolic | equidistant:c,base | file:<path>")


def _dumps(payload) -> str:
    """The text of json.dumps(payload, indent=2), written in one pass.

    Python's json module runs its C encoder only without indent, and its
    pure-Python one took a third of a warm request.  Strings are escaped by
    the C function json.dumps uses, ints are written by int.__repr__, and
    every other scalar (bool, None, float) is spelled by json.dumps itself.
    Keys must be str: the package writes no other, and json.dumps would
    silently convert one.
    """
    parts: list[str] = []
    _write_json(payload, "\n", parts.append)
    return "".join(parts)


def _write_json(value, newline: str, write) -> None:
    """Write value's JSON text through write; newline is the line break and
    indent of the line value starts on."""
    # a module function, not a closure over parts: a closure that calls
    # itself is a reference cycle, which would keep every piece of the text
    # alive until the cyclic collector runs
    if type(value) is str:
        write(encode_basestring_ascii(value))
    elif type(value) is int:  # bool is no int here
        write(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        write(json.dumps(value))


def _emit(element: NCElement, fmt: str):
    if fmt == "latex":
        print(element.latex("S"))
    else:
        print(_dumps(element.to_json("S")))


def cmd_expand(args) -> int:
    if args.shifts is not None and (args.ribbon is None or args.shift):
        raise ValueError("--shifts goes with --ribbon only, in place of --shift")
    if args.s is not None:
        out = shift_S(args.s, args.shift)
    elif args.lam is not None:
        out = shift_Lambda(args.lam, args.shift)
    elif args.psi is not None:
        out = psi_shifted(args.psi, args.shift)
    else:
        comp = Composition(args.ribbon)
        shifts = args.shifts
        if shifts is None:
            shifts = tuple(x + args.shift for x in comp.row_shifts())
        out = ribbon_shifted(comp, shifts, SEQ_A)
    _emit(out, args.format)
    return 0


def _load_element(path: str | None) -> NCElement:
    """An element file, read in its own basis and expanded in the S-basis."""
    if path in (None, "-"):
        data = _load_exact(sys.stdin)
    else:
        with open(path) as fh:
            data = _load_exact(fh)
    if not isinstance(data, dict):
        raise ValueError("an element file holds one JSON object with a list of terms")
    basis = data.get("basis", "S")
    if basis not in tuple(BASES):  # compared, not hashed: a list basis is no TypeError
        raise ValueError(f"unknown source basis {basis!r}")
    element = (RibbonElement if basis == "R" else NCElement).from_json(data)
    return BASES[basis][0](element)


def cmd_convert(args) -> int:
    sub = _parse_params(args.params)
    element = _load_element(args.input)
    out_basis = args.to
    _, from_s, letter = BASES[out_basis]
    out = from_s(element)
    if args.format == "latex":
        print(out.latex() if out_basis == "R" else out.latex(letter))
        return 0
    payload = out.to_json() if out_basis == "R" else out.to_json(out_basis)
    if out_basis == "R" and sub is not None and sub.is_whole_distant():
        payload["whole_distant"] = True
        try:
            payload["integer_coefficients"] = out.integer_coefficients(sub)
        except MissingIndex as e:
            raise ValueError(f"the --params file gives no value for a_{e.args[0]}") from None
    print(_dumps(payload))
    return 0


def cmd_verify(args) -> int:
    if args.degree is not None and args.degree < 0:
        raise ValueError(f"--degree must be nonnegative, got {args.degree}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, degree=args.degree, seed=args.seed) for name in names]
    payload = [r.to_json() for r in reports]
    print(_dumps(payload[0] if len(payload) == 1 else payload))
    return 0 if all(r.passed for r in reports) else 1


def cmd_specialize(args) -> int:
    with open(args.assignment) as fh:
        assignment = VariableAssignment.from_json(_load_exact(fh))
    if args.shift:
        assignment = assignment.shift_all(args.shift)
    try:
        value = spec_value(args.family, args.k, assignment)
    except SingularMinor:
        raise ValueError("singular assignment: a quasiminor of its shifted powers is not invertible")
    print(_dumps({"family": args.family, "k": args.k, "value": value.to_json()}))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
    p = _Parser(
        prog="ncshift",
        description="exact calculus of noncommutative shifted symmetric functions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="expand a generator or ribbon in the S-basis")
    target = pe.add_mutually_exclusive_group(required=True)
    target.add_argument("--s", type=canonical_int, help="complete homogeneous generator degree")
    target.add_argument(
        "--lambda", dest="lam", type=canonical_int, help="elementary generator degree"
    )
    target.add_argument("--psi", type=canonical_int, help="power sum degree")
    target.add_argument("--ribbon", type=_ints, help="comma-separated composition")
    pe.add_argument("--shift", type=canonical_int, default=0, help="uniform shift tag")
    pe.add_argument(
        "--shifts", type=_ints,
        help="comma-separated per-row ribbon shifts (--shifts=-1,0 when the first is negative)",
    )
    pe.add_argument("--format", choices=("json", "latex"), default="json")
    pe.set_defaults(func=cmd_expand)

    pc = sub.add_parser("convert", help="convert between generating sets")
    pc.add_argument("--to", required=True, choices=tuple(BASES))
    pc.add_argument("--input", help="JSON element file (default: stdin)")
    pc.add_argument(
        "--params", default="symbolic", help="symbolic | equidistant:c,base | file:<path>"
    )
    pc.add_argument("--format", choices=("json", "latex"), default="json")
    pc.set_defaults(func=cmd_convert)

    pv = sub.add_parser("verify", help="run a named identity suite")
    pv.add_argument(
        "suite", choices=(*SUITES, "all"), metavar="suite",
        help=f"one of {', '.join(SUITES)} or 'all'",
    )
    pv.add_argument("--degree", type=canonical_int, default=None, help="degree bound")
    pv.add_argument("--seed", type=canonical_int, default=0)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("specialize", help="evaluate at a variable-assignment file")
    ps.add_argument("--family", choices=("S", "L"), required=True)
    ps.add_argument("--k", type=canonical_int, required=True)
    ps.add_argument("--assignment", required=True, help="assignment JSON file")
    ps.add_argument("--shift", type=canonical_int, default=0, help="variable shift psi^[s]")
    ps.set_defaults(func=cmd_specialize)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
