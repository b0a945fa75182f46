"""Command-line interface.

Reads polytopes or ray data from JSON documents (or inline ``--rays`` /
``--offsets``), dispatches to the library, and prints a result document as
JSON (default) or an aligned table (``--table``).  All printed numbers are
exact; ``--approx`` adds a clearly marked display-only decimal rendering.

One process resolves each document once: the text of an ``--input`` file,
or of the bundled fixture of that name, is the key of one cache, whose last
64 texts keep their polytope and toric data, so a session of commands on
one document, ``mixed-volume``'s inputs among them, decodes it and builds
them on the first command only.  The file is read on every call and the
key is its text, so an edited file is never served stale; a refusal is not
kept and is raised again on every call.

A command line is parsed by the parser of the command it names alone; the
top-level parser runs only when the first argument names no command, and
reports arguments left over with its own usage.  A plain line does not run
argparse at all: it is read off a table that :func:`build_parser` takes
from each command's own argparse actions.  A line is plain when it holds
only exact option names of store and store_true actions, each value as
``--opt value`` (not starting with ``-``) or ``--opt=value`` (not starting
with ``--``), every int converting and every required option given.  Every
other line goes to argparse unchanged: help, abbreviations, ``--``, stray
words, negative values, ``mixed-volume``'s repeatable ``--input``, values
that do not convert and missing options.  So argparse stays the only
declaration of the options and the only source of help and usage text.

The result document is printed by :func:`_json_text`, whose text is exactly
``json.dumps(document, indent=2)``: json uses its C encoder only when
``indent`` is None, and the indented layout is cheap to write directly.

Exit codes: 0 on success and after printing help, 1 on any input problem,
on an integer of more digits than Python converts to or from text, or when
the reader closes stdout early, 2 when an internal exact-identity check
failed (two routes that must agree disagreed).  Help returns its status
from :func:`execute` like any other outcome, so it never ends an in-process
caller.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string
from typing import Sequence

from . import data as fixtures
from .ehrhart import count_points, ehrhart_polynomial, reciprocity_check, reflexive_closed_form
from .errors import InternalInconsistency, InvalidInput, QbaryError, Unsupported
from .exactnum import rational_to_json, vector_to_json
from .expansion import (
    asymptotic_coefficients,
    barycenter_function,
    df_coefficients,
    quantized_barycenter,
    reflexive_polygon_bck,
    rooftop,
)
from .polytope import (
    Polytope,
    classify,
    facet_data,
    measure,
    polytope_from_document,
)
from .stability import del_pezzo_closed_form, delta, delta_k, delta_sequence
from .toric import (
    ToricData,
    hrr_coefficients,
    mixed_volume,
    rooftop_coefficients,
    rooftop_fan,
    toric_data,
    toric_from_polytope,
)


# ---------------------------------------------------------------------------
# input plumbing

def _document(path: str) -> tuple[Polytope, ToricData, str | None]:
    """Polytope, toric data and name of the document in file ``path``, or in
    the bundled fixture of that name when there is no such file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        try:
            text = fixtures.fixture_text(path.removesuffix(".json"))
        except InvalidInput:
            raise InvalidInput(f"no such input file or fixture: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    try:
        return _resolve_document(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise InvalidInput(f"expected a comma-separated integer vector, got {text!r}")


def _parse_rays(text: str) -> list[tuple[int, ...]]:
    return [_parse_vector(part) for part in text.split(";") if part]


def _resolve_input(args) -> tuple[Polytope, ToricData, str | None]:
    """Polytope plus toric data (ray order from the document when present)."""
    if args.rays is not None or args.offsets is not None:
        if args.rays is None or args.offsets is None:
            raise InvalidInput("--rays and --offsets must be given together")
        if args.input is not None:
            raise InvalidInput("give either --input or --rays/--offsets, not both")
        t = toric_data(_parse_rays(args.rays), _parse_vector(args.offsets))
        return t.polytope, t, None
    if args.input is None:
        raise InvalidInput("an input is required (--input FILE or --rays/--offsets)")
    return _document(args.input)


@lru_cache(maxsize=64)
def _resolve_document(text: str) -> tuple[Polytope, ToricData, str | None]:
    """Polytope, toric data and name of the document with JSON text ``text``,
    the one cache by which every ``--input`` is resolved, ``mixed-volume``'s
    included.  A refusal or malformed text raises again on every call, as
    nothing is cached."""
    doc = json.loads(text)
    polytope, name = polytope_from_document(doc)
    if "normals" in doc:
        t = toric_data(doc["normals"], doc["offsets"], polytope=polytope)
    else:
        t = toric_from_polytope(polytope)
    return polytope, t, name


# ---------------------------------------------------------------------------
# commands

def _cmd_count(args, p: Polytope, t: ToricData) -> dict:
    return {"count": count_points(p, args.k)}


def _cmd_bck(args, p: Polytope, t: ToricData) -> dict:
    value = quantized_barycenter(p, args.k).value
    diagnostics = {}
    if barycenter_function(p).evaluate(args.k) != value:
        raise InternalInconsistency("rational form disagrees with enumeration")
    diagnostics["rational_function_checked"] = True
    if p.dim == 2 and classify(p).reflexive:
        reflexive_polygon_bck(p, args.k)  # raises on disagreement
        diagnostics["reflexive_polygon_form_checked"] = True
    return {"Bc_k": vector_to_json(value), "diagnostics": diagnostics}


def _cmd_bc(args, p: Polytope, t: ToricData) -> dict:
    geo = measure(p)
    boundary = facet_data(p)
    return {
        "Bc": vector_to_json(geo.barycenter),
        "volume": rational_to_json(geo.volume),
        "boundary_volume": rational_to_json(boundary.boundary_normalized_volume),
        "boundary_barycenter": vector_to_json(boundary.boundary_barycenter),
    }


def _cmd_ehrhart(args, p: Polytope, t: ToricData) -> dict:
    ehr = ehrhart_polynomial(p)
    diagnostics = {}
    if classify(p).reflexive and p.dim in (2, 3):
        reflexive_closed_form(p)  # raises on disagreement
        diagnostics["reflexive_closed_form_checked"] = True
    return {
        "coefficients": ehr.poly.to_json(),
        "source": ehr.source,
        "diagnostics": diagnostics,
    }


def _cmd_reciprocity(args, p: Polytope, t: ToricData) -> dict:
    report = reciprocity_check(p, args.kmax)
    return {
        "checks": [
            {
                "k": e.k,
                "general": e.general_ok,
                **({"reflexive": e.reflexive_ok} if e.reflexive_ok is not None else {}),
            }
            for e in report.entries
        ],
        "all_passed": report.all_passed,
    }


def _cmd_expand(args, p: Polytope, t: ToricData) -> dict:
    coeffs = asymptotic_coefficients(p, args.order)
    return {"a": [vector_to_json(term) for term in coeffs.terms]}


def _cmd_rooftop(args, p: Polytope, t: ToricData) -> dict:
    v = _parse_vector(args.v)
    q = args.q if args.q is not None else rooftop_fan(t, v).q
    roof = rooftop(p, v, q)
    return {
        "q": q,
        "vertices": [list(u) for u in roof.vertices],
        "normals": [list(f.normal) for f in roof.facets],
        "offsets": [f.offset for f in roof.facets],
    }


def _cmd_classify(args, p: Polytope, t: ToricData) -> dict:
    cls = classify(p)
    return {"reflexive": cls.reflexive, "delzant": cls.delzant}


def _cmd_mixed_volume(args) -> dict:
    if args.input is None:
        raise InvalidInput("mixed-volume needs one --input per argument slot")
    polytopes = [_document(path)[0] for path in args.input]
    mults = (
        list(_parse_vector(args.multiplicities))
        if args.multiplicities is not None
        else [1] * len(polytopes)
    )
    if len(mults) != len(polytopes):
        raise InvalidInput("one multiplicity per input required")
    value = mixed_volume(list(zip(polytopes, mults)))
    return {"mixed_volume": rational_to_json(value)}


def _cmd_hrr(args, p: Polytope, t: ToricData) -> dict:
    coeffs = hrr_coefficients(t)
    return {"coefficients": [rational_to_json(c) for c in coeffs]}


def _cmd_rooftop_coeffs(args, p: Polytope, t: ToricData) -> dict:
    result = rooftop_coefficients(t, _parse_vector(args.v))
    out = {
        "c_prime": [rational_to_json(c) for c in result.values],
        "q": result.q,
        "formula_available": result.formula_available,
    }
    if result.formula_values is not None:
        out["formula_values"] = [rational_to_json(c) for c in result.formula_values]
    return out


def _cmd_delta(args, p: Polytope, t: ToricData) -> dict:
    diagnostics = {}
    if args.k is not None:
        value, argmin = delta_k(t, args.k)
        if p.dim == 2 and (cls := classify(p)).reflexive and cls.delzant:
            del_pezzo_closed_form(t, args.k)  # raises on disagreement
            diagnostics["del_pezzo_form_checked"] = True
        return {
            "delta_k": rational_to_json(value),
            "k": args.k,
            "argmin_rays": list(argmin),
            "diagnostics": diagnostics,
        }
    value, argmin = delta(t)
    return {"delta": rational_to_json(value), "argmin_rays": list(argmin)}


def _cmd_delta_seq(args, p: Polytope, t: ToricData) -> dict:
    seq = delta_sequence(t, _parse_vector(args.ks), order=args.order)
    return {
        "values": [
            {"k": v.k, "delta_k": rational_to_json(v.value), "argmin_rays": list(v.argmin)}
            for v in seq.values
        ],
        "delta": rational_to_json(seq.limit),
        "limit_argmin_rays": list(seq.limit_argmin),
        "dominant": {
            "num": seq.dominant.num.to_json(),
            "den": seq.dominant.den.to_json(),
            "rays": list(seq.dominant_rays),
        },
        "k0": seq.k0,
        "asymptotics": [rational_to_json(c) for c in seq.asymptotics.coefficients],
    }


def _cmd_df(args, p: Polytope, t: ToricData) -> dict:
    coeffs = df_coefficients(p, _parse_vector(args.v), args.order)
    return {"DF": [rational_to_json(c) for c in coeffs]}


def _cmd_fan(args, p: Polytope, t: ToricData) -> dict:
    fan = rooftop_fan(t, _parse_vector(args.v))
    return {"rays": [list(r) for r in fan.rays], "q": fan.q}


# ---------------------------------------------------------------------------
# rendering

def _approximate(value):
    """Decimal rendering of exact "p/q" strings; everything else unchanged."""
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/")
        try:
            return float(Fraction(int(num), int(den)))
        except OverflowError:
            raise Unsupported(
                "--approx: a value lies outside the range of a float; the exact result prints without --approx"
            ) from None
    if isinstance(value, list):
        return [_approximate(v) for v in value]
    if isinstance(value, dict):
        return {k: _approximate(v) for k, v in value.items()}
    return value


# json's text of a str, int, bool or None, by the value's exact type
_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for dicts with string keys; ``indent``
    starts the lines of ``value``'s own level.  Any other value that is not a
    container, a float among them, is written by ``json.dumps`` itself."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{_json_string(key)}: {_json_text(v, inner)}" for key, v in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _render_table(document: dict, approx: bool) -> str:
    rows = []
    outputs = document["outputs"]
    for key, value in outputs.items():
        rows.append((key, json.dumps(value), json.dumps(_approximate(value)) if approx else None))
    width = max((len(k) for k, _, _ in rows), default=0)
    vwidth = max((len(v) for _, v, _ in rows), default=0)
    lines = [f"command: {document['command']}"]
    if document.get("input"):
        lines.append(f"input:   {document['input']}")
    if approx:
        lines.append(f"{'field'.ljust(width)}  {'exact'.ljust(vwidth)}  approx (display only)")
    for key, value, approx_value in rows:
        line = f"{key.ljust(width)}  {value.ljust(vwidth)}"
        if approx_value is not None:
            line += f"  {approx_value}"
        lines.append(line.rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point

class _HelpShown(Exception):
    """A parser printed its help; ``status`` is the exit status to return."""

    def __init__(self, status: int) -> None:
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    """A usage error is an input problem: it exits with status 1, not 2.
    Help returns its status through :func:`execute` rather than exiting the
    process."""

    # the parser of each command by name, set on the top-level parser
    commands: dict[str, "_Parser"]
    # what a plain line of a command can hold, set on each command's parser:
    # the action of each exact option name, the defaults, the required dests
    table: tuple[dict[str, argparse.Action], dict[str, object], frozenset[str]]

    def error(self, message: str):
        raise InvalidInput(f"{message}\n{self.format_usage().rstrip()}")

    def exit(self, status: int = 0, message: str | None = None):
        # with error() raising, argparse calls this only once -h/--help has
        # printed the help
        raise _HelpShown(status)


# Options whose values are integer lists and may start with a minus sign.
_VECTOR_OPTIONS = ("--v", "--rays", "--offsets", "--ks", "--multiplicities")


def _attach_vector_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--v -1,2`` as ``--v=-1,2``: argparse takes a value that
    starts with ``-`` and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _table(parser: _Parser) -> tuple:
    """What a plain line of the command of ``parser`` can hold, read off its
    actions: see :attr:`_Parser.table`."""
    actions = parser._actions
    return (
        {
            name: action
            for action in actions
            if type(action) in (argparse._StoreAction, argparse._StoreTrueAction) and action.choices is None
            for name in action.option_strings
        },
        {
            action.dest: action.default
            for action in actions
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
        },
        frozenset(action.dest for action in actions if action.required),
    )


def _read_plain(table, words: Sequence[str]) -> dict | None:
    """The arguments of a plain command line, read off a command's ``table``
    as argparse would read them, or None when the line is not plain."""
    options, defaults, required = table
    values = dict(defaults)
    given = set()
    words = iter(words)
    for word in words:
        name, attached, value = word.partition("=")
        action = options.get(name)
        if action is None:
            return None
        if action.nargs == 0:
            if attached:
                return None
            value = action.const
        else:
            # argparse reads a separate word that starts with - as an option
            # or a negative number, and drops an attached --
            if not attached:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    return None
            elif value.startswith("--"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError):
                    return None
        values[action.dest] = value
        given.add(action.dest)
    return values if required <= given else None


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qbary",
        description="Exact quantized barycenters, Ehrhart expansions, and "
        "toric stability thresholds of lattice polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        cmd = sub.add_parser(name, **kwargs)
        cmd.add_argument("--input", help="JSON polytope document or bundled fixture name")
        cmd.add_argument("--rays", help="inline rays, e.g. '1,0;0,1;-1,-1'")
        cmd.add_argument("--offsets", help="inline offsets, e.g. '1,1,1'")
        cmd.add_argument("--table", action="store_true", help="render as an aligned table")
        cmd.add_argument(
            "--approx",
            action="store_true",
            help="add a decimal rendering (display only; results stay exact)",
        )
        return cmd

    add("count", help="lattice points of k*P").add_argument("--k", type=int, required=True)
    add("bck", help="quantized barycenter Bc_k").add_argument("--k", type=int, required=True)
    add("bc", help="volume, barycenter, and boundary data")
    cmd = add("ehrhart", help="counting polynomial coefficients")
    cmd = add("reciprocity", help="reciprocity checks up to --kmax")
    cmd.add_argument("--kmax", type=int, default=4)
    cmd = add("expand", help="asymptotic expansion of Bc_k")
    cmd.add_argument("--order", type=int, default=None)
    cmd = add("rooftop", help="rooftop polytope in a direction")
    cmd.add_argument("--v", required=True, help="direction vector, e.g. '1,0'")
    cmd.add_argument("--q", type=int, default=None, help="offset (default: canonical)")
    add("classify", help="reflexive / Delzant flags")
    cmd = sub.add_parser("mixed-volume", help="mixed volume of polytopes")
    cmd.add_argument("--input", action="append", help="polytope document (repeatable)")
    cmd.add_argument("--multiplicities", help="comma-separated multiplicities")
    cmd.add_argument("--table", action="store_true")
    cmd.add_argument("--approx", action="store_true")
    add("hrr", help="counting coefficients from the Bernoulli/mixed-volume formula")
    cmd = add("rooftop-coeffs", help="numerator coefficients of <Bc_k, v>")
    cmd.add_argument("--v", required=True)
    cmd = add("delta", help="stability threshold (delta_k with --k, else delta)")
    cmd.add_argument("--k", type=int, default=None)
    cmd = add("delta-seq", help="delta_k sequence, dominant function, expansion")
    cmd.add_argument("--ks", required=True, help="comma-separated dilations")
    cmd.add_argument("--order", type=int, default=2)
    cmd = add("df", help="Donaldson-Futaki coefficients in a direction")
    cmd.add_argument("--v", required=True)
    cmd.add_argument("--order", type=int, default=3)
    cmd = add("fan", help="rooftop fan rays and canonical offset")
    cmd.add_argument("--v", required=True)
    parser.commands = sub.choices
    for cmd in sub.choices.values():
        cmd.table = _table(cmd)
    return parser


_HANDLERS = {
    "count": _cmd_count,
    "bck": _cmd_bck,
    "bc": _cmd_bc,
    "ehrhart": _cmd_ehrhart,
    "reciprocity": _cmd_reciprocity,
    "expand": _cmd_expand,
    "rooftop": _cmd_rooftop,
    "classify": _cmd_classify,
    "hrr": _cmd_hrr,
    "rooftop-coeffs": _cmd_rooftop_coeffs,
    "delta": _cmd_delta,
    "delta-seq": _cmd_delta_seq,
    "df": _cmd_df,
    "fan": _cmd_fan,
}


_parser: _Parser | None = None


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of a command line: a plain line read off the table of
    the command that ``argv[0]`` names, any other parsed by that command's
    parser.  The top-level parser runs only when it names none, to report
    that or print help, and reports arguments left over."""
    # built on the first call, so that importing the module stays cheap, and
    # reused by every later one
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = _attach_vector_values(argv)
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        return _parser.parse_args(argv)
    values = _read_plain(command.table, argv[1:])
    if values is not None:
        return argparse.Namespace(command=argv[0], **values)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def execute(argv: Sequence[str]) -> int:
    try:
        args = _parse(argv)
        if args.command == "mixed-volume":
            outputs = _cmd_mixed_volume(args)
            name = None
        else:
            polytope, toric, name = _resolve_input(args)
            outputs = _HANDLERS[args.command](args, polytope, toric)
        diagnostics = outputs.pop("diagnostics", {})
        document = {"command": args.command, "input": name, "outputs": outputs}
        if diagnostics:
            document["diagnostics"] = diagnostics
        if args.approx and not args.table:
            document["approx"] = _approximate(outputs)
        if args.table:
            print(_render_table(document, args.approx))
        else:
            print(_json_text(document))
        return 0
    except _HelpShown as exc:
        return exc.status
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except QbaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Python converts an integer to or from text only up to a number of
        # digits; any other ValueError is a defect and keeps its traceback
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"error: an integer has more than {sys.get_int_max_str_digits()} digits, "
            "the limit of integer string conversion (sys.set_int_max_str_digits)",
            file=sys.stderr,
        )
        return 1


def main() -> None:
    try:
        code = execute(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point its descriptor at devnull so
        # the interpreter's final flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
