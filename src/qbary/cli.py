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
kept and is raised again on every call.  The read is one unbuffered binary
read, decoded as UTF-8 whatever the locale, with line ends read as text
mode reads them (:func:`_document`); text mode decoded by the locale's
encoding, so only under a locale that is not UTF-8 does a document read
otherwise than it did.

A command builds a Fraction only for a rational it prints.  Its checks
compare a printed value with the integers it must equal, read off the
counting record or the face walk, by cross-multiplication.

Each command is declared once, in ``_COMMANDS``: its handler, its help,
and its options as the keyword arguments of argparse's ``add_argument``.
A plain line runs no argparse parser: it is read off its command's table,
which :func:`_plain_table` builds from those options at import.  A line is
plain when it names a command and then holds only exact names of store and
store_true options, each value as ``--opt value`` (not starting with
``-``) or ``--opt=value`` (not starting with ``--``), every int converting
and every required option given.  Every other line goes unchanged to the
parser that :func:`build_parser` builds from the same table, on the first
such line of the process: help, abbreviations, ``--``, stray words,
negative values, ``mixed-volume``'s repeatable ``--input``, values that do
not convert, missing options and a first word that names no command.  So
argparse stays the only source of help and usage text.

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
from .errors import InternalInconsistency, InvalidInput, QbaryError, Unsupported, ensure
from .exactnum import rational_to_json, vector_to_json
from .expansion import (
    _check_reflexive_polygon,
    asymptotic_coefficients,
    barycenter_function,
    df_coefficients,
    quantized_barycenter,
    rooftop,
)
from .polytope import (
    Polytope,
    _boundary,
    classify,
    measure,
    polytope_from_document,
)
from .stability import _check_del_pezzo, delta, delta_k, delta_sequence
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
    the bundled fixture of that name when there is no such file.

    A file is read in one unbuffered binary read and decoded as UTF-8, and
    its CRLF and CR line ends are read as newlines, as text mode reads them.
    JSON is given the text, not the bytes, as it would accept a byte-order
    mark in bytes and refuses it in text."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode()
    except FileNotFoundError:
        try:
            text = fixtures.fixture_text(path.removesuffix(".json"))
        except InvalidInput:
            raise InvalidInput(f"no such input file or fixture: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
    k = args.k
    value = quantized_barycenter(p, k).value
    # Q_i(k) / E(k) of the rational form must be the value read, compared by
    # cross-multiplication
    bf = barycenter_function(p)
    e, at = bf.denominator.denominator, bf.denominator.numerator_at(k)
    agree = all(q.numerator_at(k) * e * x.denominator == x.numerator * at * q.denominator for q, x in zip(bf.numerators, value))
    ensure("cli.bck_rational_form", agree, "rational form disagrees with enumeration")
    diagnostics = {"rational_function_checked": True}
    if p.dim == 2 and classify(p).reflexive:
        _check_reflexive_polygon(p, k, value)
        diagnostics["reflexive_polygon_form_checked"] = True
    return {"Bc_k": vector_to_json(value), "diagnostics": diagnostics}


def _cmd_bc(args, p: Polytope, t: ToricData) -> dict:
    geo = measure(p)
    boundary_volume, boundary_barycenter = _boundary(p)
    return {
        "Bc": vector_to_json(geo.barycenter),
        "volume": rational_to_json(geo.volume),
        "boundary_volume": rational_to_json(boundary_volume),
        "boundary_barycenter": vector_to_json(boundary_barycenter),
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
            _check_del_pezzo(t, args.k, value)
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

    def error(self, message: str):
        raise InvalidInput(f"{message}\n{self.format_usage().rstrip()}")

    def exit(self, status: int = 0, message: str | None = None):
        # with error() raising, argparse calls this only once -h/--help has
        # printed the help
        raise _HelpShown(status)


# The options of every command that reads one polytope, each as the keyword
# arguments of argparse's add_argument.
_COMMON = {
    "--input": {"help": "JSON polytope document or bundled fixture name"},
    "--rays": {"help": "inline rays, e.g. '1,0;0,1;-1,-1'"},
    "--offsets": {"help": "inline offsets, e.g. '1,1,1'"},
    "--table": {"action": "store_true", "help": "render as an aligned table"},
    "--approx": {"action": "store_true", "help": "add a decimal rendering (display only; results stay exact)"},
}
_K = {"--k": {"type": int, "required": True}}
_V = {"--v": {"required": True}}

# Every command, in the order of ``qbary -h``: its handler, its help and its
# options.
_COMMANDS = {
    "count": (_cmd_count, "lattice points of k*P", {**_COMMON, **_K}),
    "bck": (_cmd_bck, "quantized barycenter Bc_k", {**_COMMON, **_K}),
    "bc": (_cmd_bc, "volume, barycenter, and boundary data", _COMMON),
    "ehrhart": (_cmd_ehrhart, "counting polynomial coefficients", _COMMON),
    "reciprocity": (_cmd_reciprocity, "reciprocity checks up to --kmax", {**_COMMON, "--kmax": {"type": int, "default": 4}}),
    "expand": (_cmd_expand, "asymptotic expansion of Bc_k", {**_COMMON, "--order": {"type": int, "default": None}}),
    "rooftop": (
        _cmd_rooftop,
        "rooftop polytope in a direction",
        {
            **_COMMON,
            "--v": {"required": True, "help": "direction vector, e.g. '1,0'"},
            "--q": {"type": int, "default": None, "help": "offset (default: canonical)"},
        },
    ),
    "classify": (_cmd_classify, "reflexive / Delzant flags", _COMMON),
    "mixed-volume": (
        _cmd_mixed_volume,
        "mixed volume of polytopes",
        {
            "--input": {"action": "append", "help": "polytope document (repeatable)"},
            "--multiplicities": {"help": "comma-separated multiplicities"},
            "--table": {"action": "store_true"},
            "--approx": {"action": "store_true"},
        },
    ),
    "hrr": (_cmd_hrr, "counting coefficients from the Bernoulli/mixed-volume formula", _COMMON),
    "rooftop-coeffs": (_cmd_rooftop_coeffs, "numerator coefficients of <Bc_k, v>", {**_COMMON, **_V}),
    "delta": (
        _cmd_delta,
        "stability threshold (delta_k with --k, else delta)",
        {**_COMMON, "--k": {"type": int, "default": None}},
    ),
    "delta-seq": (
        _cmd_delta_seq,
        "delta_k sequence, dominant function, expansion",
        {**_COMMON, "--ks": {"required": True, "help": "comma-separated dilations"}, "--order": {"type": int, "default": 2}},
    ),
    "df": (
        _cmd_df,
        "Donaldson-Futaki coefficients in a direction",
        {**_COMMON, **_V, "--order": {"type": int, "default": 3}},
    ),
    "fan": (_cmd_fan, "rooftop fan rays and canonical offset", {**_COMMON, **_V}),
}


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


def _plain_table(options: dict[str, dict]) -> tuple:
    """What a plain line of a command with ``options`` can hold: each store
    and store_true option by its exact name, as its dest, whether it takes
    a value and the value's type; the default of every dest; the required
    dests."""
    table, defaults, required = {}, {}, set()
    for name, kwargs in options.items():
        dest = name[2:].replace("-", "_")
        action = kwargs.get("action", "store")
        defaults[dest] = kwargs.get("default", False if action == "store_true" else None)
        if kwargs.get("required"):
            required.add(dest)
        if action in ("store", "store_true"):
            table[name] = (dest, action == "store", kwargs.get("type"))
    return table, defaults, frozenset(required)


_PLAIN = {name: _plain_table(options) for name, (_, _, options) in _COMMANDS.items()}


def _read_plain(table, words: Sequence[str]) -> dict | None:
    """The arguments of a plain command line, read off a command's ``table``
    as argparse would read them, or None when the line is not plain."""
    options, defaults, required = table
    values = dict(defaults)
    given = set()
    words = iter(words)
    for word in words:
        name, attached, value = word.partition("=")
        option = options.get(name)
        if option is None:
            return None
        dest, takes_value, convert = option
        if not takes_value:
            if attached:
                return None
            value = True
        else:
            # argparse reads a separate word that starts with - as an option
            # or a negative number, and drops an attached --
            if not attached:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    return None
            elif value.startswith("--"):
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except (TypeError, ValueError):
                    return None
        values[dest] = value
        given.add(dest)
    return values if required <= given else None


def build_parser() -> _Parser:
    """The argparse parser of every command of :data:`_COMMANDS`."""
    parser = _Parser(
        prog="qbary",
        description="Exact quantized barycenters, Ehrhart expansions, and "
        "toric stability thresholds of lattice polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for option, kwargs in options.items():
            command.add_argument(option, **kwargs)
    return parser


# built by the first line that is not plain, so that a plain line and
# importing the module stay cheap, and reused by every later one
_parser: _Parser | None = None


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of a command line: a plain line read off the table of
    the command that ``argv[0]`` names, any other parsed by argparse."""
    global _parser
    argv = _attach_vector_values(argv)
    table = _PLAIN.get(argv[0]) if argv else None
    values = None if table is None else _read_plain(table, argv[1:])
    if values is not None:
        return argparse.Namespace(command=argv[0], **values)
    if _parser is None:
        _parser = build_parser()
    return _parser.parse_args(argv)


def execute(argv: Sequence[str]) -> int:
    try:
        args = _parse(argv)
        handler = _COMMANDS[args.command][0]
        if args.command == "mixed-volume":
            outputs, name = handler(args), None
        else:
            polytope, toric, name = _resolve_input(args)
            outputs = handler(args, polytope, toric)
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
