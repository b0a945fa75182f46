"""Bounded fuzzing of the input boundary.

Hypothesis draws ray data, JSON documents and CLI argument vectors, with
integer coordinates and with hostile values: floats, bools, strings, None
and nested lists.  Every input must end in a result or a ``QbaryError``
(exit status 0, 1 or 2 on the CLI), never another exception, and every
``ToricData`` that gets built must hold exactly its polytope's facets.

Dimensions are 1 to 3, integer entries at most 3 in absolute value and
ray lists at most 6 long, so every example is cheap: nothing yet bounds the
work of counting a large input, which would make a hang look like a pass.

The Minkowski layer counts nothing, and its dimension cap refuses an
argument of dimension 8 or 9 before any sum is hulled, so its arguments
are drawn in dimensions 0 to 9: ``body_from_points``, ``minkowski_sum``,
the ``VirtualPolytope`` constructor and ``mixed_volume`` take integer
rows, ragged rows, polytopes and hostile values in every argument slot.
A ``Body`` is one more hostile value: only ``body_from_points`` makes one,
and every operation of the layer refuses it.

A plain command line is read off its command's table, and any other is
parsed by argparse; argument vectors drawn from the command names and
option names of ``cli._COMMANDS``, abbreviations, integers, vectors and
stray tokens, and a fixed list of lines at the edges of the table, must
parse to what argparse gives, or be refused with the same message.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbary as qb
import qbary.cli
import qbary.hull
from qbary.cli import build_parser, execute
from qbary.linalg import dot, vec_add
from qbary.polytope import Body, body_from_points
from qbary.toric import VirtualPolytope

from conftest import fraction_rank

FUZZ = settings(max_examples=50, deadline=None)

SMALL = st.integers(-3, 3)
# values that are not integer coordinates, nested lists of them included
HOSTILE = st.recursive(
    st.one_of(st.floats(allow_nan=False, width=16), st.booleans(), st.text(max_size=2), st.none(), SMALL),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


@st.composite
def integer_rows(draw, count=st.integers(1, 6)):
    n = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[SMALL] * n), min_size=draw(count), max_size=6))


@st.composite
def ray_data(draw, kinds=("integers", "hull", "hostile")):
    """Rays and offsets: random integers, a lattice hull's facets in a drawn
    order (some scaled, one dropped or repeated), or hostile values."""
    kind = draw(st.sampled_from(kinds))
    if kind == "hostile":
        return draw(st.one_of(HOSTILE, integer_rows())), draw(st.one_of(HOSTILE, st.lists(SMALL, max_size=6)))
    if kind == "integers":
        rays = draw(integer_rows())
        return rays, draw(st.lists(SMALL, min_size=len(rays), max_size=len(rays)))
    try:
        p = qb.hull_from_vertices(draw(integer_rows(st.integers(2, 6))))
    except qb.QbaryError:
        return [], []
    pairs = draw(st.permutations([(f.normal, f.offset) for f in p.facets]))
    pairs = [(tuple(2 * x for x in r), 2 * b) if draw(st.booleans()) else (r, b) for r, b in pairs]
    edit = draw(st.sampled_from(("none", "drop", "repeat")))
    if edit == "drop":
        pairs = pairs[1:]
    elif edit == "repeat":
        pairs.append(pairs[0])
    return [r for r, _ in pairs], [b for _, b in pairs]


def assert_holds_exactly_its_facets(t: qb.ToricData) -> None:
    # read off the vertices, not off the hull's facet list: each half-space
    # supports P along a face of dimension n - 1, and there is one per facet
    p = t.polytope
    assert len(t.rays) == len(t.offsets) == len(set(t.rays)) == len(p.facets)
    for ray, b in zip(t.rays, t.offsets):
        assert gcd(*ray) == 1
        slacks = [dot(v, ray) + b for v in p.vertices]
        assert min(slacks) == 0
        on = [v for v, s in zip(p.vertices, slacks) if s == 0]
        assert fraction_rank([[a - c for a, c in zip(v, on[0])] for v in on]) == p.dim - 1


@FUZZ
@given(ray_data())
def test_toric_data_builds_exactly_its_facets_or_refuses(data):
    rays, offsets = data
    try:
        t = qb.toric_data(rays, offsets)
    except qb.QbaryError:
        return
    assert_holds_exactly_its_facets(t)


@FUZZ
@given(
    st.one_of(
        HOSTILE,
        st.fixed_dictionaries(
            {},
            optional={
                "vertices": st.one_of(integer_rows(), HOSTILE),
                "normals": st.one_of(integer_rows(), HOSTILE),
                "offsets": st.one_of(st.lists(SMALL, max_size=6), HOSTILE),
                "name": st.one_of(st.text(max_size=3), HOSTILE),
            },
        ),
    )
)
def test_documents_build_or_refuse(doc):
    # the CLI's reading of a document: its polytope, then its ray data
    try:
        p, _ = qb.polytope_from_document(doc)
        t = qb.toric_data(doc["normals"], doc["offsets"], polytope=p) if "normals" in doc else qb.toric_from_polytope(p)
    except qb.QbaryError:
        return
    assert_holds_exactly_its_facets(t)


def _vector_text(entries: int) -> st.SearchStrategy[str]:
    # no token is an option of argparse's own, such as -h
    token = st.one_of(SMALL.map(str), st.sampled_from(("1.5", "a", "", "True", "1/2", "--", "[1]")))
    return st.lists(token, min_size=1, max_size=entries).map(",".join)


def _inline(data) -> tuple[str, str]:
    rays, offsets = data
    return ";".join(",".join(map(str, r)) for r in rays), ",".join(map(str, offsets))


@FUZZ
@given(
    st.sampled_from((["classify"], ["delta"], ["hrr"], ["count", "--k", "1"], ["fan"])),
    st.one_of(
        ray_data(kinds=("integers", "hull")).map(_inline),
        st.tuples(st.lists(_vector_text(3), max_size=6).map(";".join), _vector_text(6)),
    ),
    _vector_text(3),
)
def test_cli_ends_in_a_result_or_a_refusal(command, inline, direction):
    rays, offsets = inline
    argv = [*command, "--rays", rays, "--offsets", offsets]
    if command == ["fan"]:
        argv += ["--v", direction]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert execute(argv) in (0, 1, 2)


# ---------------------------------------------------------------------------
# the Minkowski layer

@st.composite
def wide_rows(draw):
    """One to four integer rows of one dimension, 0 to 9."""
    n = draw(st.integers(0, 9))
    return draw(st.lists(st.tuples(*[SMALL] * n), min_size=1, max_size=4))


@st.composite
def polytopes_in(draw, n: int) -> qb.Polytope:
    """A polytope of dimension n, built by the hull engine, which has no
    dimension cap: in dimensions 1 to 3 the hull of up to four drawn points,
    with the unit simplex at the first one when they do not span; above,
    the unit simplex scaled by 1 or 2 at a drawn corner."""
    points = draw(st.lists(st.tuples(*[SMALL] * n), min_size=1, max_size=4 if n <= 3 else 1))
    if n > 3:
        scale = draw(st.integers(1, 2))
        points += [vec_add(points[0], tuple(scale * (i == j) for j in range(n))) for i in range(n)]
    try:
        return qbary.hull.convex_hull(points)
    except qb.DegenerateInput:
        return qbary.hull.convex_hull(points + [vec_add(points[0], tuple(int(i == j) for j in range(n))) for i in range(n)])


RAGGED = st.lists(st.lists(SMALL, max_size=3).map(tuple), min_size=2, max_size=4)
POINTS = st.one_of(wide_rows(), RAGGED, HOSTILE)
OPERANDS = st.one_of(
    st.integers(1, 9).flatmap(polytopes_in),
    st.sampled_from(("p2", "cube3")).map(qb.load_fixture),
    wide_rows().map(lambda rows: Body(len(rows[0]), tuple(sorted(set(rows))))),
    POINTS,
)
SCALARS = st.one_of(st.integers(-1, 4), HOSTILE)


@FUZZ
@given(POINTS)
def test_body_from_points_builds_or_refuses(points):
    try:
        body = body_from_points(points)
    except qb.QbaryError:
        return
    assert body.dim <= 7
    assert list(body.vertices) == sorted(set(body.vertices)) and set(body.vertices) <= set(map(tuple, points))


@FUZZ
@given(OPERANDS, OPERANDS)
def test_minkowski_sum_builds_or_refuses(a, b):
    try:
        total = qb.minkowski_sum(a, b)
    except qb.QbaryError:
        return
    assert isinstance(a, qb.Polytope) and isinstance(b, qb.Polytope) and isinstance(total, qb.Polytope)
    assert total.dim == a.dim == b.dim <= 7


class Virtual(NamedTuple):
    """A slot that holds ``VirtualPolytope(dim, terms)``."""

    terms: object
    dim: object

    def build(self) -> VirtualPolytope:
        return VirtualPolytope(self.dim, self.terms)


HOSTILE_SLOTS = st.lists(
    st.tuples(
        st.one_of(OPERANDS, st.builds(Virtual, st.lists(st.tuples(SCALARS, OPERANDS), max_size=2).map(tuple), SCALARS)),
        SCALARS,
    ),
    max_size=3,
)


@st.composite
def slots_in_one_dimension(draw):
    """One to three slots in one dimension n, 1 to 9, with multiplicities
    summing to n, each a polytope or a virtual polytope of one or two terms
    with coefficients +-1, over a pool of one to three polytopes."""
    n = draw(st.integers(1, 9))
    pool = [draw(polytopes_in(n)) for _ in range(draw(st.integers(1, 3)))]
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=2, unique=True))) if n > 1 else []
    combined = st.lists(st.tuples(st.sampled_from((-1, 1)), st.sampled_from(pool)), min_size=1, max_size=2)
    content = st.one_of(st.sampled_from(pool), combined.map(lambda terms: Virtual(tuple(terms), n)))
    return [(draw(content), b - a) for a, b in zip([0, *cuts], [*cuts, n])]


@FUZZ
@given(st.one_of(HOSTILE_SLOTS, slots_in_one_dimension()))
def test_virtual_combinations_and_mixed_volumes_end_in_a_value_or_a_refusal(slots):
    try:
        value = qb.mixed_volume([(v.build() if isinstance(v, Virtual) else v, m) for v, m in slots])
    except qb.QbaryError:
        return
    assert isinstance(value, Fraction)
    assert all(isinstance(v, (qb.Polytope, Virtual)) for v, _ in slots)


# ---------------------------------------------------------------------------
# the CLI's parser

# the name and options of every command, and an argparse parser apart from
# the CLI's, by which every line is parsed for comparison
COMMANDS = sorted((name, options) for name, (_, _, options) in qbary.cli._COMMANDS.items())
OPTIONS = sorted({"-h", "--help", *(option for _, options in COMMANDS for option in options)})
PARSER = build_parser()
VALUES = st.one_of(
    st.integers(-20, 20).map(str),
    st.lists(SMALL, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(("p2", "two", "1.5", "-1,2;0,1", "")),
)
TOKENS = st.one_of(
    VALUES,
    st.sampled_from([name for name, _ in COMMANDS]),
    st.sampled_from(OPTIONS),
    # abbreviations, some of them ambiguous, and attached values
    st.builds(lambda option, n: option[:n], st.sampled_from(OPTIONS), st.integers(2, 5)),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), VALUES),
    st.sampled_from(("--", "-", "-x", "--no-such-option", "no-such-command")),
)


@st.composite
def command_lines(draw) -> list[str]:
    """A command and some of its options, each with a value if it takes
    one, in a drawn order, with up to two stray tokens put in."""
    name, options = draw(st.sampled_from(COMMANDS))
    words = []
    for option, kwargs in options.items():
        if draw(st.integers(0, 3)):
            words.append([option] if kwargs.get("action") == "store_true" else [option, draw(VALUES)])
    words = [word for group in draw(st.permutations(words)) for word in group]
    for token in draw(st.lists(TOKENS, max_size=2)):
        words.insert(draw(st.integers(0, len(words))), token)
    return [name, *words]


def _parsed(parse, argv: list[str]):
    """The parsed arguments, the refusal's message, or the status and the
    text of the help printed."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except qb.InvalidInput as exc:
        return "refused", str(exc)
    except qbary.cli._HelpShown as exc:
        return "help", exc.status, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(command_lines(), st.lists(TOKENS, max_size=8))
def test_a_command_parses_alone_as_under_the_top_level_parser(line, tokens):
    for argv in (line, tokens):
        alone = _parsed(qbary.cli._parse, argv)
        whole = _parsed(lambda a: PARSER.parse_args(qbary.cli._attach_vector_values(a)), argv)
        assert alone == whole, argv


# Lines at the edges of the table, each compared the same way, and whether
# the table reads it (True) or leaves it to argparse (False).
EDGE_LINES = (
    (["count", "--input", "f1", "--k=3"], True),
    (["count", "--input", "f1", "--k", "2", "--k", "3"], True),
    (["count", "--input=", "--k", "1"], True),
    (["bc", "--rays", "", "--offsets", "1,1,1"], True),
    (["bc", "--input", "p2", "--table", "--table"], True),
    (["count", "--input", "f1", "--k", "\uff13"], True),
    (["count", "--input", "f1", "--k", "1_0"], True),
    (["df", "--input", "f1", "--v", "-1,2"], True),
    (["delta-seq", "--input", "f1", "--ks", "-1,2"], True),
    (["mixed-volume", "--multiplicities", "-1,3"], True),
    (["count", "--input=-x", "--k", "1"], True),
    (["bc", "--input", "p2", "--approx=1"], False),
    (["bc", "--input", "p2", "--table="], False),
    (["count", "--input", "f1", "--k", "3", "-h"], False),
    (["count", "--input", "f1", "--k", "-3"], False),
    (["count", "--input=--", "--k", "1"], False),
    (["count", "--input", "f1", "--k"], False),
    (["count", "--input", "f1"], False),
    (["count", "--input", "f1", "--k", "3", "--"], False),
    (["count", "--input", "f1", "--k", "x3"], False),
    (["mixed-volume", "--input", "p2"], False),
    (["mixed-volume", "--input", "p2", "--input", "f1"], False),
    (["mixed-volume", "--input", "p2", "--multiplicities", "-1,3"], False),
)


@pytest.mark.parametrize("argv, plain", EDGE_LINES, ids=[" ".join(argv) for argv, _ in EDGE_LINES])
def test_an_edge_line_parses_alone_as_under_the_top_level_parser(argv, plain):
    alone = _parsed(qbary.cli._parse, argv)
    whole = _parsed(lambda a: PARSER.parse_args(qbary.cli._attach_vector_values(a)), argv)
    assert alone == whole
    words = qbary.cli._attach_vector_values(argv)[1:]
    assert (qbary.cli._read_plain(qbary.cli._PLAIN[argv[0]], words) is not None) == plain
