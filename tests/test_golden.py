"""CLI output held byte for byte to recorded golden documents.

``tests/golden/cli.json`` holds, for each command line below, the exit
status, stdout and stderr of ``python -m qbary.cli``, run from the
repository root, so an input file is named by its path from there.  The
test runs the same command lines through ``qbary.cli.execute`` from the
same directory and compares all three
exactly, so a rewrite of any layer underneath must leave the printed
results unchanged.  After a deliberate change of output, regenerate the
file with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

``PYTHONPATH=src python tests/test_golden.py --check`` replays the file the
same way with the standard library alone, so it runs on any supported
Python with no test dependencies; it prints every command line whose output
differs and exits 1 if there is one.  Under pytest the command lines are
parametrized by ``pytest_generate_tests``, so this module never imports
pytest.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from qbary.cli import execute

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
# argparse wraps usage text to the terminal's width, which it reads from
# COLUMNS first: lines are recorded and replayed at one width.
COLUMNS = {"COLUMNS": "80"}

FIXTURES = (
    "p2",
    "f1",
    "blowup-p1xp1",
    "fano-3-29",
    "cube2",
    "cube3",
    "square-reflexive-nondelzant",
    "square-delzant-nonreflexive",
    "hexagon",
)
DELZANT = tuple(name for name in FIXTURES if name != "square-reflexive-nondelzant")
DIM = {name: 3 if name in ("fano-3-29", "cube3") else 2 for name in FIXTURES}
MIXED_PAIRS = (("p2", "f1"), ("f1", "hexagon"), ("blowup-p1xp1", "cube2"), ("hexagon", "square-delzant-nonreflexive"))
# Ray data given inline, which builds the polytope from its half-spaces.
INLINE = {
    "p2": ("-1,-1;0,1;1,0", "1,1,1"),
    "f1": ("1,0;0,1;-1,-1;1,1", "1,1,1,1"),
    "cube3": ("-1,0,0;0,-1,0;0,0,-1;0,0,1;0,1,0;1,0,0", "1,1,1,1,1,1"),
}
INLINE_REFUSED = (
    ("1,0;0,1;-1,-1;1,1", "1,1,1,5"),  # a redundant inequality
    ("1,0;0,1;-1,0", "1,1,1"),  # normals that do not positively span
    ("1,0;0,1", "1,1"),  # normals that do not span
    ("1,0;-1,0;0,1;0,-1", "-1,0,1,1"),  # an empty intersection
    ("1,0;0,1;-1,-2", "0,0,3"),  # one vertex, (0, 3/2), off the lattice
)
# Measures off longer face walks, given inline: a 4-simplex away from the
# origin, each facet coned from the vertex it misses, and the unit 5-cube,
# whose ten facets are 4-cubes of 24 simplices each.
INLINE_MEASURED = (
    # conv((1,1,1,1), (1,2,1,3), (1,4,1,2), (2,1,3,1), (3,1,2,1)), away from 0
    ("-5,-3,-5,-6;-1,0,2,0;0,-1,0,3;0,2,0,-1;2,0,-1,0", "34,-1,-2,-1,-1"),
    # the unit 5-cube
    (
        "-1,0,0,0,0;0,-1,0,0,0;0,0,-1,0,0;0,0,0,-1,0;0,0,0,0,-1;"
        "0,0,0,0,1;0,0,0,1,0;0,0,1,0,0;0,1,0,0,0;1,0,0,0,0",
        "1,1,1,1,1,0,0,0,0,0",
    ),
)
# The segment [0, 3]: in dimension 1 each coordinate-sum polynomial is
# fitted on every sample there is, so only its top two coefficients check it.
SEGMENT = ("1;-1", "0,3")
# Counting at larger dilations: the unit 5-cube, whose every facet involves
# one axis; [0,1]^2 x conv((0,0),(2,0),(0,1),(1,2)), with facets of every
# role along a scan row; and the 4-D cross-polytope, whose sixteen facets
# involve every axis.
BOX_QUAD = ("1,0,0,0;-1,0,0,0;0,1,0,0;0,-1,0,0;0,0,0,1;0,0,-2,-1;0,0,1,-1;0,0,1,0", "0,1,0,1,0,4,1,0")
CROSS4 = (
    ";".join(f"{a},{b},{c},{d}" for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)),
    ",".join(["1"] * 16),
)
# Long scan rows of several envelope pieces: the octagon
# conv((0,0),(3,-1),(5,0),(6,2),(5,4),(3,5),(0,4),(-1,2)), whose solved axis
# has coefficients +-1 and +-2 with four facets on each side, and the skinny
# 4-simplex conv(0, e_1, e_2, e_3, (3,2,3,4)).
OCTAGON = ("-2,-1;-2,1;-1,-2;-1,2;1,-3;1,3;2,-1;2,1", "14,10,13,5,12,0,4,0")
SKINNY4 = ("-4,-4,-4,7;0,0,0,1;0,0,4,-3;0,2,0,-1;4,0,0,-3", "4,0,0,0,0")
# The Todd route in dimension 4, given inline: [-1,1]^4, the anticanonical
# P^4, and the Hirzebruch trapezoid conv((0,0),(3,0),(0,1),(2,1)) times
# 2 Delta_2, which is Delzant but not reflexive, with unequal offsets.
DELZANT4 = (
    ("1,0,0,0;-1,0,0,0;0,1,0,0;0,-1,0,0;0,0,1,0;0,0,-1,0;0,0,0,1;0,0,0,-1", "1,1,1,1,1,1,1,1"),
    ("1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1;-1,-1,-1,-1", "1,1,1,1,1"),
    ("1,0,0,0;0,1,0,0;0,-1,0,0;-1,-1,0,0;0,0,1,0;0,0,0,1;0,0,-1,-1", "0,0,1,3,0,0,2"),
)
# Measures off faces that are not simplices, given inline: [-1,1]^6, whose
# faces are all cubes; [0,1] x [0,2] x 2 Delta_2, whose facets are prisms
# and boxes; and the hull of (-40,51,39,-67), (-6,54,21,60),
# (48,-84,55,-97), (20,-34,41,-41), (-51,83,20,38), (40,21,1,63),
# (-62,-41,62,-62) and (33,-1,89,-97), which has 7 vertices and 12 facets
# and is not simple.  With BOX_QUAD and CROSS4 these take bc and expand.
CUBE6 = (
    ";".join(",".join(str(s * (i == j)) for i in range(6)) for j in range(6) for s in (1, -1)),
    ",".join(["1"] * 12),
)
BOX12_TRIANGLE = ("1,0,0,0;-1,0,0,0;0,1,0,0;0,-1,0,0;0,0,1,0;0,0,0,1;0,0,-1,-1", "0,1,0,2,0,0,2")
HULL8 = (
    "-124673,488585,-1247725,-742546;-61924,205486,-528947,-316466;-54686,-75145,131,12797;"
    "-44401,189952,-457748,-281366;-32060,-22030,39635,26231;-7240,-10080,1655,2613;"
    "18340,-15325,-43480,-1276;47690,42187,33559,-43463;51542,-16283,-303815,-113081;"
    "91480,90530,429995,90287;158450,101170,538165,83149;180700,4070,69785,548957",
    "43623357,18628059,2959143,15970854,52842,335006,3125403,-88917,14353509,-11678406,-14239122,41078934",
)


# Products of coordinate blocks, counted through their factors: QUAD =
# conv((0,0),(2,0),(0,1),(1,2)) on axes 0 and 2 times 2 Delta_2 on axes 1
# and 3, whose blocks interleave; [0,2] times the skinny 3-simplex
# conv(0, e_1, e_2, (4,3,5)), a factor that is not a box; and [-1,1]^7.
QUAD_TRIANGLE = ("0,0,1,0;1,0,0,0;-2,0,-1,0;1,0,-1,0;0,1,0,0;0,0,0,1;0,-1,0,-1", "0,0,4,1,0,0,2")
SEGMENT_SKINNY3 = ("-1,0,0,0;0,-5,-5,6;0,0,0,1;0,0,5,-3;0,5,0,-4;1,0,0,0", "2,5,0,0,0,0")
CUBE7 = (
    ";".join(",".join(str(s * (i == j)) for i in range(7)) for j in range(7) for s in (1, -1)),
    ",".join(["1"] * 14),
)
# Ray data as the caller lists it: f1 with its rays out of facet order, in
# which argmin indices are reported, and P^2 with the ray (2, 0) of content
# 2, which is divided, with its offset, by its content.
F1_REORDERED = ("1,1;1,0;-1,-1;0,1", "1,1,1,1")
P2_CONTENT_2 = ("2,0;0,1;-1,-1", "2,1,1")
# Products measured and planned through their factors: the Hirzebruch
# trapezoid conv((0,0),(3,0),(0,1),(2,1)) on axes 0 and 2 times [0,2] on
# axis 1 times [-1,1] on axis 3, whose blocks interleave and whose first
# factor is not symmetric; and the same trapezoid times [0,2] in dimension
# 3, with the segment on the middle axis.
TRAPEZOID_SEGMENTS = ("0,0,1,0;1,0,0,0;0,0,-1,0;-1,0,-1,0;0,1,0,0;0,-1,0,0;0,0,0,1;0,0,0,-1", "0,0,1,3,0,2,1,1")
TRAPEZOID_SEGMENT3 = ("0,0,1;1,0,0;0,0,-1;-1,0,-1;0,1,0;0,-1,0", "0,0,1,3,0,2")
# Half-space systems refused as unbounded, one per boundedness branch: an
# empty and a lower-dimensional intersection whose normals do not
# positively span, normals in a plane, and normals that span R^3 but do not
# positively span it.
UNBOUNDED = (
    ("1,0;-1,0;0,1", "-1,0,1"),
    ("1,0;-1,0;0,1", "0,0,1"),
    ("1,0,0;0,1,0;-1,-1,0", "1,1,1"),
    ("1,0,0;0,1,0;0,0,1;-1,-1,0", "1,1,1,1"),
)

# Mixed volumes refused for their arguments, across ambient dimensions and
# with multiplicities that overshoot the dimension, and one that repeats a
# body across slots, whose terms the expansion groups into one multiset.
MIXED_SLOTS = (("p2", "cube3"), ("p2", "f1", "cube2"), ("cube3", "fano-3-29", "cube3"))

# Products on either side of the dimension at which measures and counting
# go through the factors: the Hirzebruch trapezoid
# conv((0,0),(3,0),(0,1),(2,1)) on axes 0 and 2 times 2 Delta_2 on axes 1
# and 3, whose blocks interleave, and the 2-D rectangle [0,2] x [0,3].
TRAPEZOID_TRIANGLE = ("1,0,0,0;0,0,1,0;0,0,-1,0;-1,0,-1,0;0,1,0,0;0,0,0,1;0,-1,0,-1", "0,0,1,3,0,0,2")
RECTANGLE = ("1,0;0,1;-1,0;0,-1", "0,0,2,3")

# Usage errors, whose stderr carries argparse's message and the usage of
# the parser that refused: a missing and a malformed option value, a
# command that does not exist, no arguments at all, and another command's
# option; and a direction given as --v -1,2, which reaches argparse as
# --v=-1,2.
USAGE = (
    ["count", "--input", "f1"],
    ["count", "--input", "f1", "--k", "two"],
    ["no-such-command"],
    [],
    ["bc", "--input", "p2", "--k", "1"],
    ["rooftop", "--input", "p2", "--v", "-1,2"],
)
# Option values given as the empty string, which count as given: empty ray
# data with offsets, and offsets with rays; empty ray data beside an input;
# an empty input path; and empty multiplicities.
EMPTY_VALUES = (
    ["count", "--rays", "", "--offsets", "1,1,1", "--k", "1"],
    ["count", "--rays", INLINE["p2"][0], "--offsets", "", "--k", "1"],
    ["bc", "--input", "p2", "--rays", "", "--offsets", ""],
    ["count", "--input", "", "--k", "1"],
    ["mixed-volume", "--input", "p2", "--input", "f1", "--multiplicities", ""],
)
# Mixed volumes of a polygon that is not Delzant, and with a first slot of
# multiplicity 2, whose polytope is dilated.
MIXED_MORE = (
    ["mixed-volume", "--input", "square-reflexive-nondelzant", "--input", "hexagon"],
    ["mixed-volume", "--input", "fano-3-29", "--input", "cube3", "--multiplicities", "2,1"],
)
# Help, printed to stdout with exit status 0: the top-level parser's and a
# command's.
HELP = (["-h"], ["count", "--help"])
# Ehrhart data above dimension 3, given inline: the anticanonical P^4
# (DELZANT4's second entry), reflexive, with reciprocity checked past the
# dilations k = 1..4 that its records come from, and [-1,1]^5.
CUBE5 = (
    ";".join(",".join(str(s * (i == j)) for i in range(5)) for j in range(5) for s in (1, -1)),
    ",".join(["1"] * 10),
)
# Vertex documents, named by their path from the repository root, where
# every command line runs: the unit 5-cube; [0,1]^2 x QUAD; all 24 lattice
# points of [0,2] x [0,1]^3, most of them not vertices; and [0,1] x [0,2]
# on axes 0 and 2 times 2 Delta_2 on axes 1 and 3, whose blocks interleave.
# {0,1}^3 x {3}, a 4-D product with a flat factor, is refused.
VERTEX_PRODUCTS = ("cube5", "box11-quad", "box2111-points", "box12-triangle2")
FLAT_PRODUCT = "cube3-flat"
# Lattice simplices read above the dilations that the fits read, given
# inline: conv(0, e_1, e_2, (1,3,3)) and its translate by (5,-3,7), and
# conv(0, e_1, e_2, e_3, (1,2,3,5)) and its image under a GL_4(Z) map, each
# of n! vol at most 5; and the Reeve-like conv(0, e_1, e_2, (1,1,1000)),
# whose n! vol is 1000 against at most 41 rows of a pass.
LOW_SIMPLICES = (
    ("-1,-1,1;0,0,1;0,1,-1;3,0,-1", "1,0,0,0"),
    ("-1,-1,1;0,0,1;0,1,-1;3,0,-1", "-4,-7,10,-8"),
    ("-1,-1,-1,1;0,0,0,1;0,0,5,-3;0,5,0,-2;5,0,0,-1", "1,0,0,0,0"),
    ("-1,0,-1,2;0,0,0,1;0,0,5,-8;0,5,-5,3;5,-5,5,-6", "1,0,0,0,0"),
)
REEVE_1000 = ("-1000,-1000,1;0,0,1;0,1000,-1;1000,0,-1", "1000,0,0,0")


def document(name: str) -> str:
    return f"tests/golden/documents/{name}.json"


# Decimal renderings, as JSON and as a table: a vector, nested lists of
# floats, a document with integers and floats side by side, a table with an
# approximate column, and a table without one.
APPROX_AND_TABLE = (
    ["bck", "--input", "f1", "--k", "3", "--approx"],
    ["expand", "--input", "fano-3-29", "--approx"],
    ["delta-seq", "--input", "f1", "--ks", "1,2,3", "--approx"],
    ["bc", "--input", "hexagon", "--table", "--approx"],
    ["classify", "--input", "p2", "--table"],
)
# Option forms: a value attached with =, an option given twice, whose last
# value wins, an abbreviated option name, and a negative value, which
# argparse passes and the library refuses.
OPTION_FORMS = (
    ["count", "--input", "f1", "--k=3"],
    ["count", "--input", "f1", "--k", "2", "--k", "3"],
    ["count", "--inp", "f1", "--k", "3"],
    ["count", "--input", "f1", "--k", "-3"],
)
# Inputs by fixture name with .json, and a name that is neither a file nor a
# fixture; a table on a 3-D fixture; a fixture read by expand; and a mixed
# volume whose slots name a fixture with and without .json.
INPUT_FORMS = (
    ["classify", "--input", "f1.json"],
    ["bc", "--input", "cube3.json", "--table"],
    ["expand", "--input", "hexagon.json", "--order", "2"],
    ["mixed-volume", "--input", "p2.json", "--input", "f1"],
    ["classify", "--input", "no-such-fixture"],
)
# Comma-separated values that start with a minus sign, given as a separate
# word and attached with =: either way the library reads and refuses them.
NEGATIVE_LISTS = (
    ["delta-seq", "--input", "f1", "--ks", "-1,2"],
    ["delta-seq", "--input", "f1", "--ks=-1,2"],
    ["mixed-volume", "--input", "p2", "--input", "f1", "--multiplicities", "-1,3"],
    ["mixed-volume", "--input", "p2", "--input", "f1", "--multiplicities=-1,3"],
)
# Document files at the edges of the read: line ends CRLF and a bare CR, each
# read as a newline, so each JSON error sits on line 2; a UTF-8 byte-order
# mark, which JSON refuses in a text; an empty file; bytes that are not
# UTF-8; and a directory.
READ_EDGES = ("crlf-error", "cr-error", "bom", "empty", "not-utf8")


def command_lines() -> list[list[str]]:
    lines = []
    for name in FIXTURES:
        for command in (["bc"], ["classify"], ["ehrhart"], ["expand"], ["bck", "--k", "7"], ["delta-seq", "--ks", "1,2,3"]):
            lines.append([*command, "--input", name])
    for name in DELZANT:
        lines.append(["hrr", "--input", name])
    for name in DELZANT:
        lines.append(["mixed-volume", "--input", name, "--multiplicities", str(DIM[name])])
    for a, b in MIXED_PAIRS:
        lines.append(["mixed-volume", "--input", a, "--input", b])
    for name in DELZANT:
        rest = (0,) * (DIM[name] - 2)
        for v in ((1, 0, *rest), (-1, 2, *rest)):
            lines.append(["rooftop-coeffs", "--input", name, "--v", ",".join(map(str, v))])
    for name, (rays, offsets) in INLINE.items():
        for command in ("classify", "bc", "expand", "hrr"):
            lines.append([command, "--rays", rays, "--offsets", offsets])
    lines.append(["delta", "--rays", INLINE["f1"][0], "--offsets", INLINE["f1"][1]])
    for rays, offsets in INLINE_REFUSED:
        lines.append(["classify", "--rays", rays, "--offsets", offsets])
    for rays, offsets in INLINE_MEASURED:
        for command in ("bc", "classify"):
            lines.append([command, "--rays", rays, "--offsets", offsets])
    for command in (["expand"], ["ehrhart"], ["bck", "--k", "5"], ["delta-seq", "--ks", "1,2"]):
        lines.append([*command, "--rays", SEGMENT[0], "--offsets", SEGMENT[1]])
    for rays, offsets in INLINE_MEASURED:
        for command in (["expand"], ["bck", "--k", "3"]):
            lines.append([*command, "--rays", rays, "--offsets", offsets])
    for command in (["bck", "--k", "12"], ["reciprocity", "--kmax", "6"]):
        lines.append([*command, "--rays", INLINE_MEASURED[1][0], "--offsets", INLINE_MEASURED[1][1]])
    lines.append(["delta-seq", "--ks", "1,2,3", "--rays", BOX_QUAD[0], "--offsets", BOX_QUAD[1]])
    lines.append(["expand", "--rays", CROSS4[0], "--offsets", CROSS4[1]])
    lines.append(["count", "--k", "40", "--rays", OCTAGON[0], "--offsets", OCTAGON[1]])
    lines.append(["bck", "--k", "12", "--rays", SKINNY4[0], "--offsets", SKINNY4[1]])
    for rays, offsets in DELZANT4:
        lines.append(["hrr", "--rays", rays, "--offsets", offsets])
        for v in ("1,0,0,0", "-1,2,0,1"):
            lines.append(["rooftop-coeffs", "--rays", rays, "--offsets", offsets, f"--v={v}"])
    for name in FIXTURES:
        rest = ",0" * (DIM[name] - 2)
        for v in ("1,0", "-1,2"):
            lines.append(["df", "--input", name, f"--v={v}{rest}", "--order", "5"])
        for k in ("2", "5"):
            lines.append(["delta", "--input", name, "--k", k])
        lines.append(["reciprocity", "--input", name, "--kmax", "5"])
    for source in (["--input", "cube3"], ["--input", "fano-3-29"], ["--rays", INLINE_MEASURED[1][0], "--offsets", INLINE_MEASURED[1][1]]):
        lines.append(["delta-seq", "--ks", "1,2,3,5", "--order", "5", *source])
        lines.append(["expand", "--order", "8", *source])
    for rays, offsets in (CUBE6, BOX_QUAD, BOX12_TRIANGLE, HULL8):
        for command in ("bc", "expand"):
            lines.append([command, "--rays", rays, "--offsets", offsets])
    # CROSS4's expand line is recorded above
    lines.append(["bc", "--rays", CROSS4[0], "--offsets", CROSS4[1]])
    # the Minkowski sums of a cube and fano-3-29 have parallelogram facets
    lines.append(["mixed-volume", "--input", "cube3", "--input", "fano-3-29", "--multiplicities", "1,2"])
    for command in (["expand"], ["bck", "--k", "12"], ["reciprocity", "--kmax", "5"], ["delta-seq", "--ks", "1,2,3"]):
        lines.append([*command, "--rays", QUAD_TRIANGLE[0], "--offsets", QUAD_TRIANGLE[1]])
    for command in (["expand"], ["bck", "--k", "12"]):
        lines.append([*command, "--rays", SEGMENT_SKINNY3[0], "--offsets", SEGMENT_SKINNY3[1]])
    lines.append(["count", "--k", "40", "--rays", INLINE_MEASURED[1][0], "--offsets", INLINE_MEASURED[1][1]])
    lines.append(["expand", "--rays", CUBE7[0], "--offsets", CUBE7[1]])
    for command in (["delta", "--k", "2"], ["delta-seq", "--ks", "1,2,3"], ["fan", "--v", "1,0"], ["rooftop-coeffs", "--v", "-1,2"]):
        lines.append([*command, "--rays", F1_REORDERED[0], "--offsets", F1_REORDERED[1]])
    for command in (["classify"], ["delta"]):
        lines.append([*command, "--rays", P2_CONTENT_2[0], "--offsets", P2_CONTENT_2[1]])
    for command in (["bc"], ["expand"], ["bck", "--k", "12"]):
        lines.append([*command, "--rays", TRAPEZOID_SEGMENTS[0], "--offsets", TRAPEZOID_SEGMENTS[1]])
    lines.append(["bc", "--rays", CUBE7[0], "--offsets", CUBE7[1]])
    for command in ("bc", "expand"):
        lines.append([command, "--rays", TRAPEZOID_SEGMENT3[0], "--offsets", TRAPEZOID_SEGMENT3[1]])
    for rays, offsets in UNBOUNDED:
        lines.append(["count", "--k", "1", "--rays", rays, "--offsets", offsets])
    for inputs in MIXED_SLOTS:
        lines.append(["mixed-volume", *(arg for name in inputs for arg in ("--input", name))])
    lines.extend(list(argv) for argv in MIXED_MORE)
    for command in (["bc"], ["expand"], ["bck", "--k", "7"]):
        lines.append([*command, "--rays", TRAPEZOID_TRIANGLE[0], "--offsets", TRAPEZOID_TRIANGLE[1]])
    lines.append(["bc", "--rays", RECTANGLE[0], "--offsets", RECTANGLE[1]])
    lines.extend(list(argv) for argv in USAGE)
    lines.extend(list(argv) for argv in HELP)
    lines.extend(list(argv) for argv in EMPTY_VALUES)
    for command in (["ehrhart"], ["reciprocity", "--kmax", "6"]):
        lines.append([*command, "--rays", DELZANT4[1][0], "--offsets", DELZANT4[1][1]])
    lines.append(["ehrhart", "--rays", CUBE5[0], "--offsets", CUBE5[1]])
    # Dilations above ceil((n+1)/2), the highest sample that the fits of E and
    # the coordinate sums need: cube3 at k = 3, and the anticanonical P^4 and
    # QUAD_TRIANGLE at k = 4.
    lines.append(["count", "--k", "3", "--input", "cube3"])
    for command in (["count", "--k", "4"], ["bck", "--k", "4"]):
        lines.append([*command, "--rays", DELZANT4[1][0], "--offsets", DELZANT4[1][1]])
    lines.append(["count", "--k", "4", "--rays", QUAD_TRIANGLE[0], "--offsets", QUAD_TRIANGLE[1]])
    lines.extend(list(argv) for argv in APPROX_AND_TABLE)
    lines.extend(list(argv) for argv in OPTION_FORMS)
    lines.extend(list(argv) for argv in INPUT_FORMS)
    for name in VERTEX_PRODUCTS:
        for command in (["bc"], ["classify"], ["expand"], ["bck", "--k", "12"]):
            lines.append([*command, "--input", document(name)])
    lines.append(["classify", "--input", document(FLAT_PRODUCT)])
    for rays, offsets in (*LOW_SIMPLICES, REEVE_1000):
        for command in (["bck", "--k", "12"], ["count", "--k", "40"], ["delta", "--k", "30"]):
            lines.append([*command, "--rays", rays, "--offsets", offsets])
    # the anticanonical P^4 read far above its fitted dilations, and a long
    # expansion, whose every term runs the Laurent recurrence
    lines.append(["delta", "--k", "200", "--rays", DELZANT4[1][0], "--offsets", DELZANT4[1][1]])
    lines.append(["expand", "--order", "300", "--input", "p2"])
    lines.extend(list(argv) for argv in NEGATIVE_LISTS)
    for name in READ_EDGES:
        lines.append(["classify", "--input", document(name)])
    lines.append(["classify", "--input", "tests/golden/documents"])
    return lines


def record() -> None:
    """Run every command line in a fresh interpreter and write the golden file."""
    cases = []
    for argv in command_lines():
        run = subprocess.run(
            [sys.executable, "-m", "qbary.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, **COLUMNS},
            cwd=ROOT,
        )
        cases.append({"argv": argv, "status": run.returncode, "stdout": run.stdout, "stderr": run.stderr})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


def golden() -> dict[str, dict]:
    """The recorded cases by command line."""
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def pytest_generate_tests(metafunc) -> None:
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", command_lines(), ids=" ".join)


def test_golden_file_covers_every_command_line():
    assert list(golden()) == [" ".join(argv) for argv in command_lines()]


def recorded(case: dict) -> tuple[int, str, str]:
    return case["status"], case["stdout"], case["stderr"]


def run_line(argv: list[str]) -> tuple[int, str, str]:
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS):
            status = execute(argv)
    finally:
        os.chdir(here)
    return status, out.getvalue(), err.getvalue()


def test_cli_output_is_byte_identical(argv):
    assert run_line(argv) == recorded(golden()[" ".join(argv)])


def test_replay_in_one_process_is_byte_identical():
    # the second pass finds every document resolved and every cache warm
    for _ in range(2):
        for case in golden().values():
            assert run_line(case["argv"]) == recorded(case), case["argv"]


def check() -> int:
    """Replay the golden file in this process and report every difference;
    the status is 1 if there is one."""
    cases = golden()
    diffs = [line for line, case in cases.items() if run_line(case["argv"]) != recorded(case)]
    if list(cases) != [" ".join(argv) for argv in command_lines()]:
        diffs.append("(the recorded command lines are not command_lines())")
    for line in diffs:
        print(f"differs: {line}", file=sys.stderr)
    print(f"{len(cases)} command lines replayed, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: test_golden.py [--check]")
    record()
