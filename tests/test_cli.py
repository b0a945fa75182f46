from __future__ import annotations

import argparse
import ast
import errno
import json
import os
import subprocess
import sys

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbary.cli
import qbary.ehrhart
import qbary.errors
import qbary.expansion
import qbary.polytope
import qbary.stability
from qbary.cli import execute, main
from qbary.data import fixture_document, fixture_text
from qbary.exactnum import rational_to_json, vector_to_json

from conftest import CHECKS, clear_caches, count_hulls, failed_check, route_ensure
from test_golden import golden, recorded, run_line

GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def run(capsys, *argv):
    code = execute(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bck_fixture(capsys):
    code, out, _ = run(capsys, "bck", "--input", "f1", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "bck"
    assert doc["input"] == "f1"
    assert doc["outputs"]["Bc_k"] == ["1/9", "1/9"]
    assert doc["diagnostics"]["rational_function_checked"] is True
    assert doc["diagnostics"]["reflexive_polygon_form_checked"] is True


def test_delta_p2(capsys):
    code, out, _ = run(capsys, "delta", "--input", "p2.json", "--k", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["delta_k"] == 1
    assert doc["diagnostics"]["del_pezzo_form_checked"] is True


def test_expand_f1(capsys):
    code, out, _ = run(capsys, "expand", "--input", "f1", "--order", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["a"] == [
        ["1/12", "1/12"],
        ["1/24", "1/24"],
        ["-1/48", "-1/48"],
    ]


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "delta-seq", "--input", "f1", "--ks", "1,2,3", "--order", "3")
    _, second, _ = run(capsys, "delta-seq", "--input", "f1", "--ks", "1,2,3", "--order", "3")
    assert first == second


def test_inline_rays(capsys):
    code, out, _ = run(
        capsys, "classify", "--rays", "1,0;0,1;-1,-1;1,1", "--offsets", "1,1,1,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"] == {"reflexive": True, "delzant": True}


def test_inline_rays_of_the_5d_cross_polytope(capsys):
    # 32 facets: C(32, 5) subset solves would take minutes
    signs = [",".join(map(str, s)) for s in product((-1, 1), repeat=5)]
    code, out, _ = run(capsys, "classify", "--rays", ";".join(signs), "--offsets", ",".join(["1"] * 32))
    assert code == 0
    assert json.loads(out)["outputs"] == {"reflexive": True, "delzant": False}


def test_count_and_fan(capsys):
    code, out, _ = run(capsys, "count", "--input", "cube3", "--k", "2")
    assert json.loads(out)["outputs"]["count"] == 125 and code == 0
    code, out, _ = run(capsys, "fan", "--rays", "1,0;0,1;-1,-1", "--offsets", "1,1,1", "--v", "1,0")
    doc = json.loads(out)
    assert doc["outputs"]["rays"] == [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [1, 0, -1]]
    assert doc["outputs"]["q"] == 2


def test_mixed_volume_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    # degenerate inputs are rejected by the polytope loader; use squares
    a.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    b.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [0, 2], [2, 2]]}))
    code, out, _ = run(capsys, "mixed-volume", "--input", str(a), "--input", str(b))
    assert code == 0
    assert json.loads(out)["outputs"]["mixed_volume"] == 2


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0, 0], ')
    code, _, err = run(capsys, "count", "--input", str(path), "--k", "1")
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_input_is_an_input_error(capsys):
    code, _, err = run(capsys, "count", "--input", "nope.json", "--k", "1")
    assert code == 1
    assert "no such input" in err


def test_inconsistent_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [[0, 0], [1, 0], [0, 1]],
                "normals": [[1, 0], [0, 1], [-1, -1]],
                "offsets": [1, 1, 1],
            }
        )
    )
    code, _, err = run(capsys, "classify", "--input", str(path))
    assert code == 1
    assert "disagree" in err


def test_precondition_failure_surfaces_library_error(capsys):
    code, _, err = run(capsys, "rooftop", "--input", "f1", "--v", "1,0", "--q", "1")
    assert code == 1
    assert "rooftop" in err


def test_table_and_approx(capsys):
    code, out, _ = run(capsys, "bc", "--input", "f1", "--table", "--approx")
    assert code == 0
    assert "display only" in out
    assert "1/12" in out
    code, out, _ = run(capsys, "bc", "--input", "f1", "--approx")
    doc = json.loads(out)
    assert doc["approx"]["volume"] == 4
    assert doc["approx"]["Bc"] == [pytest.approx(1 / 12), pytest.approx(1 / 12)]


def test_rooftop_coeffs_command(capsys):
    code, out, _ = run(capsys, "rooftop-coeffs", "--input", "f1", "--v", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["c_prime"] == ["1/3", 1, "2/3"]
    assert doc["outputs"]["q"] == 2


def test_ehrhart_and_reciprocity_commands(capsys):
    code, out, _ = run(capsys, "ehrhart", "--input", "cube3")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["coefficients"] == [1, 6, 12, 8]
    assert doc["diagnostics"]["reflexive_closed_form_checked"] is True
    code, out, _ = run(capsys, "reciprocity", "--input", "blowup-p1xp1", "--kmax", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["all_passed"] is True
    assert len(doc["outputs"]["checks"]) == 3
    assert doc["outputs"]["checks"][0]["reflexive"] is True


def test_hrr_and_df_commands(capsys):
    code, out, _ = run(capsys, "hrr", "--input", "f1")
    assert code == 0
    assert json.loads(out)["outputs"]["coefficients"] == [1, 4, 4]
    code, out, _ = run(capsys, "df", "--input", "f1", "--v", "1,1", "--order", "3")
    assert code == 0
    assert json.loads(out)["outputs"]["DF"] == ["1/6", "1/12", "-1/24"]


def test_bc_and_rooftop_commands(capsys):
    code, out, _ = run(capsys, "bc", "--input", "p2")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["volume"] == "9/2"
    assert doc["outputs"]["boundary_volume"] == 9
    code, out, _ = run(capsys, "rooftop", "--input", "f1", "--v", "1,0")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["q"] == 2
    assert len(doc["outputs"]["normals"]) == 6


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["df", "--input", "f1", "--v", "-1,2"], ["df", "--input", "f1", "--v=-1,2"]),
        (["fan", "--input", "p2", "--v", "-1,0"], ["fan", "--input", "p2", "--v=-1,0"]),
        (
            ["classify", "--rays", "-1,-1;1,0;0,1", "--offsets", "-1,2,2"],
            ["classify", "--rays=-1,-1;1,0;0,1", "--offsets=-1,2,2"],
        ),
    ],
)
def test_vector_options_take_negative_values(capsys, spaced, joined):
    code, out, err = run(capsys, *spaced)
    assert code == 0, err
    assert run(capsys, *joined) == (0, out, "")


# {x >= -1, y >= -1, x + y <= 10^20 - 1}, a triangle of side M = 10^20 + 1:
# its one scan row is summed in closed form, so counting does not walk its
# 10^40 points.
HUGE_TRIANGLE = ("--rays", "1,0;0,1;-1,-1", "--offsets", "1,1,99999999999999999999")


@pytest.mark.parametrize(
    "argv, outputs",
    [
        # (M + 1)(M + 2) / 2 points
        (["count", "--k", "1"], {"count": 5000000000000000000250000000000000000003}),
        (["bck", "--k", "3"], {"Bc_k": ["99999999999999999998/3"] * 2}),
    ],
    ids=("count", "bck"),
)
def test_a_triangle_of_side_10_to_the_20_returns_promptly(argv, outputs):
    src = str(Path(qbary.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-m", "qbary.cli", *argv, *HUGE_TRIANGLE], capture_output=True, text=True, env=env, timeout=30
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["outputs"] == outputs


def test_usage_errors_exit_1(capsys):
    code, out, err = run(capsys, "count", "--input", "f1")
    assert code == 1 and out == ""
    assert "required: --k" in err and "usage: qbary count" in err
    code, _, err = run(capsys, "count", "--input", "f1", "--k", "two")
    assert code == 1 and "invalid int value" in err
    code, _, err = run(capsys, "no-such-command")
    assert code == 1 and "invalid choice" in err


def test_usage_error_then_a_command_in_one_process(monkeypatch, capsys):
    # the first call builds the parser and the usage error must not spoil
    # it for the next; the golden output was recorded in a fresh process
    monkeypatch.setattr(qbary.cli, "_parser", None)
    assert run(capsys, "delta-seq", "--input", "f1")[0] == 1
    parser = qbary.cli._parser
    argv = ["delta-seq", "--ks", "1,2,3", "--input", "f1"]
    case = next(c for c in json.loads(GOLDEN.read_text()) if c["argv"] == argv)
    assert run(capsys, *argv) == (case["status"], case["stdout"], case["stderr"])
    assert qbary.cli._parser is parser


def test_offsets_of_non_primitive_rays_are_divided_by_their_content(tmp_path, capsys):
    # (2, 0) with offset 1 is x >= -1/2, whose vertices are not lattice points
    code, out, err = run(capsys, "classify", "--rays", "2,0;0,1;-1,-1", "--offsets", "1,1,1")
    assert code == 1 and out == "" and "not divisible" in err
    # (2, 0) with offset 2 is x >= -1: this is P^2
    doc = tmp_path / "p2.json"
    doc.write_text(json.dumps({"normals": [[2, 0], [0, 1], [-1, -1]], "offsets": [2, 1, 1]}))
    code, out, _ = run(capsys, "delta", "--input", str(doc))
    assert code == 0
    assert json.loads(out)["outputs"] == json.loads(run(capsys, "delta", "--input", "p2")[1])["outputs"]
    assert json.loads(out)["outputs"]["delta"] == 1


@pytest.mark.parametrize("command", ("df", "fan", "rooftop", "rooftop-coeffs"))
@pytest.mark.parametrize("v", ("1", "1,0,0"))
def test_direction_of_the_wrong_length_is_an_input_error(capsys, command, v):
    code, out, err = run(capsys, command, "--input", "p2", "--v", v)
    assert code == 1 and out == ""
    assert err == f"error: direction has length {v.count(',') + 1}, expected 2\n"


def test_closed_stdout_exits_1_with_message(monkeypatch, capsys):
    read_end, write_end = os.pipe()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return write_end

    monkeypatch.setattr(sys, "argv", ["qbary", "df", "--input", "f1", "--v", "1,1"])
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        with pytest.raises(SystemExit) as exc:
            main()
        # the descriptor now points at devnull: writing to it succeeds
        assert os.write(write_end, b"x") == 1
    finally:
        os.close(read_end)
        os.close(write_end)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# one process resolves each document once

def session(path: str, dim: int) -> list[list[str]]:
    """The ten commands of a session on one polytope."""
    pad = ",0" * (dim - 2)
    commands = (
        ["bc"],
        ["classify"],
        ["ehrhart"],
        ["bck", "--k", "2"],
        ["delta"],
        ["delta", "--k", "2"],
        ["fan", "--v", "1,0" + pad],
        ["df", "--v", "1,1" + pad],
        ["count", "--k", "3"],
        ["rooftop", "--v", "-1,2" + pad],
    )
    return [[*command, "--input", path] for command in commands]


def write_document(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", ("f1", "cube3"))
def test_warm_session_builds_no_hull(name, tmp_path, capsys, monkeypatch):
    path = write_document(tmp_path / f"{name}.json", fixture_document(name))
    lines = session(path, 3 if name == "cube3" else 2)
    qbary.cli._resolve_document.cache_clear()
    calls = count_hulls(monkeypatch)
    passes = []
    for _ in range(2):
        calls.clear()
        outputs = [run(capsys, *argv) for argv in lines]
        passes.append((len(calls), outputs))
    (cold, first), (warm, second) = passes
    assert all(code == 0 for code, _, _ in first)
    assert cold > 0 and warm == 0
    assert second == first


def test_an_edited_document_is_not_served_stale(tmp_path, capsys):
    path = tmp_path / "square.json"
    volumes = []
    for side in (1, 2):
        write_document(path, {"vertices": [[0, 0], [side, 0], [0, side], [side, side]]})
        code, out, _ = run(capsys, "bc", "--input", str(path))
        assert code == 0
        volumes.append(json.loads(out)["outputs"]["volume"])
    assert volumes == [1, 4]


def test_a_document_is_keyed_by_its_text(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    qbary.cli._resolve_document.cache_clear()
    # a fixture named with and without .json is one text: one miss, one hit
    _, by_name, _ = run(capsys, "classify", "--input", "f1")
    _, by_file_name, _ = run(capsys, "classify", "--input", "f1.json")
    info = qbary.cli._resolve_document.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # a reformatted copy is another text, so its own entry, printing the same
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(fixture_document("f1"), indent=4))
    assert path.read_text() != fixture_text("f1")
    _, by_path, _ = run(capsys, "classify", "--input", str(path))
    info = qbary.cli._resolve_document.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    assert by_path == by_file_name == by_name


def spy(monkeypatch, target, attr: str, calls: list, label: str | None = None) -> None:
    """Record each call of ``target.attr``: ``label``, or its first argument."""
    real = getattr(target, attr)

    def call(*args, **kwargs):
        calls.append(args[0] if label is None else label)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, attr, call)


def warm_calls(capsys, monkeypatch, argv) -> tuple[list, list, list]:
    """What a second run of ``argv`` decodes, encodes and parses, after the
    first has resolved the documents: the parsed are the argparse parsers
    run, the top-level parser and each command's alike."""
    cold = run(capsys, *argv)
    assert cold[0] == 0
    decoded, encoded, parsed = [], [], []
    spy(monkeypatch, json, "loads", decoded)
    spy(monkeypatch, json, "dumps", encoded)
    spy(monkeypatch, argparse.ArgumentParser, "parse_known_args", parsed)
    assert run(capsys, *argv) == cold
    return decoded, encoded, parsed


def test_a_warm_command_decodes_nothing_and_runs_one_parser(tmp_path, capsys, monkeypatch):
    path = write_document(tmp_path / "f1.json", fixture_document("f1"))
    # a file and a fixture name alike: the text read is the key, and the plain
    # line is read off the command's table and the result printed by the
    # direct writer, so nothing is decoded or encoded and no parser runs
    for source in (path, "f1"):
        with monkeypatch.context() as patch:
            decoded, encoded, parsed = warm_calls(capsys, patch, ("fan", "--input", source, "--v", "-1,2"))
        assert decoded == [] and parsed == [] and encoded == []


def test_a_warm_mixed_volume_builds_no_hull_for_its_inputs(tmp_path, capsys, monkeypatch):
    path = write_document(tmp_path / "hexagon.json", fixture_document("hexagon"))
    argv = ("mixed-volume", "--input", path, "--input", "f1")
    qbary.cli._resolve_document.cache_clear()
    calls = count_hulls(monkeypatch)
    cold = run(capsys, *argv)
    assert cold[0] == 0
    built = len(calls)
    calls.clear()
    assert run(capsys, *argv) == cold
    warm = len(calls)
    # the one hull left is the Minkowski sum's, which mixed_volume builds
    # itself on every call
    slots = [(qbary.load_fixture(name), 1) for name in ("hexagon", "f1")]
    calls.clear()
    qbary.mixed_volume(slots)
    assert built > warm == len(calls)
    decoded, _, _ = warm_calls(capsys, monkeypatch, argv)
    assert decoded == []


def test_mixed_volume_refuses_a_redundant_half_space_as_bc_does(tmp_path, capsys):
    doc = {"normals": [[1, 0], [0, 1], [-1, -1], [1, 1]], "offsets": [1, 1, 1, 5]}
    path = write_document(tmp_path / "redundant.json", doc)
    code, out, err = run(capsys, "mixed-volume", "--input", path, "--multiplicities", "2")
    assert (code, out) == (1, "")
    assert err == "error: ray data contains redundant or non-facet inequalities\n"
    assert run(capsys, "bc", "--input", path) == (code, out, err)


# One plain line of each command but mixed-volume, whose repeatable --input
# argparse reads.
PLAIN_LINES = (
    ["count", "--k", "3"],
    ["bck", "--k=2"],
    ["bc", "--table", "--approx"],
    ["ehrhart"],
    ["reciprocity", "--kmax", "3"],
    ["expand", "--order", "2", "--approx"],
    ["rooftop", "--v", "-1,2"],
    ["classify", "--table"],
    ["hrr"],
    ["rooftop-coeffs", "--v", "1,1"],
    ["delta", "--k", "2"],
    ["delta-seq", "--ks", "1,2", "--order", "3"],
    ["df", "--v", "1,1", "--order", "2"],
    ["fan", "--v=-1,0"],
)


def test_a_plain_line_of_each_command_runs_no_argparse_parser(capsys, monkeypatch):
    assert sorted(line[0] for line in PLAIN_LINES) == sorted(set(qbary.cli._COMMANDS) - {"mixed-volume"})
    lines = [[*line, "--input", "f1"] for line in PLAIN_LINES]
    # what argparse gives, with the table turned off
    with monkeypatch.context() as patch:
        patch.setattr(qbary.cli, "_read_plain", lambda table, words: None)
        by_argparse = [run(capsys, *argv) for argv in lines]
    parsed = []
    spy(monkeypatch, argparse.ArgumentParser, "parse_known_args", parsed)
    assert [run(capsys, *argv) for argv in lines] == by_argparse
    assert all(code == 0 for code, _, _ in by_argparse)
    assert parsed == []


def test_the_parser_is_built_by_the_first_line_that_is_not_plain(capsys, monkeypatch):
    monkeypatch.setattr(qbary.cli, "_parser", None)
    built = []
    spy(monkeypatch, qbary.cli, "build_parser", built, "built")
    lines = [[*line, "--input", "f1"] for line in PLAIN_LINES]
    outcomes = [run(capsys, *argv) for argv in lines]
    assert all(code == 0 for code, _, _ in outcomes)
    assert qbary.cli._parser is None and built == []
    # an abbreviated option name is not plain
    assert run(capsys, "count", "--inp", "f1", "--k", "3")[0] == 0
    parser = qbary.cli._parser
    assert parser is not None and built == ["built"]
    parsed = []
    with monkeypatch.context() as patch:
        spy(patch, argparse.ArgumentParser, "parse_known_args", parsed)
        assert [run(capsys, *argv) for argv in lines] == outcomes
    assert parsed == []
    assert run(capsys, "count", "--input", "f1", "--k", "-3")[0] == 1
    assert qbary.cli._parser is parser and built == ["built"]


def test_the_table_holds_every_handler_once_in_the_order_of_help(capsys):
    handlers = [handler for handler, _, _ in qbary.cli._COMMANDS.values()]
    assert handlers == [f for name, f in vars(qbary.cli).items() if name.startswith("_cmd_")]
    assert [f"_cmd_{name.replace('-', '_')}" for name in qbary.cli._COMMANDS] == [f.__name__ for f in handlers]
    code, out, _ = run(capsys, "-h")
    assert code == 0
    listed = out.split("positional arguments:\n")[1].split()[0]
    assert listed == "{" + ",".join(qbary.cli._COMMANDS) + "}"


# any code point, lone surrogates included, and the characters json escapes
JSON_STRINGS = st.text(
    st.one_of(st.characters(blacklist_categories=()), st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfffé☃'))
)
JSON_DOCUMENTS = st.recursive(
    st.one_of(
        JSON_STRINGS,
        st.integers(),
        st.integers(-(2**200), 2**200),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCUMENTS)
def test_the_writer_prints_what_json_dumps_prints(doc):
    assert qbary.cli._json_text(doc) == json.dumps(doc, indent=2)


def test_a_name_of_any_characters_prints_as_json_dumps_prints_it(tmp_path, capsys):
    name = 'Fläche "☃"\\\t\x01\u2028\ud800'
    path = tmp_path / "named.json"
    # json.dumps escapes the lone surrogate, so the file is valid UTF-8
    path.write_text(json.dumps({"name": name, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    code, out, err = run(capsys, "bc", "--input", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["input"] == name
    assert out == json.dumps(doc, indent=2) + "\n"


# The triangle {x >= -1, y >= -1, x + y <= 10^400 + 1} of side
# M = 10^400 + 3, whose volume M^2 / 2 has no float.
BEYOND_FLOATS = ("bc", "--rays", "1,0;0,1;-1,-1", "--offsets", f"1,1,{10**400 + 1}")


@pytest.mark.parametrize("table", ((), ("--table",)), ids=("json", "table"))
def test_approx_beyond_the_range_of_a_float_is_refused(capsys, table):
    code, out, err = run(capsys, *BEYOND_FLOATS, "--approx", *table)
    assert (code, out) == (1, "")
    assert err.startswith("error: --approx: ") and err.count("\n") == 1
    code, out, err = run(capsys, *BEYOND_FLOATS, *table)
    assert (code, err) == (0, "")
    side = 10**400 + 3
    assert f'"{side**2}/2"' in out


# Integers beyond the 4300 digits that Python converts to or from text by
# default: a coordinate of 4401 digits in a document, and the triangle
# {x >= -1, y >= -1, x + y <= 10^2200 + 1}, whose volume and count at k = 1
# have about 4400 digits.
BIG_COORDINATE = '{"vertices": [[0, 0], [1' + "0" * 4400 + ', 0], [0, 1]]}'
BIG_TRIANGLE = ("--rays", "1,0;0,1;-1,-1", "--offsets", f"1,1,{10**2200 + 1}")


@pytest.mark.parametrize("table", ((), ("--table",)), ids=("json", "table"))
@pytest.mark.parametrize(
    "argv",
    (("bc", "--input", "big.json"), ("bc", *BIG_TRIANGLE), ("count", "--k", "1", *BIG_TRIANGLE)),
    ids=("coordinate", "volume", "count"),
)
def test_an_integer_beyond_the_digit_limit_is_an_input_error(argv, table, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(BIG_COORDINATE)
    code, out, err = run(capsys, *argv, *table)
    assert (code, out) == (1, "")
    assert err == (
        "error: an integer has more than 4300 digits, "
        "the limit of integer string conversion (sys.set_int_max_str_digits)\n"
    )


def test_any_other_value_error_keeps_its_traceback(capsys, monkeypatch):
    def defect(*args):
        raise ValueError("a library defect")

    monkeypatch.setitem(qbary.cli._COMMANDS, "classify", (defect, *qbary.cli._COMMANDS["classify"][1:]))
    with pytest.raises(ValueError, match="a library defect"):
        execute(["classify", "--input", "f1"])


@pytest.mark.parametrize(
    "text",
    (
        '{"vertices": [[0, 0], ',
        json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]], "normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [1, 1, 1]}),
        json.dumps({"vertices": [[0, 0], [1, 1], [2, 2]]}),
        json.dumps({"normals": [[2, 0], [0, 1], [-1, -1]], "offsets": [1, 1, 1]}),
    ),
    ids=("malformed", "inconsistent", "degenerate", "off-lattice"),
)
def test_a_refused_document_fails_the_same_way_twice(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    first = run(capsys, "classify", "--input", str(path))
    assert first[0] == 1 and first[1] == "" and first[2].startswith("error:")
    assert run(capsys, "classify", "--input", str(path)) == first


def test_a_name_under_a_fixture_file_is_no_such_input(tmp_path, capsys, monkeypatch):
    # the fixture looked up is fixtures/f1.json/x.json, below a file
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "classify", "--input", "f1.json/x") == (1, "", "error: no such input file or fixture: f1.json/x\n")


def test_a_file_that_is_not_text_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x85\xff{}")
    code, out, err = run(capsys, "bc", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ") and "codec can't decode" in err


def test_line_ends_are_read_as_text_mode_reads_them(tmp_path, capsys):
    # CRLF and a bare CR are each read as a newline, so the three files are
    # one text, one cache entry, and print the same
    qbary.cli._resolve_document.cache_clear()
    text = json.dumps(fixture_document("f1"), indent=1)
    outputs = []
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.replace("\n", end).encode())
        outputs.append(run(capsys, "bc", "--input", str(path)))
    assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3
    assert qbary.cli._resolve_document.cache_info().misses == 1


def test_a_document_is_decoded_as_utf_8(tmp_path, capsys):
    # a name of characters beyond ASCII, which a document of any other
    # encoding would give as other characters or refuse
    path = tmp_path / "named.json"
    path.write_bytes(json.dumps({"name": "P\u00b2 \u2013 \u0394", "vertices": [[0, 0], [1, 0], [0, 1]]}, ensure_ascii=False).encode())
    code, out, _ = run(capsys, "classify", "--input", str(path))
    assert code == 0 and json.loads(out)["input"] == "P\u00b2 \u2013 \u0394"


def test_the_registry_is_bounded(tmp_path, capsys):
    qbary.cli._resolve_document.cache_clear()
    for i in range(74):
        square = [[i, 0], [i + 1, 0], [i, 1], [i + 1, 1]]
        path = write_document(tmp_path / f"{i}.json", {"vertices": square})
        assert run(capsys, "classify", "--input", path)[0] == 0
    info = qbary.cli._resolve_document.cache_info()
    assert info.misses == 74 and info.currsize <= 64


def unbounded_cache(decorator: ast.expr) -> bool:
    """``lru_cache(maxsize=None)``, ``lru_cache(None)`` or ``cache``, bare or
    through ``functools``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = [k.value for k in decorator.keywords if k.arg == "maxsize"] + decorator.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def test_the_unbounded_caches_do_not_grow_in_number():
    # each unbounded cache keeps every polytope it was given for the life of
    # the process, so their number may fall but not rise
    count = 0
    for path in Path(qbary.cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += sum(map(unbounded_cache, node.decorator_list))
    assert 0 < count <= 4


# ---------------------------------------------------------------------------
# a warm command builds only the fractions it prints

# The polytopes of a session of the bench: the reflexive triangle of P^2's
# fan, the Delzant and reflexive P^2, the reflexive hexagon, a trapezoid,
# the standard 3-simplex, a cube, the octahedron and a prism.
SESSION_SHAPES = (
    [(1, 0), (0, 1), (-1, -1)],
    [(-1, -1), (2, -1), (-1, 2)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(0, 0), (3, 0), (0, 1), (2, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 1), (0, 1, 1)],
)


def printed_rationals(command: str, outputs: dict) -> int:
    """The exact rationals a command prints, each one Fraction."""
    if command == "bc":
        return 2 + len(outputs["Bc"]) + len(outputs["boundary_barycenter"])
    if command == "bck":
        return len(outputs["Bc_k"])
    if command == "df":
        return len(outputs["DF"])
    return 1  # delta and delta_k


def fractions_built(monkeypatch, capsys, argv) -> tuple[int, dict]:
    """The Fractions one run of ``argv`` builds, and its outputs."""
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        code, out, err = run(capsys, *argv)
    assert code == 0, err
    return len(built), json.loads(out)["outputs"]


@pytest.mark.parametrize("vertices", SESSION_SHAPES, ids=lambda v: f"{len(v[0])}d-{len(v)}")
def test_a_warm_command_builds_only_the_fractions_it_prints(vertices, tmp_path, capsys, monkeypatch):
    # the checks compare the printed values with the integers they come
    # from by cross-multiplying, so a warm bc, bck, delta, delta_k or df
    # builds one Fraction a printed rational and no other
    path = write_document(tmp_path / "p.json", {"vertices": vertices})
    lines = session(path, len(vertices[0]))
    assert all(run(capsys, *argv)[0] == 0 for argv in lines)
    for argv in lines:
        if argv[0] in ("bc", "bck", "delta", "df"):
            built, outputs = fractions_built(monkeypatch, capsys, argv)
            assert built == printed_rationals(argv[0], outputs), argv


def test_bc_reads_the_boundary_without_the_facets(tmp_path, capsys, monkeypatch):
    # the boundary printed is facet_data's, read without the facets', on a
    # translate of the prism by (5, 0, 0), which no other test reads
    boundary = qbary.facet_data(qbary.hull_from_vertices(SESSION_SHAPES[-1]))
    x, y, z = boundary.boundary_barycenter

    def refuse(p):
        raise AssertionError("facet_data called")

    for module in list(sys.modules.values()):
        if module.__name__.startswith("qbary") and hasattr(module, "facet_data"):
            monkeypatch.setattr(module, "facet_data", refuse)
    path = write_document(tmp_path / "prism.json", {"vertices": [[x + 5, y, z] for x, y, z in SESSION_SHAPES[-1]]})
    for _ in range(2):  # cold, then warm
        code, out, _ = run(capsys, "bc", "--input", path)
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["boundary_volume"] == rational_to_json(boundary.boundary_normalized_volume)
        assert outputs["boundary_barycenter"] == vector_to_json((x + 5, y, z))


def counted_calls(monkeypatch, module, name: str) -> list:
    calls = []
    spy(monkeypatch, module, name, calls)
    return calls


def test_bck_reads_its_record_once(capsys, monkeypatch):
    # on a reflexive polygon the closed form is compared with the value
    # read, and above the fitted dilations the record is checked once
    reads = counted_calls(monkeypatch, qbary.expansion, "checked_stats")
    code, out, _ = run(capsys, "bck", "--input", "p2", "--k", "2")
    assert code == 0 and json.loads(out)["diagnostics"]["reflexive_polygon_form_checked"] is True
    assert len(reads) == 1
    checks = counted_calls(monkeypatch, qbary.ehrhart, "_read_check")
    simplex = ";".join(["-1,-1,1", "0,0,1", "0,1,-1", "3,0,-1"]), "1,0,0,0"
    assert run(capsys, "bck", "--k", "12", "--rays", simplex[0], "--offsets", simplex[1])[0] == 0
    assert len(checks) == 1 and len(reads) == 2


def off_by_one(monkeypatch, module, field: str) -> None:
    """``module``'s face-walk integers with ``field``'s first entry off by one."""
    real = qbary.polytope._measures

    def measures(p):
        walk = real(p)
        vector = getattr(walk, field)
        return walk._replace(**{field: [vector[0] + 1, *vector[1:]]})

    monkeypatch.setattr(module, "_measures", measures)


def sums_off_by(monkeypatch, shift) -> None:
    """The records ``Bc_k`` is read off, their sums moved by ``shift(k * count)``."""
    real = qbary.expansion.checked_stats

    def stats(p, k):
        record = real(p, k)
        moved = shift(k * record.count)
        return record._replace(sums=tuple(s + d for s, d in zip(record.sums, moved)))

    monkeypatch.setattr(qbary.expansion, "checked_stats", stats)


def failing_checks(monkeypatch, forced: str | None = None) -> list:
    """The errors that checks raise from here on, in order; the check
    ``forced`` fails whatever it compares."""
    real, failed = qbary.errors.ensure, []

    def through(name, ok, message, *args):
        try:
            real(name, ok and name != forced, message, *args)
        except qbary.InternalInconsistency as exc:
            failed.append(exc)
            raise

    route_ensure(monkeypatch, through)
    return failed


@pytest.mark.parametrize(
    "argv, mutate, check, message",
    [
        # the rational form, against sums off by one
        (["bck", "--input", "f1", "--k", "2"], lambda mp: sums_off_by(mp, lambda scale: (1, 0)), "cli.bck_rational_form", "rational form disagrees with enumeration"),
        (["bck", "--input", "cube3", "--k", "4"], lambda mp: sums_off_by(mp, lambda scale: (0, 0, 1)), "cli.bck_rational_form", "rational form disagrees with enumeration"),
        # a_0 and a_1, against a wrong M and a wrong boundary moment
        (["df", "--input", "f1", "--v", "1,1"], lambda mp: off_by_one(mp, qbary.expansion, "moment"), "expansion.df0", "DF_0 differs from the barycenter pairing"),
        (["df", "--input", "f1", "--v", "1,1"], lambda mp: off_by_one(mp, qbary.expansion, "boundary_moment"), "expansion.df1", "DF_1 differs from the first-order pairing"),
        (["expand", "--input", "fano-3-29"], lambda mp: off_by_one(mp, qbary.expansion, "moment"), "expansion.a0", "a_0 differs from the barycenter"),
        (["expand", "--input", "fano-3-29"], lambda mp: off_by_one(mp, qbary.expansion, "boundary_moment"), "expansion.a1", "a_1 differs from its boundary closed form"),
        # the closed forms of reflexive polygons, against a wrong M
        (["bck", "--input", "hexagon", "--k", "2"], lambda mp: off_by_one(mp, qbary.expansion, "moment"), "expansion.polygon_closed_form", "polygon closed form disagrees with enumeration"),
        (["delta", "--input", "p2", "--k", "2"], lambda mp: off_by_one(mp, qbary.stability, "moment"), "stability.del_pezzo_closed_form", "del Pezzo closed form disagrees with enumeration"),
        # a barycenter outside kP, read by delta_k
        (["delta", "--input", "f1", "--k", "2"], lambda mp: sums_off_by(mp, lambda scale: (-2 * scale, 0)), "expansion.barycenter_inside", "quantized barycenter escaped the polytope"),
    ],
)
def test_each_check_of_a_warm_command_can_fail(argv, mutate, check, message, capsys, monkeypatch):
    assert run(capsys, *argv)[0] == 0  # warm: the fits are cached
    mutate(monkeypatch)
    failed = failing_checks(monkeypatch)
    assert run(capsys, *argv) == (2, "", f"internal inconsistency: {message}\n")
    assert [exc.check for exc in failed] == [check]


# The checks that no golden CLI line reaches, each with a library call that
# reaches it: no command reads a stabilization verdict or a divisor polytope.
LIBRARY_REACH = {
    "expansion.constant_rational_form": lambda: qbary.stabilization_check(qbary.load_fixture("p2"), (1, 2, 3)),
    "expansion.constant_barycenter": lambda: qbary.stabilization_check(qbary.load_fixture("p2"), (1, 2, 3)),
    "toric.polarization_accepted": lambda: qbary.divisor_polytope(qbary.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1]), (1, 0, 0)),
    "toric.polarization_cones": lambda: qbary.divisor_polytope(qbary.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1]), (1, 0, 0)),
}


@pytest.fixture(scope="module")
def reaching_lines() -> dict[str, list[str]]:
    """The first golden CLI line that reaches each check, replaying every
    line once, in order, from empty caches."""
    first, line, real = {}, [], qbary.errors.ensure

    def record(name, ok, message, *args):
        first.setdefault(name, line[-1])
        real(name, ok, message, *args)

    with pytest.MonkeyPatch.context() as mp:
        route_ensure(mp, record)
        clear_caches()
        for case in golden().values():
            line.append(case["argv"])
            assert run_line(case["argv"]) == recorded(case), case["argv"]
    return first


def test_the_golden_lines_reach_every_check_but_the_library_ones(reaching_lines):
    assert set(reaching_lines) == set(CHECKS) - set(LIBRARY_REACH)


@pytest.mark.parametrize("name", CHECKS)
def test_every_check_forced_to_fail_surfaces_as_an_inconsistency(name, reaching_lines, monkeypatch):
    clear_caches()
    failed = failing_checks(monkeypatch, forced=name)
    if name in LIBRARY_REACH:
        with failed_check(name):
            LIBRARY_REACH[name]()
    else:
        result = run_line(reaching_lines[name])
        assert [exc.check for exc in failed] == [name]
        assert result == (2, "", f"internal inconsistency: {failed[0]}\n")
    clear_caches()
