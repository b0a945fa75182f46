"""Every identity check is one call of ``qbary.errors.ensure`` under a name
of its own, and ``ensure`` builds nothing unless the check fails."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import qbary as qb
import qbary.toric
from qbary.errors import InternalInconsistency, InvalidInput, ensure

from conftest import CHECKS

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qbary").glob("*.py"))


def calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]


def test_an_inconsistency_is_built_and_raised_only_in_ensure():
    built = {path.stem: len(calls(ast.parse(path.read_text()), "InternalInconsistency")) for path in SOURCES}
    assert {module: n for module, n in built.items() if n} == {"errors": 1}
    tree = ast.parse(next(path for path in SOURCES if path.stem == "errors").read_text())
    (definition,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "ensure"]
    (raised,) = [n for n in ast.walk(definition) if isinstance(n, ast.Raise)]
    assert calls(raised, "InternalInconsistency")


def test_every_check_is_named_once_by_a_literal_of_its_module():
    names = []
    for path in SOURCES:
        for call in calls(ast.parse(path.read_text()), "ensure"):
            first = call.args[0]
            assert isinstance(first, ast.Constant) and isinstance(first.value, str), f"{path.name}:{call.lineno}"
            assert first.value.split(".")[0] == path.stem, f"{path.name}:{call.lineno}"
            names.append(first.value)
    assert len(names) == len(set(names)) == 39
    assert sorted(names) == sorted(CHECKS)
    assert Counter(name.split(".")[0] for name in names) == {
        "cli": 1,
        "ehrhart": 8,
        "expansion": 8,
        "hull": 6,
        "lattice": 2,
        "polytope": 2,
        "stability": 3,
        "toric": 9,
    }


class Unprintable:
    def __str__(self) -> str:
        raise AssertionError("formatted on the success path")

    __format__ = __repr__ = __str__


def test_a_check_that_holds_formats_and_builds_nothing():
    ensure("test.holds", True, "{} and {}", Unprintable(), 1)
    ensure("test.holds", 1, Unprintable())
    ensure("test.holds", True, lambda: str(Unprintable()))


def test_a_check_that_fails_raises_its_name_and_exact_message():
    with pytest.raises(InternalInconsistency) as excinfo:
        ensure("test.fails", 0, "{} has {} points, not {}", "the parallelepiped", 5, "n! vol = 6")
    assert excinfo.value.check == "test.fails"
    assert str(excinfo.value) == "the parallelepiped has 5 points, not n! vol = 6"
    assert excinfo.value.args == ("the parallelepiped has 5 points, not n! vol = 6",)
    with pytest.raises(InternalInconsistency) as excinfo:
        ensure("test.built", False, lambda: "built on failure")
    assert (excinfo.value.check, str(excinfo.value)) == ("test.built", "built on failure")


def test_a_failed_check_suppresses_the_exception_being_handled():
    with pytest.raises(InternalInconsistency) as excinfo:
        try:
            raise KeyError("unrelated")
        except KeyError:
            ensure("test.handling", False, "a defect")
    assert excinfo.value.__cause__ is None
    assert excinfo.value.__suppress_context__


def test_a_refused_polarization_is_named_and_raised_from_none(monkeypatch):
    def refuse(rays, offsets):
        raise InvalidInput("no such polytope")

    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    monkeypatch.setattr(qbary.toric, "polytope_from_halfspaces", refuse)
    with pytest.raises(InternalInconsistency) as excinfo:
        qb.divisor_polytope(t, (1, 0, 0))
    assert excinfo.value.check == "toric.polarization_accepted"
    assert str(excinfo.value) == "an ample polarization was refused: no such polytope"
    assert excinfo.value.__cause__ is None
    assert excinfo.value.__suppress_context__
