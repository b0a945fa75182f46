"""Bundled example polytopes.

Each fixture is a JSON polytope document carrying both representations
(vertices and normals/offsets), so loading one also exercises the
consistency check between them.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import InvalidInput
from .polytope import Polytope, polytope_from_document


_FIXTURES = resources.files("qbary").joinpath("fixtures")


def fixture_names() -> tuple[str, ...]:
    names = sorted(
        entry.name[: -len(".json")]
        for entry in _FIXTURES.iterdir()
        if entry.name.endswith(".json")
    )
    return tuple(names)


def fixture_text(name: str) -> str:
    """The JSON text of the fixture ``name``."""
    try:
        return _FIXTURES.joinpath(f"{name}.json").read_text()
    except OSError:
        raise InvalidInput(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None


def fixture_document(name: str) -> dict:
    return json.loads(fixture_text(name))


def load_fixture(name: str) -> Polytope:
    polytope, _ = polytope_from_document(fixture_document(name))
    return polytope
