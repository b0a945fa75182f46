"""The public API held to a recorded list.

``tests/golden/api.json`` holds ``sorted(qbary.__all__)`` and, for each
class that qbary exports and defines, the public names it has beyond those
of its built-in bases (``tuple``, ``Exception``, ``object``), which differ
between Python versions; ``Rational`` is ``fractions.Fraction`` and is
listed by name only.  A name added or removed anywhere in the API shows as
a diff of that file.  After a deliberate change, regenerate it with
``PYTHONPATH=src python tests/test_api.py`` and review the diff.
"""

from __future__ import annotations

import builtins
import json
import sys
from pathlib import Path

import qbary

GOLDEN = Path(__file__).parent / "golden" / "api.json"


def public_api() -> dict:
    exported = sorted(qbary.__all__)
    classes = {}
    for name in exported:
        value = getattr(qbary, name)
        if isinstance(value, type) and value.__module__.startswith("qbary."):
            inherited = set().union(*(dir(base) for base in value.__mro__ if base.__module__ == builtins.__name__))
            classes[name] = sorted(n for n in dir(value) if not n.startswith("_") and n not in inherited)
    return {"all": exported, "classes": classes}


def test_public_api_is_the_recorded_one():
    assert public_api() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_api.py")
    GOLDEN.write_text(json.dumps(public_api(), indent=1) + "\n")
