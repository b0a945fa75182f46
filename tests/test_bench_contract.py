"""The benchmark harness wraps library functions by name from outside the
library (``perfbench/spans.py``, ``TARGETS``); every name it lists must
still exist, or ``perfbench/run.py --trace 1`` breaks."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import qbary.ehrhart

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [f"{module}.{name}" for module, names in spans.TARGETS.items() for name in names]


def test_every_traced_function_exists():
    names = traced_names()
    assert "cli.execute" in names
    for qualified in names:
        module, name = qualified.split(".")
        assert callable(getattr(importlib.import_module(f"qbary.{module}"), name, None)), qualified


def test_counting_keeps_its_cache_info():
    # the counting spans read cache_info() to tell cache hits from scans
    assert callable(qbary.ehrhart.lattice_point_stats.cache_info)
