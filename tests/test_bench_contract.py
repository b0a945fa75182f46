"""The benchmark harness wraps library functions by name from outside the
library (``perfbench/spans.py``, ``TARGETS``); every name it lists must
still exist, or ``perfbench/run.py --trace 1`` breaks."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import qbary as qb
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


def test_poly_fit_spans_count_one_fit_per_polynomial(monkeypatch):
    # exactnum.poly_fit.calls reads as the number of fits: a fresh
    # n-polytope's barycenter function fits E once and S_i once per axis
    calls = []
    true_fit = qbary.ehrhart.poly_fit

    def counted_fit(samples):
        calls.append(samples)
        return true_fit(samples)

    monkeypatch.setattr(qbary.ehrhart, "poly_fit", counted_fit)
    p = qb.hull_from_vertices([(0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 0, 3)])  # used by no other test
    qb.barycenter_function(p)
    assert len(calls) == p.dim + 1
