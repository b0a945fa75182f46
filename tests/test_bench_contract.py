"""The benchmark harness wraps library functions by name from outside the
library (``perfbench/spans.py``, ``TARGETS``); every name it lists must
still exist, or ``perfbench/run.py --trace 1`` breaks."""

from __future__ import annotations

import importlib
import importlib.util
from itertools import permutations
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


def count_fits(monkeypatch) -> list:
    """Record the samples of every ``poly_fit`` call the fits make."""
    calls = []
    true_fit = qbary.ehrhart.poly_fit

    def counted_fit(samples):
        calls.append(samples)
        return true_fit(samples)

    monkeypatch.setattr(qbary.ehrhart, "poly_fit", counted_fit)
    return calls


def test_poly_fit_spans_count_one_fit_per_polynomial(monkeypatch):
    # exactnum.poly_fit.calls reads as the number of fits: a fresh
    # n-polytope fits E once and S_i once per axis, whichever of the
    # readers of its Ehrhart record comes first
    calls = count_fits(monkeypatch)
    readers = (qb.ehrhart_polynomial, qb.barycenter_function, lambda p: qb.reciprocity_check(p, 5))
    for height, order in enumerate(permutations(readers), 3):
        p = qb.hull_from_vertices([(0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 0, height)])  # used by no other test
        calls.clear()
        for read in order:
            read(p)
        assert len(calls) == p.dim + 1


def test_hrr_coefficients_fit_nothing(monkeypatch):
    # hrr checks the Todd polynomial against the counts themselves
    calls = count_fits(monkeypatch)
    t = qb.toric_data([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], [2, 0, 5, -1, 3, 4])
    qb.hrr_coefficients(t)
    assert calls == []
    qb.ehrhart_polynomial(t.polytope)  # so no cached record explains the zero
    assert len(calls) == t.polytope.dim + 1


def test_rooftop_coefficients_fit_p_only(monkeypatch):
    # the rooftop's counts are checked against P's coordinate-sum
    # polynomials, so they are read raw and the rooftop is not fitted
    calls = count_fits(monkeypatch)
    t = qb.toric_data([(1, 0), (-1, 0), (0, 1), (0, -1)], [7, -3, 11, -2])  # used by no other test
    qb.rooftop_coefficients(t, (1, 2))
    assert len(calls) == t.polytope.dim + 1
