"""The library records of the seeded corpus in ``tests/records.py`` are
unchanged: every polytope but the few costly ones that only
``records.py --check --all`` replays."""

from __future__ import annotations

from records import FULL_ONLY, corpus, differing, digest, recorded

from qbary import ehrhart


def test_the_recorded_names_are_the_corpus():
    assert list(recorded()) == [name for name, _ in corpus()]
    assert set(FULL_ONLY) <= set(recorded())


def test_the_records_of_the_corpus_are_unchanged():
    count, diffs = differing(everything=False)
    assert count == len(recorded()) - len(FULL_ONLY)
    assert diffs == []


def test_the_scan_replays_the_simplices_above_the_fitted_dilations(monkeypatch):
    # above m a simplex's records come from its fundamental parallelepiped
    # wherever that costs less than a pass, so the digests alone no longer
    # hold the scan there: with the parallelepiped refused, the subset's
    # simplices of dimension 3 or more must give the same digests by passes
    simplices = [(name, p) for name, p in corpus() if name not in FULL_ONLY and p.dim >= 3 and len(p.vertices) == p.dim + 1]
    takes = ehrhart._takes_parallelepiped
    assert any(takes(p, k) for _, p in simplices for k in range(p.dim + 3) if k > (p.dim + 2) // 2)
    ehrhart.lattice_point_stats.cache_clear()
    monkeypatch.setattr(ehrhart, "_takes_parallelepiped", lambda p, k: False)
    try:
        expected = recorded()
        assert [name for name, p in simplices if digest(p) != expected[name]] == []
    finally:
        ehrhart.lattice_point_stats.cache_clear()
