"""The library records of the seeded corpus in ``tests/records.py`` are
unchanged: every polytope but the few costly ones that only
``records.py --check --all`` replays."""

from __future__ import annotations

from records import FULL_ONLY, corpus, differing, recorded


def test_the_recorded_names_are_the_corpus():
    assert list(recorded()) == [name for name, _ in corpus()]
    assert set(FULL_ONLY) <= set(recorded())


def test_the_records_of_the_corpus_are_unchanged():
    count, diffs = differing(everything=False)
    assert count == len(recorded()) - len(FULL_ONLY)
    assert diffs == []
