from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbary as qb
from qbary import lattice
from qbary.linalg import independent_rows, int_det, rank


def _times(u, a):
    """The matrix product u a, rows as tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*a)) for row in u)


def _is_row_hnf(h) -> bool:
    pivots = []
    last = -1
    for row in h:
        nz = [i for i, x in enumerate(row) if x != 0]
        if not nz:
            continue
        lead = nz[0]
        if lead <= last or row[lead] <= 0:
            return False
        pivots.append((len(pivots), lead))
        last = lead
    for r, c in pivots:
        for above in range(r):
            if not 0 <= h[above][c] < h[r][c]:
                return False
    return True


def test_hnf_identity():
    h, u = qb.hermite_normal_form(((1, 0), (0, 1)))
    assert h == ((1, 0), (0, 1))
    assert u == ((1, 0), (0, 1))


def test_hnf_two_by_two():
    a = ((2, 4), (1, 3))
    h, u = qb.hermite_normal_form(a)
    assert _times(u, a) == h
    assert abs(int_det(u)) == 1
    assert _is_row_hnf(h)
    assert h[0][0] == 1 and h[1] == (0, 2)


def test_hnf_single_row_already_normal():
    h, u = qb.hermite_normal_form(((3, 6),))
    assert h == ((3, 6),)
    assert u == ((1,),)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_hnf_properties_random(rows):
    a = tuple(tuple(r) for r in rows)
    h, u = qb.hermite_normal_form(a)
    assert _times(u, a) == h
    assert abs(int_det(u)) == 1
    assert _is_row_hnf(h)


def _minor_rank(rows) -> int:
    """Largest size of a nonzero square minor."""
    cols = len(rows[0]) if rows else 0
    return max(
        (
            k
            for k in range(1, min(len(rows), cols) + 1)
            for rs in combinations(rows, k)
            for cs in combinations(range(cols), k)
            if int_det([[r[c] for c in cs] for r in rs])
        ),
        default=0,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=cols, max_size=cols),
            max_size=6,
        )
    )
)
def test_independent_rows_grow_the_minor_rank(rows):
    # a row is chosen exactly when it raises the rank of the rows up to it
    grows = [i for i in range(len(rows)) if _minor_rank(rows[: i + 1]) > _minor_rank(rows[:i])]
    assert independent_rows(rows) == grows
    assert rank(rows) == _minor_rank(rows)


def test_primitive():
    assert qb.primitive((2, -4, 6)) == (1, -2, 3)
    assert qb.primitive((0, 5)) == (0, 1)
    assert qb.primitive((1, 1)) == (1, 1)
    with pytest.raises(qb.InvalidInput):
        qb.primitive((0, 0))


def test_parallelepiped_h_star_of_the_anticanonical_4_simplex():
    # reflexive, so h* is palindromic; it sums to n! vol = 5^4
    vertices = tuple(tuple(-1 + 5 * (i == j) for i in range(4)) for j in range(4)) + ((-1,) * 4,)
    hstar, sums = lattice._parallelepiped(vertices)
    assert hstar == (1, 121, 381, 121, 1)
    # its lattice symmetries permute the vertices, whose centroid is 0, and
    # fix no other point
    assert sums == ((0,) * 4,) * 5


@pytest.mark.parametrize(
    "vertices",
    (
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 9000)),  # one coordinate of 9000 representatives
        ((0, 0, 0), (70, 0, 0), (0, 70, 0), (0, 0, 2)),  # 70 x 70 x 2 of them
    ),
)
def test_parallelepipeds_beyond_one_chunk_match_a_single_chunk(monkeypatch, vertices):
    chunked = lattice._parallelepiped.__wrapped__(vertices)
    monkeypatch.setattr(lattice, "_CHUNK", 10**6)
    whole = lattice._parallelepiped.__wrapped__(vertices)
    assert chunked == whole and sum(whole[0]) == abs(int_det([(*v, 1) for v in vertices]))
