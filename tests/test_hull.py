"""``hull.convex_hull`` against a brute-force facet enumerator."""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbary as qb
import qbary.hull
import qbary.linalg
from qbary.hull import convex_hull

from conftest import brute_hull, count_hulls

# the most points a case may have in each dimension: the oracle tries
# every dim-subset of them
POINT_BUDGET = {2: 14, 3: 13, 4: 12, 5: 10}


def assert_hull_matches_oracle(points) -> None:
    expected = brute_hull(points)
    if expected is None:
        with pytest.raises(qb.DegenerateInput):
            convex_hull(points)
        return
    hull = convex_hull(points)
    assert (hull.vertices, tuple((f.normal, f.offset, ids) for f, ids in zip(hull.facets, hull.incidence))) == expected, points


def hull_case(rng: random.Random, dim: int) -> list[tuple[int, ...]]:
    """Random points, random points with repeats, points with midpoints of
    some pairs (often on faces), or points in a hyperplane."""
    budget = POINT_BUDGET[dim]

    def draw(count: int, span: int = 2) -> list[tuple[int, ...]]:
        return [tuple(rng.randint(-span, span) for _ in range(dim)) for _ in range(count)]

    kind = rng.choice(("random", "repeats", "faces", "flat"))
    if kind == "random":
        return draw(rng.randint(dim + 1, budget))
    if kind == "repeats":
        pts = draw(rng.randint(dim + 1, budget - 3))
        return pts + rng.choices(pts, k=3)
    if kind == "faces":
        pts = [tuple(2 * x for x in p) for p in draw(rng.randint(dim + 1, dim + 3))]
        while len(pts) < budget:
            u, v = rng.sample(pts, 2)
            pts.append(tuple((a + b) // 2 for a, b in zip(u, v)))
        return pts
    # in the hyperplane x_j = <a, rest> + b
    j, a, b = rng.randrange(dim), draw(1)[0][1:], rng.randint(-2, 2)
    flat = [tuple(rng.randint(-2, 2) for _ in range(dim - 1)) for _ in range(rng.randint(1, budget))]
    return [x[:j] + (sum(s * y for s, y in zip(a, x)) + b,) + x[j:] for x in flat]


def hull_cases(dim: int, count: int) -> list[list[tuple[int, ...]]]:
    rng = random.Random(1000 + dim)
    return [hull_case(rng, dim) for _ in range(count)]


@pytest.mark.parametrize("dim, count", [(2, 120), (3, 80), (4, 60), (5, 30)])
def test_hull_matches_brute_force_facets(dim, count):
    cases = hull_cases(dim, count)
    assert sum(brute_hull(pts) is None for pts in cases) >= 2
    for pts in cases:
        assert_hull_matches_oracle(pts)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=POINT_BUDGET[dim] - 2)
    )
)
def test_hull_matches_brute_force_facets_on_drawn_points(points):
    assert_hull_matches_oracle(points)


@contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ten points in dimension 4 on which joining every pair of a violated and a
# kept facet through at least dim - 1 common points makes a wrong facet
NON_ADJACENT_PAIRS = [
    (-2, 0, 2, 2), (-1, 0, -2, 2), (-1, 0, 0, 0), (-1, 1, 1, 2), (0, -1, 2, 1),
    (0, 2, 0, 2), (1, 1, -2, -2), (1, 1, 2, -1), (2, 0, 2, -1), (2, 0, 2, 0),
]


def test_oracle_catches_a_hull_without_the_adjacency_test(monkeypatch):
    assert_hull_matches_oracle(NON_ADJACENT_PAIRS)
    # without the test, spurious facets multiply with every insertion, so
    # the mutant only sees small inputs, under a time limit
    monkeypatch.setattr(qbary.hull, "_adjacent", lambda common, masks: True)
    caught = 0
    with time_limit(30):
        with pytest.raises(qb.InternalInconsistency, match="too few vertices"):
            convex_hull(NON_ADJACENT_PAIRS)
        for pts in hull_cases(4, 60):
            try:
                assert_hull_matches_oracle(pts)
            except (AssertionError, qb.InternalInconsistency):
                caught += 1
    assert caught > 0


@pytest.mark.parametrize("method", ("contains", "strictly_contains"))
@pytest.mark.parametrize(
    "point, message",
    [
        ((0, 0, 0, 99), "^point has length 4, expected 3$"),
        ((0, 0), "^point has length 2, expected 3$"),
        ((0, 0, 0.5), "^point entry must be an integer or a Fraction, got 0.5$"),
        ((True, 0, 0), "^point entry must be an integer or a Fraction, got True$"),
        (("0", 0, 0), "^point entry must be an integer or a Fraction, got '0'$"),
        ("000", "^expected a point, an array of rationals$"),
    ],
    ids=repr,
)
def test_a_point_of_the_wrong_length_or_kind_is_refused(method, point, message):
    # zipping the point against each normal would drop a fourth entry and
    # read a bool or a float as a number
    cube = qb.load_fixture("cube3")
    with pytest.raises(qb.InvalidInput, match=message):
        getattr(cube, method)(point)
    assert getattr(cube, method)([Fraction(1, 2), 0, 0])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_adjugate_inverts_a_matrix_up_to_its_determinant(rows):
    # the initial simplex's facet normals are the adjugate's columns
    d, adj = qbary.linalg.adjugate(rows)
    assert abs(d) == abs(qbary.linalg.int_det(rows))
    if d:
        n = len(rows)
        scaled = [[d * (i == j) for j in range(n)] for i in range(n)]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in rows] == scaled
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)] for row in adj] == scaled


@pytest.mark.parametrize("form", (list, iter), ids=("list", "generator"))
def test_hull_from_vertices_reads_each_row_once(monkeypatch, form):
    reads = []
    real = qbary.linalg.int_list

    def counted(values):
        reads.append(values)
        return real(values)

    monkeypatch.setattr(qbary.linalg, "int_list", counted)
    rows = [[0, 0, 0], [2, 0, 0], [0, 3, 0], [1, 1, 2], [1, 1, 1]]
    p = qb.hull_from_vertices(form(rows))
    assert p.vertices == ((0, 0, 0), (0, 3, 0), (1, 1, 2), (2, 0, 0))
    assert reads == rows


def test_the_dimension_cap_refuses_before_any_hull(monkeypatch):
    calls = count_hulls(monkeypatch)
    simplex8 = [(0,) * 8, *(tuple(int(i == j) for i in range(8)) for j in range(8))]
    with pytest.raises(qb.Unsupported, match="dimension 8 above the configured cap 7"):
        qb.hull_from_vertices(simplex8)
    assert calls == []
