from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, factorial
import pickle
import random
import sys
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qbary as qb
import qbary.hull
import qbary.lattice
import qbary.linalg
import qbary.polytope
from qbary.linalg import dot, int_det, vec_add, vec_sub
from qbary.polytope import Body, FacetData, FacetMeasure, body_from_points

from conftest import (
    FIXTURE_NAMES,
    apply_map,
    brute_delzant,
    brute_edges,
    brute_halfspace_vertices,
    ccw_order,
    count_hulls,
    fraction_det,
    fraction_rank,
    fresh_hull,
    polytope_and_map,
    random_corpus,
    random_halfspace_descriptions,
    shoelace_area,
)


def brute_facets_2d(points):
    """All supporting lines through point pairs; independent hull oracle."""
    pts = sorted(set(points))
    facets = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (x1, y1), (x2, y2) = pts[i], pts[j]
            normal = (-(y2 - y1), x2 - x1)
            c = dot(pts[i], normal)
            sides = {1 if dot(p, normal) > c else (-1 if dot(p, normal) < c else 0) for p in pts}
            if 1 in sides and -1 in sides:
                continue
            if -1 in sides:
                normal = (-normal[0], -normal[1])
                c = -c
            g = __import__("math").gcd(*map(abs, normal))
            facets.add(((normal[0] // g, normal[1] // g), -(c // g)))
    return facets


# ---------------------------------------------------------------------------
# hulls

def test_hull_drops_interior_point_and_matches_brute_force():
    p = qb.hull_from_vertices([(-1, -1), (2, -1), (-1, 2), (0, 0)])
    assert p.vertices == ((-1, -1), (-1, 2), (2, -1))
    assert {(f.normal, f.offset) for f in p.facets} == {
        ((1, 0), 1),
        ((0, 1), 1),
        ((-1, -1), 1),
    }
    assert {(f.normal, f.offset) for f in p.facets} == brute_facets_2d(p.vertices)
    # each facet supported by exactly two vertices
    assert all(len(ids) == 2 for ids in p.incidence)


def test_hull_unit_square():
    p = qb.hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(p.facets) == 4
    assert p.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_hull_rejects_degenerate():
    with pytest.raises(qb.DegenerateInput):
        qb.hull_from_vertices([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(qb.DegenerateInput):
        qb.hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def test_hull_dimension_cap():
    simplex8 = [tuple(0 for _ in range(8))] + [
        tuple(1 if i == j else 0 for i in range(8)) for j in range(8)
    ]
    with pytest.raises(qb.Unsupported):
        qb.hull_from_vertices(simplex8)


def test_halfspaces_f1_polygon():
    p = qb.polytope_from_halfspaces([(1, 0), (0, 1), (-1, -1), (1, 1)], [1, 1, 1, 1])
    assert p.vertices == ((-1, 0), (-1, 2), (0, -1), (2, -1))


def test_halfspaces_square_and_errors():
    square = qb.polytope_from_halfspaces(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1]
    )
    assert square.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    with pytest.raises(qb.UnboundedInput):
        qb.polytope_from_halfspaces([(1, 0)], [1])
    with pytest.raises(qb.UnboundedInput):
        qb.polytope_from_halfspaces([(1, 0), (-1, 0), (0, 1)], [1, 1, 1])
    with pytest.raises(qb.DegenerateInput):
        qb.polytope_from_halfspaces([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, -1, 1, 1])
    with pytest.raises(qb.InvalidInput):
        # vertices at half-integers: not a lattice polytope
        qb.polytope_from_halfspaces([(2, 0), (-2, 0), (0, 1), (0, -1)], [1, 1, 1, 1])


def _halfspace_verdict(normals, offsets):
    """The oracle's answer: ``Polytope`` with the lattice vertices, or the
    error class with the messages it may carry."""
    vertices = brute_halfspace_vertices(normals, offsets)
    off_lattice = [v for v in vertices if any(x.denominator != 1 for x in v)]
    if off_lattice:
        # the vertex as the CLI prints it, each coordinate a plain fraction
        return qb.InvalidInput, {f"vertex ({', '.join(map(str, v))}) is not a lattice point" for v in off_lattice}
    if not vertices:
        return qb.DegenerateInput, {"half-space intersection is empty"}
    if fraction_rank([[a - b for a, b in zip(v, vertices[0])] for v in vertices]) < len(normals[0]):
        return qb.DegenerateInput, {"half-space intersection is not full-dimensional"}
    return qb.Polytope, tuple(tuple(int(x) for x in v) for v in vertices)


def test_halfspaces_match_the_subset_oracle(fixtures, corpus):
    cases = [([f.normal for f in p.facets], [f.offset for f in p.facets]) for p in [*fixtures.values(), *corpus]]
    cases += random_halfspace_descriptions(20261018, 160)
    kinds = Counter()
    for normals, offsets in cases:
        kind, detail = _halfspace_verdict(normals, offsets)
        try:
            p = qb.polytope_from_halfspaces(normals, offsets)
        except qb.QbaryError as exc:
            assert type(exc) is kind and str(exc) in detail, (normals, offsets, exc)
            kinds[str(exc).split(" is ")[-1]] += 1
            continue
        assert kind is qb.Polytope, (normals, offsets, p)
        assert p.vertices == detail and p == qb.hull_from_vertices(detail), (normals, offsets)
        kinds["lattice"] += 1
    # every branch is reached: built, rational vertex, empty, lower-dimensional
    assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds


def bounded_by_the_normals_hull(normals, offsets):
    """``polytope_from_halfspaces`` with boundedness tested on a third hull,
    of the primitive normals: they positively span iff the origin is
    strictly interior to it.  The reference for the verdicts read off the
    dual hull."""
    rows, offsets = qbary.linalg.int_rows(normals), qbary.linalg.int_list(offsets)
    if len(rows) != len(offsets):
        raise qb.InvalidInput("normals and offsets of different lengths")
    dim = len(rows[0])
    for v in rows:
        if len(v) != dim:
            raise qb.InvalidInput("normals of mixed dimension")
        if not any(v):
            raise qb.InvalidInput("zero normal vector")
    try:
        hull = qbary.hull.convex_hull([qb.primitive(v) for v in rows])
    except qb.DegenerateInput:
        raise qb.UnboundedInput("facet normals do not span the ambient space")
    if any(f.offset <= 0 for f in hull.facets):
        raise qb.UnboundedInput("facet normals do not positively span")
    origin = (0,) * (dim + 1)
    dual = qbary.hull.convex_hull([origin, origin[1:] + (1,), *(v + (b,) for v, b in zip(rows, offsets))])
    rays = [f.normal for f in dual.facets if f.offset == 0]
    if not rays:
        raise qb.DegenerateInput("half-space intersection is empty")
    for *x, s in rays:
        if s != 1:
            raise qb.InvalidInput(f"vertex ({', '.join(str(F(a, s)) for a in x)}) is not a lattice point")
    if origin not in dual.vertices:
        raise qb.DegenerateInput("half-space intersection is not full-dimensional")
    return qb.hull_from_vertices(sorted(ray[:-1] for ray in rays))


def verdict(build, *args):
    """What ``build(*args)`` returns, or the class and message it raises."""
    try:
        return build(*args)
    except qb.QbaryError as exc:
        return type(exc), str(exc)


@st.composite
def halfspace_systems(draw):
    """Normals in dimension 2-4 with entries |x| <= 3, and offsets of either
    sign, or in half the systems nonnegative, so that the origin is in P.
    Random normals seldom bound, or meet in lattice points, so a quarter of
    the systems start from the box's normals instead, and the simplex's,
    which positively span, are added half the time; up to two parallel
    duplicates, multiples of a normal, follow; and a quarter of the systems
    are moved into a coordinate hyperplane, where they cannot span."""
    dim = draw(st.integers(2, 4))
    normals = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim).filter(any), min_size=dim + 1, max_size=dim + 4, unique=True))
    if draw(st.integers(0, 3)) == 3:
        normals = [tuple(s * (i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
    if draw(st.booleans()):
        normals += [tuple(int(i == j) for j in range(dim)) for i in range(dim)] + [(-1,) * dim]
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(normals))
        scale = draw(st.integers(1, 3 // max(map(abs, v))))
        normals.append(tuple(scale * x for x in v))
    if draw(st.integers(0, 3)) == 3:
        normals = [v[:-1] + (0,) for v in normals if any(v[:-1])] or [(1,) + (0,) * (dim - 1)]
    least = draw(st.sampled_from((-3, 0)))
    offsets = draw(st.lists(st.integers(least, 3), min_size=len(normals), max_size=len(normals)))
    return normals, offsets


@settings(max_examples=300, deadline=None)
@given(halfspace_systems())
@example(([(1, 0), (-1, 0), (0, 1)], [-1, 0, 1]))  # empty, and does not positively span
@example(([(1, 0), (-1, 0), (0, 1)], [0, 0, 1]))  # lower-dimensional, and does not positively span
@example(([(1, 0), (0, 1)], [1, 1]))  # spans, but not affinely
@example(([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [1, 1, 1]))  # in a plane
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)], [1, 1, 1, 1]))
@example(([(1, 0), (2, 0), (-1, 0), (0, 1), (0, -1), (0, -3)], [-1, -1, 3, 2, 0, 3]))  # parallel duplicates
def test_boundedness_read_off_the_dual_hull_matches_the_normals_hull(system):
    normals, offsets = system
    assert verdict(qb.polytope_from_halfspaces, normals, offsets) == verdict(bounded_by_the_normals_hull, normals, offsets)


def test_a_halfspace_system_takes_two_hulls(fixtures, monkeypatch):
    # the dual hull, one dimension up, and the hull of its vertices
    calls = count_hulls(monkeypatch)
    for p in fixtures.values():
        calls.clear()
        assert qb.polytope_from_halfspaces([f.normal for f in p.facets], [f.offset for f in p.facets]) == p
        assert len(calls) == 2


def test_cross_polytopes_and_huge_offsets_from_halfspaces():
    # 32, 64 and 128 facets: C(m, n) subset solves would not finish
    for n in (5, 6, 7):
        signs = list(product((-1, 1), repeat=n))
        p = qb.polytope_from_halfspaces(signs, [1] * len(signs))
        assert p == cross_polytope(n)
    # x_i >= -b_i and x_1 + x_2 + x_3 <= 2·10^30
    big = 10**30
    lower = (big + 1, big - 2, big)
    simplex = qb.polytope_from_halfspaces([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [*lower, 2 * big])
    corner = tuple(-b for b in lower)
    far = [corner[:i] + (2 * big - sum(corner) + corner[i],) + corner[i + 1:] for i in range(3)]
    assert simplex.vertices == tuple(sorted([corner, *far]))


@pytest.mark.parametrize("dim", [2, 3])
def test_hull_stress_against_brute_count(dim):
    # wrong or missing facets cannot both contain every input point and
    # reproduce brute-force lattice counts
    import random

    from conftest import brute_count
    from qbary.ehrhart import count_points

    rng = random.Random(99 + dim)
    built = 0
    while built < 12:
        pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim + 4)]
        try:
            p = qb.hull_from_vertices(pts)
        except qb.QbaryError:
            continue
        built += 1
        for q in pts:
            assert p.contains(q)
        for f, ids in zip(p.facets, p.incidence):
            assert len(ids) >= dim
            assert all(dot(p.vertices[i], f.normal) == -f.offset for i in ids)
        for k in (1, 2):
            assert count_points(p, k) == brute_count(p, k)


def test_representation_round_trip(fixtures, corpus):
    for p in list(fixtures.values()) + corpus[:12]:
        again = qb.polytope_from_halfspaces(
            [f.normal for f in p.facets], [f.offset for f in p.facets]
        )
        assert again == p


# ---------------------------------------------------------------------------
# measures

def test_measure_paper_polygons(fixtures):
    f1 = fixtures["f1"]
    assert qb.measure(f1) == qb.MeasureData(F(4), (F(1, 12), F(1, 12)))
    simplex = qb.hull_from_vertices([(0, 0), (1, 0), (0, 1)])
    assert qb.measure(simplex) == qb.MeasureData(F(1, 2), (F(1, 3), F(1, 3)))
    blowup = fixtures["blowup-p1xp1"]
    assert qb.measure(blowup).volume == F(7, 2)
    assert qb.measure(blowup).barycenter == (F(-2, 21), F(-2, 21))


def test_measure_matches_shoelace_on_random_polygons(corpus):
    for p in corpus:
        if p.dim != 2:
            continue
        assert qb.measure(p).volume == shoelace_area(ccw_order(p.vertices))


def test_measure_translation_and_unimodular_covariance(fixtures):
    p = fixtures["blowup-p1xp1"]
    shifted = qb.translate(p, (3, -2))
    assert qb.measure(shifted).volume == qb.measure(p).volume
    assert qb.measure(shifted).barycenter == vec_add(qb.measure(p).barycenter, (3, -2))
    mapped = qb.hull_from_vertices([(v[0] + v[1], v[1]) for v in p.vertices])
    assert qb.measure(mapped).volume == qb.measure(p).volume
    bx, by = qb.measure(p).barycenter
    assert qb.measure(mapped).barycenter == (bx + by, by)


def _segment_normalized_length(a, b):
    from math import gcd

    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


def test_facet_data_paper_values(fixtures):
    p2 = qb.facet_data(fixtures["p2"])
    assert p2.boundary_normalized_volume == 9
    assert p2.boundary_barycenter == (F(0), F(0))
    f1 = qb.facet_data(fixtures["f1"])
    assert f1.boundary_normalized_volume == 8
    assert f1.boundary_barycenter == (F(1, 8), F(1, 8))
    square = qb.facet_data(fixtures["cube2"])
    assert square.boundary_normalized_volume == 8
    assert square.boundary_barycenter == (F(0), F(0))


def test_facet_data_matches_gcd_oracle_on_polygons(fixtures, corpus):
    polygons = [p for p in corpus if p.dim == 2][:10] + [
        fixtures["p2"],
        fixtures["f1"],
    ]
    for p in polygons:
        fd = qb.facet_data(p)
        for i, fm in enumerate(fd.facets):
            a, b = p.facet_vertices(i)
            assert fm.normalized_volume == _segment_normalized_length(a, b)
            assert fm.barycenter == tuple(F(x + y, 2) for x, y in zip(a, b))


def test_reflexive_boundary_identity(fixtures):
    for name, p in fixtures.items():
        if qb.classify(p).reflexive:
            fd = qb.facet_data(p)
            assert fd.boundary_normalized_volume == p.dim * qb.measure(p).volume, name


def test_normalized_measure_is_unimodular_invariant_euclidean_is_not(fixtures):
    p = fixtures["f1"]
    mapped = qb.hull_from_vertices([(v[0] + v[1], v[1]) for v in p.vertices])
    before = sorted(f.normalized_volume for f in qb.facet_data(p).facets)
    after = sorted(f.normalized_volume for f in qb.facet_data(mapped).facets)
    assert before == after

    def euclidean_sq_lengths(poly):
        out = []
        for i in range(len(poly.facets)):
            a, b = poly.facet_vertices(i)
            out.append((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
        return sorted(out)

    assert euclidean_sq_lengths(p) != euclidean_sq_lengths(mapped)


# ---------------------------------------------------------------------------
# measures on the face lattice

def unit_cube(n):
    return qb.hull_from_vertices(list(product((0, 1), repeat=n)))


def sheared_cube(n):
    """The unit n-cube under ``x_i -> x_i + x_(i+1)``: a unimodular image of
    one coordinate block, so its measures walk its own face lattice, where
    the cube's are read off its 1-D factors."""
    return qb.hull_from_vertices(
        [tuple(v[i] + (v[i + 1] if i + 1 < n else 0) for i in range(n)) for v in product((0, 1), repeat=n)]
    )


def cross_polytope(n):
    return qb.hull_from_vertices(
        [tuple(s if i == j else 0 for i in range(n)) for j in range(n) for s in (1, -1)]
    )


def cyclic_4_polytope():
    # (C(t,1), .., C(t,4)) is a linear image of the moment curve, so six of
    # its points span the cyclic polytope C(6, 4), with small coordinates
    return qb.hull_from_vertices([tuple(comb(t, i) if t >= 0 else (-1) ** i for i in range(1, 5)) for t in range(-1, 5)])


def _facet_points(p, facet, k):
    """Lattice points of k*P on the facet's hyperplane, by a box scan over
    all coordinates but one, solved for the last one."""
    u, b = facet.normal, facet.offset
    lo = [k * min(v[i] for v in p.vertices) for i in range(p.dim)]
    hi = [k * max(v[i] for v in p.vertices) for i in range(p.dim)]
    c = max((i for i in range(p.dim) if u[i]), key=lambda i: hi[i] - lo[i])
    others = [i for i in range(p.dim) if i != c]
    points = []
    for rest in product(*(range(lo[i], hi[i] + 1) for i in others)):
        num = -k * b - sum(u[i] * x for i, x in zip(others, rest))
        if num % u[c]:
            continue
        x = list(rest)
        x.insert(c, num // u[c])
        if all(dot(x, f.normal) >= -k * f.offset for f in p.facets):
            points.append(x)
    return points


def _leading_difference(values, degree):
    # the degree-th finite difference at 0 is degree! times the leading
    # coefficient of a polynomial of that degree
    for _ in range(degree):
        values = [b - a for a, b in zip(values, values[1:])]
    return F(values[0], factorial(degree))


ORACLE_POLYTOPES = {
    "cube3": lambda: qb.load_fixture("cube3"),
    "fano-3-29": lambda: qb.load_fixture("fano-3-29"),
    "octahedron": lambda: cross_polytope(3),
    "cross-4": lambda: cross_polytope(4),
    "cyclic-4": cyclic_4_polytope,
    **{f"corpus-3d-{i}": (lambda i=i: [q for q in random_corpus() if q.dim == 3][i]) for i in range(20)},
}


@pytest.mark.parametrize("name", ORACLE_POLYTOPES)
def test_facet_data_matches_facet_lattice_point_oracle(name):
    # E_F(k) = nvol(F) k^(n-1) + ..., and sum_{x in kF} x = nvol(F) bc_F k^n + ...
    p = ORACLE_POLYTOPES[name]()
    n = p.dim
    fd = qb.facet_data(p)
    for facet, fm in zip(p.facets, fd.facets):
        counts, sums = [], [[] for _ in range(n)]
        for k in range(n + 1):
            points = _facet_points(p, facet, k)
            counts.append(len(points))
            for i in range(n):
                sums[i].append(sum(x[i] for x in points))
        assert _leading_difference(counts, n) == 0, (name, facet)
        assert _leading_difference(counts, n - 1) == fm.normalized_volume, (name, facet)
        for i in range(n):
            assert _leading_difference(sums[i], n) == fm.normalized_volume * fm.barycenter[i], (name, facet)


NO_HULL_POLYTOPES = {
    "cube3": lambda: qb.load_fixture("cube3"),
    "fano-3-29": lambda: qb.load_fixture("fano-3-29"),
    "cube5": lambda: unit_cube(5),
    "octahedron": lambda: cross_polytope(3),
}


@pytest.mark.parametrize("name", NO_HULL_POLYTOPES)
def test_measures_and_classification_build_no_hull(name, monkeypatch):
    p = NO_HULL_POLYTOPES[name]()
    expected = (qb.measure(p), qb.facet_data(p), qb.classify(p))

    def refuse(points):
        raise AssertionError("convex_hull called")

    monkeypatch.setattr(qbary.hull, "convex_hull", refuse)
    monkeypatch.setattr(qbary.polytope, "convex_hull", refuse)
    monkeypatch.setattr(qbary.polytope, "_measures", qbary.polytope._measures.__wrapped__)
    got = (qb.measure(p), qb.facet_data(p), qb.classify.__wrapped__(p))
    assert got == expected


# the cubes are sheared to one block, whose measures take the face walk
COUNTED_POLYTOPES = {
    "cube3": lambda: sheared_cube(3),
    "cube5": lambda: sheared_cube(5),
    "cross-4": lambda: cross_polytope(4),
}


DETERMINANTS = {"cube3": 0, "cube5": 0, "cross-4": 16}


@pytest.mark.parametrize("name", DETERMINANTS)
def test_one_determinant_per_facet_simplex(name, monkeypatch):
    # a facet that is a simplex takes one determinant, coned from a vertex
    # off it; every other facet is summed by the face walk, which takes none;
    # facet_data reads the record measure built, so a cold pair takes no more
    p, expected = COUNTED_POLYTOPES[name](), DETERMINANTS[name]
    assert not qbary.polytope._split(p)
    calls = []
    real = qbary.hull.int_det

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(qbary.polytope, "_measures", lru_cache(maxsize=None)(qbary.polytope._measures.__wrapped__))
    monkeypatch.setattr(qbary.hull, "int_det", counted)
    qb.measure(p)
    qb.facet_data(p)
    assert len(calls) == sum(len(ids) == p.dim for ids in p.incidence) == expected


def pyramids_below_facets(p):
    """(face, facet of the face missing its least vertex) pairs below the
    facets of p that are not simplices, each face counted once."""
    facets = [frozenset(ids) for ids in p.incidence]
    seen, pairs = set(), 0
    todo = [(f, p.dim - 1) for f in facets if len(f) > p.dim]
    while todo:
        face, d = todo.pop()
        if d == 0 or face in seen:
            continue
        seen.add(face)
        meets = {face & f for f in facets} - {face, frozenset()}
        far = [m for m in meets if min(face) not in m and not any(m < other for other in meets)]
        pairs += len(far)
        todo += [(m, d - 1) for m in far]
    return pairs


WEDGES = {"cube3": 21, "cube5": 235}


@pytest.mark.parametrize("name", WEDGES)
def test_one_wedge_per_pyramid(name, monkeypatch):
    # each face is walked once, however many facets share it, and each of
    # its pyramids is one wedge of an edge with the base's Plücker vector;
    # facet_data reads the record measure built and walks nothing again
    p, expected = COUNTED_POLYTOPES[name](), WEDGES[name]
    assert not qbary.polytope._split(p)
    calls = []
    real = qbary.hull._wedge

    def counted(edge, omega):
        calls.append(edge)
        return real(edge, omega)

    monkeypatch.setattr(qbary.polytope, "_measures", lru_cache(maxsize=None)(qbary.polytope._measures.__wrapped__))
    monkeypatch.setattr(qbary.hull, "_wedge", counted)
    qb.measure(p)
    qb.facet_data(p)
    assert len(calls) == pyramids_below_facets(p) == expected


def test_unit_cubes_and_cross_polytopes():
    for n in range(1, 6):
        cube, cross = unit_cube(n), cross_polytope(n)
        assert qb.measure(cube) == qb.MeasureData(F(1), (F(1, 2),) * n)
        assert qb.measure(cross) == qb.MeasureData(F(2**n, factorial(n)), (F(0),) * n)
        assert [fm.normalized_volume for fm in qb.facet_data(cube).facets] == [F(1)] * (2 * n)
        assert [fm.normalized_volume for fm in qb.facet_data(cross).facets] == [F(1, factorial(n - 1))] * 2**n
        assert len(brute_edges(cube)) == (n * 2 ** (n - 1) if n > 1 else 0)
        assert len(brute_edges(cross)) == (2 * n * (n - 1) if n > 1 else 0)
        assert qb.classify(cube).delzant == brute_delzant(cube) == (n > 1)
        assert (qb.classify(cross).delzant, brute_delzant(cross)) == (False, False)
        assert qb.classify(cross).reflexive


def test_delzant_matches_the_edge_oracle(fixtures, corpus):
    for p in [*fixtures.values(), *corpus]:
        assert qb.classify(p).delzant == brute_delzant(p), p


def test_edge_oracle_catches_delzant_without_the_determinant(fixtures, monkeypatch):
    # every vertex of this square is simple, but its normals (+-1, +-1)
    # have determinant 2 at each vertex; the determinant is broken wherever
    # it was imported, so an oracle that shared it would agree with classify
    p = fixtures["square-reflexive-nondelzant"]
    assert not brute_delzant(p)
    real = qbary.linalg.int_det
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("int_det") is real:
            monkeypatch.setattr(module, "int_det", lambda rows: 1)
    assert qbary.polytope.int_det is not real
    assert qb.classify.__wrapped__(p).delzant != brute_delzant(p)


@pytest.mark.parametrize("n", range(2, 6))
def test_hull_drops_points_on_faces(n):
    # 2 * cube with the midpoint of every vertex pair (the lattice points of
    # every face), and 2 * cross-polytope with its edge midpoints; from
    # n = 4 on such a midpoint lies on dim facets of the cross-polytope
    cube = [tuple(2 * x for x in v) for v in product((0, 1), repeat=n)]
    cross = [tuple(2 * s * (i == j) for i in range(n)) for j in range(n) for s in (1, -1)]
    cube_extra = [tuple((a + b) // 2 for a, b in zip(u, v)) for u, v in combinations(cube, 2)]
    cross_edges = [(u, v) for u, v in combinations(cross, 2) if vec_add(u, v) != (0,) * n]
    cross_extra = [tuple((a + b) // 2 for a, b in zip(u, v)) for u, v in cross_edges]
    for vertices, extra in ((cube, cube_extra), (cross, cross_extra)):
        p = qb.hull_from_vertices(vertices + extra)
        assert p.vertices == tuple(sorted(vertices))
        assert p == qb.hull_from_vertices(vertices)


# the cubes are sheared to one block, whose measures take the face walk
MUTANT_POLYTOPES = {
    "cube3": lambda: sheared_cube(3),
    "fano-3-29": lambda: qb.load_fixture("fano-3-29"),
    "cube4": lambda: sheared_cube(4),
}


@pytest.mark.parametrize("name", MUTANT_POLYTOPES)
def test_facet_identities_catch_a_dropped_pyramid(name, monkeypatch):
    # the walk of the largest facet leaves out one pyramid from its least
    # vertex; the pyramids left still agree in orientation
    p = MUTANT_POLYTOPES[name]()
    assert not qbary.polytope._split(p)
    ids = max(p.incidence, key=len)
    target = sum(1 << i for i in ids)
    real = qbary.hull._far_facets
    assert len(ids) > p.dim and len(real(target, p.dim - 1, [sum(1 << i for i in f) for f in p.incidence])) > 1

    def dropping(face, dim, masks):
        far = real(face, dim, masks)
        return far[1:] if face == target else far

    monkeypatch.setattr(qbary.hull, "_far_facets", dropping)
    with pytest.raises(qb.InternalInconsistency, match="Minkowski"):
        qbary.polytope._measures.__wrapped__(p)


def test_face_walk_checks_coordinates_against_the_incidence():
    # moving the top vertex of the unit cube off its facets' planes tilts
    # their pyramids apart; moving it onto the bottom face flattens one
    p = unit_cube(3)
    for moved, message in (((1, 1, 2), "orientation"), ((1, 1, 0), "not a positive multiple")):
        with pytest.raises(qb.InternalInconsistency, match=message):
            qbary.hull.face_moments(p._replace(vertices=p.vertices[:-1] + (moved,)))


MOVED_BARYCENTER_POLYTOPES = {
    **MUTANT_POLYTOPES,
    "octahedron": lambda: cross_polytope(3),
    "p2": lambda: qb.load_fixture("p2"),
}


@pytest.mark.parametrize("name", MOVED_BARYCENTER_POLYTOPES)
def test_facet_identities_catch_a_moved_barycenter(name, monkeypatch):
    # one facet's integer moment takes a step along the facet: its
    # barycenter stays on the facet's hyperplane and every total, so
    # Minkowski's relation, stays as it was
    p = MOVED_BARYCENTER_POLYTOPES[name]()
    assert not qbary.polytope._split(p)
    real = qbary.polytope.face_moments

    def moving(q):
        volume, moment, ((total, facet_moment), *rest) = real(q)
        normal = q.facets[0].normal
        i = next(i for i, x in enumerate(normal) if x)
        j = (i + 1) % len(normal)
        moved = list(facet_moment)
        moved[i] += normal[j]
        moved[j] -= normal[i]
        return volume, moment, [(total, moved), *rest]

    monkeypatch.setattr(qbary.polytope, "face_moments", moving)
    with pytest.raises(qb.InternalInconsistency, match="divergence"):
        qbary.polytope._measures.__wrapped__(p)


# the unit cubes themselves: cube3 is walked whole, cube4 is read off its
# factor, away from the origin so that the segment's measures are new
VOLUME_MUTANT_POLYTOPES = {
    **MUTANT_POLYTOPES,
    "cube3": lambda: qb.load_fixture("cube3"),
    "cube4": lambda: fresh_hull(unit_cube(4).vertices),
}


@pytest.mark.parametrize("name", VOLUME_MUTANT_POLYTOPES)
def test_facet_identities_catch_a_volume_off_by_one(name, monkeypatch):
    # every facet weight and moment stays as it was, so Minkowski's relation
    # holds; n! vol(P), summed from the determinants of the cones from
    # vertex 0, is one too large.  On the unit 4-cube the mutant runs on
    # its 1-D factor, whose own measures' divergence theorem sees it.
    p = VOLUME_MUTANT_POLYTOPES[name]()
    real = qbary.polytope.face_moments

    def miscounting(q):
        volume, moment, weighed = real(q)
        return volume + 1, moment, weighed

    monkeypatch.setattr(qbary.polytope, "face_moments", miscounting)
    with pytest.raises(qb.InternalInconsistency, match="divergence"):
        qbary.polytope._measures.__wrapped__(p)


def fraction_facet_data(p):
    """facet_data summed in fractions facet by facet and simplex by simplex,
    the identities left out: what the integer totals and moments must
    reproduce object for object."""
    n = p.dim
    triangulate = qbary.hull.face_triangulator(p.incidence)
    measures = []
    for facet, ids in zip(p.facets, p.incidence):
        off = next(v for i, v in enumerate(p.vertices) if i not in ids)
        height = dot(off, facet.normal) + facet.offset
        vol, weighted = F(0), [F(0)] * n
        for simplex in triangulate(ids):
            corner = p.vertices[simplex[0]]
            rows = [vec_sub(p.vertices[i], corner) for i in simplex[1:]] + [vec_sub(off, corner)]
            piece = F(abs(int_det(rows)), height * factorial(n - 1))
            vol += piece
            for j in range(n):
                weighted[j] += piece * F(sum(p.vertices[i][j] for i in simplex), n)
        measures.append(FacetMeasure(facet.normal, facet.offset, vol, tuple(w / vol for w in weighted)))
    boundary = sum(fm.normalized_volume for fm in measures)
    return FacetData(
        tuple(measures),
        boundary,
        tuple(sum(fm.normalized_volume * fm.barycenter[j] for fm in measures) / boundary for j in range(n)),
    )


def random_polytopes(seed, count, dims):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(dims)
        points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 4))]
        try:
            out.append(qb.hull_from_vertices(points))
        except qb.DegenerateInput:
            continue
    return out


def box(*sides):
    return qb.hull_from_vertices(list(product(*((0, side) for side in sides))))


def product_of(*polytopes):
    return qb.hull_from_vertices([sum(vs, ()) for vs in product(*(q.vertices for q in polytopes))])


# two unimodular maps without a zero entry, under which the faces of the
# unit 5-cube have dense Plücker vectors
DENSE_GL5 = (
    [[1, 1, 1, 1, 1], [1, 2, 2, 2, 2], [1, 2, 3, 3, 3], [1, 2, 3, 4, 4], [1, 2, 3, 4, 5]],
    [[1, 2, 1, -1, 2], [-1, -1, 1, 2, -3], [2, 3, 1, -1, 6], [-3, -4, 0, 4, -7], [4, 5, 0, -4, 12]],
)


def walked_polytopes():
    """Boxes and products whose facets are not simplices: the shape classes
    of the expand-box bench workload, the unit 6-cube, and two dense
    images of the unit 5-cube."""
    assert all(abs(fraction_det(u)) == 1 for u in DENSE_GL5)
    quad = qb.hull_from_vertices([(0, 0), (2, 0), (0, 1), (1, 2)])
    return [
        box(2, 3, 4),
        box(1, 2, 2, 3),
        box(1, 1, 1, 1, 1),
        product_of(box(2), quad),
        product_of(box(1, 1), quad),
        box(1, 1, 2, 2),
        product_of(box(1, 2), qb.hull_from_vertices([(0, 0), (2, 0), (0, 2)])),
        unit_cube(6),
        *(qb.hull_from_vertices([apply_map(u, v) for v in unit_cube(5).vertices]) for u in DENSE_GL5),
    ]


def test_facet_data_equals_its_fraction_sums(fixtures, corpus):
    # pickles compare the types as well as the values
    for p in [*fixtures.values(), *corpus, *random_polytopes(20261018, 500, range(1, 6)), *walked_polytopes()]:
        assert pickle.dumps(qb.facet_data(p)) == pickle.dumps(fraction_facet_data(p)), p.vertices


@st.composite
def shuffled_products(draw):
    """The product of 2-3 lattice polytopes of dimension 1-3, together 4-6,
    with its axes shuffled."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda ds: 4 <= sum(ds) <= 6))
    factors = []
    for d in dims:
        points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=d + 3))
        try:
            factors.append(qb.hull_from_vertices(points))
        except qb.DegenerateInput:
            assume(False)
    perm = draw(st.permutations(range(sum(dims))))
    points = [sum(vs, ()) for vs in product(*(q.vertices for q in factors))]
    return qb.hull_from_vertices([tuple(x[i] for i in perm) for x in points])


@settings(max_examples=60, deadline=None)
@given(shuffled_products())
def test_product_measures_equal_the_walk_of_the_whole_polytope(p):
    # with its split hidden, P is measured by face_moments on P itself
    assert len(qbary.polytope._split(p)) >= 2
    with patch.object(qbary.polytope, "_split", lambda q: ()):
        walked = qbary.polytope._measures.__wrapped__(p)[:-1]
    assert qbary.polytope._measures.__wrapped__(p)[:-1] == walked


# Products of dimension 2 and 3, which are measured by one walk of P
SMALL_PRODUCTS = {
    "cube2": lambda: qb.load_fixture("cube2"),
    # conv((0,0),(3,0),(0,1),(2,1)) on axes 0 and 2 times [0,2] on axis 1
    "trapezoid x segment": lambda: qb.hull_from_vertices(
        [(x, s, y) for x, y in ((0, 0), (3, 0), (0, 1), (2, 1)) for s in (0, 2)]
    ),
}


@pytest.mark.parametrize("name", SMALL_PRODUCTS)
def test_products_below_dimension_4_are_measured_by_one_walk_of_p(name, monkeypatch):
    p = SMALL_PRODUCTS[name]()
    walked = []
    real = qbary.polytope.face_moments

    def recorded(q):
        walked.append(q)
        return real(q)

    monkeypatch.setattr(qbary.polytope, "face_moments", recorded)
    qbary.polytope._measures.__wrapped__(p)
    assert walked == [p]


# Products of dimension 4 or more, which are measured through their
# factors' own measures, each built away from the origin so that no factor's
# measures are cached
PRODUCTS = {
    "unit 5-cube": lambda: fresh_hull(unit_cube(5).vertices),
    # the same trapezoid times [0,2] and [-1,1], blocks {0,2}, {1}, {3}
    "trapezoid x segments": lambda: fresh_hull(
        [(x, s, y, t) for x, y in ((0, 0), (3, 0), (0, 1), (2, 1)) for s in (0, 2) for t in (-1, 1)]
    ),
}


@pytest.mark.parametrize("name", PRODUCTS)
def test_products_are_measured_by_one_walk_per_factor(name, monkeypatch):
    # equal factors share one walk, once per process: the unit 5-cube's
    # five segments are one polytope
    p = PRODUCTS[name]()
    split = qbary.polytope._split(p)
    assert len(split) >= 2
    walked = []
    real = qbary.polytope.face_moments

    def recorded(q):
        walked.append(q)
        return real(q)

    monkeypatch.setattr(qbary.polytope, "face_moments", recorded)
    for _ in range(2):
        qbary.polytope._measures.__wrapped__(p)
    assert walked == list(dict.fromkeys(factor for _, factor, _ in split))


@pytest.mark.parametrize("name", {**SMALL_PRODUCTS, **PRODUCTS})
def test_product_identities_catch_facets_matched_to_the_wrong_factor_facet(name, monkeypatch):
    # each factor's facet records, or P's own below dimension 4, come back
    # in reverse order
    p = {**SMALL_PRODUCTS, **PRODUCTS}[name]()
    real = qbary.polytope.face_moments

    def reversing(q):
        volume, moment, weighed = real(q)
        return volume, moment, weighed[::-1]

    monkeypatch.setattr(qbary.polytope, "face_moments", reversing)
    with pytest.raises(qb.InternalInconsistency, match="Minkowski|divergence"):
        qbary.polytope._measures.__wrapped__(p)


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_identities_catch_factor_facets_matched_to_the_wrong_facets_of_p(name, monkeypatch):
    # each factor's own measures are right, but its facets are matched to
    # P's facets on its block in reverse order
    p = PRODUCTS[name]()
    real = qbary.polytope._split
    monkeypatch.setattr(qbary.polytope, "_split", lambda q: tuple((b, f, facets[::-1]) for b, f, facets in real(q)))
    with pytest.raises(qb.InternalInconsistency, match="Minkowski|divergence"):
        qbary.polytope._measures.__wrapped__(p)


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_identities_catch_a_wrong_multinomial(name, monkeypatch):
    # a facet of P is weighed as if its factor's facet were the whole
    # factor: the multinomial of n, not of n - 1
    p = PRODUCTS[name]()
    real = qbary.polytope._product_face

    def full_dimensional(blocks, faces):
        return real(blocks, [(len(block), w, m) for block, (_, w, m) in zip(blocks, faces)])

    monkeypatch.setattr(qbary.polytope, "_product_face", full_dimensional)
    with pytest.raises(qb.InternalInconsistency, match="divergence"):
        qbary.polytope._measures.__wrapped__(p)


@settings(max_examples=60, deadline=None)
@given(polytope_and_map())
def test_measures_facets_and_edges_follow_unimodular_maps(case):
    p, u, t = case
    assume(p.dim >= 2)

    def move(x):
        return vec_add(apply_map(u, x), t)

    q = qb.hull_from_vertices([move(v) for v in p.vertices])
    assert qb.measure(q).volume == qb.measure(p).volume
    assert qb.measure(q).barycenter == move(qb.measure(p).barycenter)
    before, after = qb.facet_data(p).facets, qb.facet_data(q).facets
    assert Counter(fm.normalized_volume for fm in after) == Counter(fm.normalized_volume for fm in before)
    assert Counter((fm.normalized_volume, fm.barycenter) for fm in after) == Counter(
        (fm.normalized_volume, move(fm.barycenter)) for fm in before
    )
    # Delzant is an affine invariant; reflexive depends on where the origin is
    assert qb.classify(q).delzant == qb.classify(p).delzant == brute_delzant(p)
    assert qb.classify(qb.hull_from_vertices([apply_map(u, v) for v in p.vertices])) == qb.classify(p)
    assert {frozenset((q.vertices[i], q.vertices[j])) for i, j in brute_edges(q)} == {
        frozenset((move(p.vertices[i]), move(p.vertices[j]))) for i, j in brute_edges(p)
    }


# ---------------------------------------------------------------------------
# dilates and Minkowski sums

def test_minkowski_doubling(fixtures):
    p = fixtures["f1"]
    assert qb.minkowski_sum(p, p) == qb.dilate(p, 2)


def test_minkowski_sum_refuses_a_dimension_mismatch(fixtures):
    with pytest.raises(qb.InvalidInput, match="^ambient dimensions differ: 2 vs 3$"):
        qb.minkowski_sum(fixtures["f1"], fixtures["cube3"])


@pytest.mark.parametrize("factor", (1, 2, 3))
def test_dilate_is_the_hull_of_the_scaled_vertices_and_builds_none(fixtures, corpus, monkeypatch, factor):
    polytopes = [*fixtures.values(), *corpus]
    hulled = [qb.hull_from_vertices([tuple(factor * x for x in v) for v in p.vertices]) for p in polytopes]
    calls = count_hulls(monkeypatch)
    dilates = [qb.dilate(p, factor) for p in polytopes]
    assert calls == []
    for d, h in zip(dilates, hulled):
        assert type(d) is qb.Polytope and d == h
        assert (d.dim, d.vertices, d.facets, d.incidence) == (h.dim, h.vertices, h.facets, h.incidence)


@pytest.mark.parametrize("shift", ((0, 0, 0), (3, -2, 1), (-7, 5, 10**20)))
def test_translate_is_the_hull_of_the_shifted_vertices_and_builds_none(fixtures, corpus, monkeypatch, shift):
    polytopes = [*fixtures.values(), *corpus]
    hulled = [qb.hull_from_vertices([vec_add(v, shift[: p.dim]) for v in p.vertices]) for p in polytopes]
    calls = count_hulls(monkeypatch)
    translates = [qb.translate(p, shift[: p.dim]) for p in polytopes]
    assert calls == []
    for t, h in zip(translates, hulled):
        assert type(t) is qb.Polytope and t == h
        assert (t.dim, t.vertices, t.facets, t.incidence) == (h.dim, h.vertices, h.facets, h.incidence)


@pytest.mark.parametrize("factor", (0, -1))
def test_dilate_by_a_factor_below_one_is_refused(fixtures, factor):
    with pytest.raises(qb.InvalidInput, match="^dilation factor must be positive$"):
        qb.dilate(fixtures["f1"], factor)


def hnf_body_from_points(points) -> Body:
    """The hull of a possibly degenerate point set in integer coordinates
    on its affine lattice, read off a row Hermite normal form of the
    differences; the construction the projection onto coordinates replaced,
    kept as the reference."""
    pts = sorted(set(tuple(p) for p in points))
    dim = len(pts[0])
    if len(pts) == 1:
        return Body(dim, (pts[0],))
    origin = pts[0]
    dirs = [vec_sub(p, origin) for p in pts[1:]]
    r = qbary.linalg.rank(dirs)
    if r == dim:
        return Body(dim, qbary.hull.convex_hull(pts).vertices)
    h, _ = qbary.lattice.hermite_normal_form(dirs)
    basis = [row for row in h if any(row)]
    coords = []
    for p in pts:
        residue, c = list(vec_sub(p, origin)), []
        for row in basis:  # echelon rows: forward-substitute
            lead = next(i for i, x in enumerate(row) if x)
            assert residue[lead] % row[lead] == 0
            c.append(residue[lead] // row[lead])
            residue = [a - c[-1] * b for a, b in zip(residue, row)]
        assert not any(residue)
        coords.append(tuple(c))
    keep = set(qbary.hull.convex_hull(coords).vertices)
    return Body(dim, tuple(p for p, c in zip(pts, coords) if c in keep))


@st.composite
def points_of_any_rank(draw):
    """Points ``o + M c`` in dimension 1 to 4 with entries at most 4 in
    absolute value, for an n x r integer M with r from 0 to n, so the
    affine hull has every rank, often on a sublattice of index above 1."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    entry = st.integers(-2, 2)
    origin = draw(st.tuples(*[entry] * n))
    columns = draw(st.lists(st.tuples(*[entry] * n), min_size=r, max_size=r))
    coefficients = draw(st.lists(st.tuples(*[entry] * r), min_size=1, max_size=8))
    points = [vec_add(origin, tuple(sum(c * col[i] for c, col in zip(cs, columns)) for i in range(n))) for cs in coefficients]
    return [p for p in points if max(map(abs, p)) <= 4] or [origin]


@settings(max_examples=300, deadline=None)
@given(points_of_any_rank())
@example([(0, 0, 0, 0)])
@example([(0, 0), (2, 2), (4, 4), (1, 3)])
@example([(0, 0, 0), (2, 0, 2), (0, 2, 2), (2, 2, 4), (1, 1, 2)])
@example([(1, -1, 0, 2), (3, 1, 2, 4), (-1, -3, -2, 0)])
def test_body_from_points_matches_the_hermite_form_reference(points):
    assert body_from_points(points) == hnf_body_from_points(points)


@pytest.mark.parametrize("points", ([(0, 0, 0), (1, 0), (0, 1)], [(0, 0), (1,), (0, 1)]), ids=("3-2-2", "2-1-2"))
def test_points_of_mixed_dimension_are_refused(points):
    for build in (body_from_points, qb.hull_from_vertices):
        with pytest.raises(qb.InvalidInput, match="^points of mixed dimension$"):
            build(points)


def unit_segments(n: int) -> list[Body]:
    return [Body(n, ((0,) * n, tuple(int(i == j) for j in range(n)))) for i in range(n)]


def test_bodies_above_the_dimension_cap_are_refused():
    # a segment at the cap is a body; one dimension up it is refused, and so
    # is the Minkowski sum of two 8-simplices, which the uncapped hull
    # engine builds, as it would have to be hulled
    assert body_from_points(unit_segments(7)[0].vertices) == unit_segments(7)[0]
    segment, other = unit_segments(8)[:2]
    with pytest.raises(qb.Unsupported, match="dimension 8 above the configured cap 7"):
        body_from_points(segment.vertices)
    simplex = qbary.hull.convex_hull([(0,) * 8, *(s.vertices[1] for s in unit_segments(8))])
    with pytest.raises(qb.Unsupported, match="dimension 8 above the configured cap 7"):
        qb.minkowski_sum(simplex, simplex)


def test_minkowski_volume_is_polynomial_in_dilations(fixtures):
    # Vol(aP + bQ) agrees with a homogeneous degree-2 polynomial fitted from
    # a few samples, on a grid it was not fitted on
    p, q = fixtures["f1"], fixtures["cube2"]

    def vol(a, b):
        # a zero dilate is the origin, which leaves a sum unchanged
        parts = [qb.dilate(x, c) for x, c in ((p, a), (q, b)) if c]
        return qb.measure(reduce(qb.minkowski_sum, parts)).volume if parts else F(0)

    # coefficients of a^2, ab, b^2 from three samples
    v20, v11, v02 = vol(1, 0), vol(1, 1), vol(0, 1)
    c20, c02 = v20, v02
    c11 = v11 - v20 - v02
    for a, b in product(range(4), repeat=2):
        assert vol(a, b) == c20 * a * a + c11 * a * b + c02 * b * b


# ---------------------------------------------------------------------------
# classification, support values, documents

def test_classify_remark_examples():
    diamond = qb.hull_from_vertices([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert qb.classify(diamond) == qb.Classification(reflexive=True, delzant=False)
    big_square = qb.hull_from_vertices([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    assert qb.classify(big_square) == qb.Classification(reflexive=False, delzant=True)
    f1 = qb.load_fixture("f1")
    assert qb.classify(f1) == qb.Classification(reflexive=True, delzant=True)


def test_support_values(fixtures):
    f1 = fixtures["f1"]
    assert qb.support_value(f1, (1, 0)) == -1
    assert qb.support_value(f1, (0, 0)) == 0
    assert qb.support_value(fixtures["p2"], (-1, -1)) == -1


def test_translate_refuses_a_shift_of_the_wrong_length(fixtures):
    # the sum of a vertex and a shorter shift would drop an axis
    with pytest.raises(qb.InvalidInput, match="shift has length 1, expected 2"):
        qb.translate(fixtures["f1"], (1,))


def test_document_round_trip_and_consistency(fixtures):
    import qbary.polytope as qp

    p = fixtures["blowup-p1xp1"]
    doc = qp.polytope_to_document(p, "x")
    again, name = qp.polytope_from_document(doc)
    assert again == p and name == "x"
    doc["vertices"][0] = [2, 2]
    with pytest.raises(qb.InvalidInput):
        qp.polytope_from_document(doc)
    with pytest.raises(qb.InvalidInput):
        qp.polytope_from_document({"name": "empty"})


P2_VERTICES = ((-1, -1), (2, -1), (-1, 2))
P2_RAYS = ((1, 0), (0, 1), (-1, -1))


def _with_first_one(rows, value):
    """``rows`` with their first entry 1 replaced by ``value``."""
    flat = [x for row in rows for x in row]
    flat[flat.index(1)] = value
    width = len(rows[0])
    return [flat[i : i + width] for i in range(0, len(flat), width)]


@pytest.mark.parametrize("bad", (1.5, 1.0, F(1), F(3, 2), True, "1"), ids=repr)
def test_constructors_refuse_coordinates_that_are_not_ints(bad):
    # int() reads each of these as 1, which builds P^2 or the unit
    # triangle, so only a reader that refuses them passes
    cases = {
        "vertices": lambda: qb.hull_from_vertices(_with_first_one([(0, 0), (1, 0), (0, 1)], bad)),
        "normals": lambda: qb.polytope_from_halfspaces(_with_first_one(P2_RAYS, bad), [1, 1, 1]),
        "offsets": lambda: qb.polytope_from_halfspaces(P2_RAYS, [1, 1, bad]),
        "rays": lambda: qb.toric_data(_with_first_one(P2_RAYS, bad), [1, 1, 1]),
        "toric offsets": lambda: qb.toric_data(P2_RAYS, [bad, 1, 1]),
        "document vertices": lambda: qb.polytope_from_document({"vertices": _with_first_one([(0, 0), (1, 0), (0, 1)], bad)}),
        "document offsets": lambda: qb.polytope_from_document({"normals": P2_RAYS, "offsets": [1, bad, 1]}),
        "body points": lambda: body_from_points(_with_first_one([(0, 0), (1, 0), (0, 1)], bad)),
        "hull measure points": lambda: qbary.hull.volume_and_barycenter(_with_first_one([(0, 0), (1, 0), (0, 1)], bad)),
        "hull points": lambda: qbary.hull.convex_hull(_with_first_one([(0, 0), (1, 0), (0, 1)], bad)),
    }
    for where, build in cases.items():
        with pytest.raises(qb.InvalidInput, match="^expected an"):
            build()
            pytest.fail(where)


@pytest.mark.parametrize("form", (list, tuple, iter), ids=("list", "tuple", "generator"))
def test_constructors_read_lists_tuples_and_generators_of_ints(form):
    p2 = qb.load_fixture("p2")
    assert qb.hull_from_vertices(form([form(v) for v in P2_VERTICES])) == p2
    assert qb.polytope_from_halfspaces(form([form(r) for r in P2_RAYS]), form([1, 1, 1])) == p2
    t = qb.toric_data(form([form(r) for r in P2_RAYS]), form([1, 1, 1]))
    assert t.rays == P2_RAYS and t.offsets == (1, 1, 1) and t.polytope == p2


def test_empty_input_is_refused_by_the_reader():
    with pytest.raises(qb.InvalidInput, match="expected a nonempty array of integer vectors"):
        qb.hull_from_vertices([])
    with pytest.raises(qb.InvalidInput, match="expected a nonempty array of integer vectors"):
        qb.polytope_from_halfspaces([], [])


def test_all_fixture_documents_carry_consistent_representations():
    for name in FIXTURE_NAMES:
        assert qb.load_fixture(name).dim in (2, 3)
