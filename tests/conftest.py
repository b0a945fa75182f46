"""Shared fixtures: the bundled polytopes, a seeded random corpus, naive
oracles and Hypothesis strategies for unimodular maps."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, count, product
from math import gcd, lcm

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import qbary as qb
import qbary.errors
import qbary.hull
from qbary.linalg import dot

FIXTURE_NAMES = (
    "p2",
    "f1",
    "blowup-p1xp1",
    "fano-3-29",
    "cube2",
    "cube3",
    "square-reflexive-nondelzant",
    "square-delzant-nonreflexive",
    "hexagon",
)

DEL_PEZZO_NAMES = ("p2", "f1", "cube2", "blowup-p1xp1", "hexagon")

# Shifts that no two calls share within a process, for tests that need a
# polytope, or a product whose factors, no cache has seen.
FRESH = count(1000)


def fresh_hull(vertices) -> qb.Polytope:
    """The hull of the vertices moved along the diagonal by a fresh shift, so
    that neither it nor its factors have a cached record or measures."""
    shift = next(FRESH)
    return qb.hull_from_vertices([tuple(x + shift for x in v) for v in vertices])


_CORPUS_CACHE: list | None = None


@pytest.fixture(scope="session")
def fixtures() -> dict[str, qb.Polytope]:
    return {name: qb.load_fixture(name) for name in FIXTURE_NAMES}


def random_corpus() -> list[qb.Polytope]:
    """At least 50 full-dimensional lattice polytopes with vertices in
    [-3, 3]^n for n in {2, 3}; deterministic across runs."""
    global _CORPUS_CACHE
    if _CORPUS_CACHE is not None:
        return _CORPUS_CACHE
    rng = random.Random(20260810)
    corpus: list[qb.Polytope] = []
    want = [(2, 32), (3, 20)]
    for dim, quota in want:
        got = 0
        while got < quota:
            count = rng.randint(dim + 1, dim + 5)
            pts = [
                tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)
            ]
            try:
                corpus.append(qb.hull_from_vertices(pts))
            except qb.QbaryError:
                continue
            got += 1
    _CORPUS_CACHE = corpus
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[qb.Polytope]:
    return random_corpus()


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive implementations)

def reduced_echelon(rows) -> tuple[list[int], list[list[Fraction]]]:
    """Pivot columns and nonzero rows of the reduced row echelon form, by
    Gauss-Jordan elimination over ``Fraction``; kept apart from
    ``qbary.linalg`` so the oracles below share nothing with the library."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, m[: len(pivots)]


def fraction_rank(rows) -> int:
    return len(reduced_echelon(rows)[0])


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over
    ``Fraction``, kept apart from ``qbary.linalg.int_det``."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            ratio = m[i][col] / m[col][col]
            m[i] = [a - ratio * b for a, b in zip(m[i], m[col])]
    return det


def fraction_solve(matrix, rhs) -> tuple[Fraction, ...]:
    """The solution of a nonsingular square system."""
    pivots, m = reduced_echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    assert pivots == list(range(len(matrix)))
    return tuple(row[-1] for row in m)


def _plane_normal(points) -> tuple[int, ...] | None:
    """Primitive integer normal of the hyperplane through ``dim`` points in
    dimension ``dim``, or None when they do not span one."""
    dim = len(points[0])
    pivots, m = reduced_echelon([[a - b for a, b in zip(q, points[0])] for q in points[1:]])
    if len(pivots) < dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    w = [Fraction(0)] * dim
    w[free] = Fraction(1)
    for row, c in zip(m, pivots):
        w[c] = -row[free]
    scale = lcm(*(x.denominator for x in w))
    ints = [int(x * scale) for x in w]
    return tuple(x // gcd(*ints) for x in ints)


def brute_hull(points):
    """``(vertices, facets)`` of the hull of integer points by brute force,
    or None when the points are not full-dimensional.

    Every ``dim``-subset spanning a hyperplane gives a candidate plane, kept
    when all points lie on one side of it: such a plane holds ``dim``
    affinely independent points of the hull, so it is a facet plane.  A
    point is a vertex iff the normals of the facets through it have rank
    ``dim``.  Facets are ``(inward normal, offset, vertex ids)`` with
    ``<x, normal> >= -offset``, sorted, in the form ``convex_hull`` gives.
    """
    pts = sorted(set(tuple(p) for p in points))
    dim = len(pts[0])
    if fraction_rank([[a - b for a, b in zip(q, pts[0])] for q in pts]) < dim:
        return None
    planes = set()
    for subset in combinations(pts, dim):
        w = _plane_normal(subset)
        if w is None:
            continue
        c = dot(subset[0], w)
        sides = {(dot(q, w) > c) - (dot(q, w) < c) for q in pts}
        if {1, -1} <= sides:
            continue
        planes.add((w, -c) if 1 in sides else (tuple(-x for x in w), c))
    vertices = tuple(
        q for q in pts if fraction_rank([v for v, b in planes if dot(q, v) == -b]) == dim
    )
    facets = tuple(
        sorted(
            (v, b, tuple(i for i, q in enumerate(vertices) if dot(q, v) == -b))
            for v, b in planes
        )
    )
    return vertices, facets


def brute_halfspace_vertices(normals, offsets) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of ``{x : <x, v_i> >= -b_i}`` by brute force; empty
    when the intersection is.

    Every ``n``-subset of the rows of full rank meets in one point, kept
    when it satisfies every row: the vertices of a pointed polyhedron are
    exactly these points.  That is C(m, n) ``Fraction`` solves, so keep the
    row count m small.
    """
    n = len(normals[0])
    found = set()
    for subset in combinations(range(len(normals)), n):
        matrix = [normals[i] for i in subset]
        if fraction_rank(matrix) < n:
            continue
        point = fraction_solve(matrix, [-offsets[i] for i in subset])
        if all(sum(a * x for a, x in zip(point, v)) >= -b for v, b in zip(normals, offsets)):
            found.add(point)
    return sorted(found)


def random_halfspace_descriptions(seed: int, count: int, dims=(1, 2, 3), max_rows: int = 10):
    """Seeded bounded H-descriptions ``(normals, offsets)``, deterministic
    across runs.

    Each starts from the facets of a random lattice polytope, whose normals
    positively span, and adds redundant and tangent rows.  Rows are scaled
    to non-primitive normals with scaled offsets and shuffled.  Some
    offsets are moved, and some facets are paired with their opposite, which
    gives empty, lower-dimensional and rational intersections.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(dims)
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 3))]
        try:
            p = qb.hull_from_vertices(pts)
        except qb.QbaryError:
            continue
        rows = [(f.normal, f.offset) for f in p.facets]
        if len(rows) > max_rows:
            continue
        while len(rows) < max_rows and rng.random() < 0.5:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                # tangent to P at shift 0, redundant above it
                rows.append((v, rng.choice((0, 0, 1, 2)) - min(dot(x, v) for x in p.vertices)))
        if len(rows) < max_rows and rng.random() < 0.2:
            v, b = rng.choice(rows[: len(p.facets)])
            rows.append((tuple(-x for x in v), -b - rng.choice((0, 0, 1))))
        scales = [rng.choice((1, 1, 1, 2, 3)) for _ in rows]
        rows = [(tuple(c * x for x in v), c * b) for c, (v, b) in zip(scales, rows)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(rows))
            rows[i] = (rows[i][0], rows[i][1] + rng.choice((-3, -2, -1, 1)))
        rng.shuffle(rows)
        out.append(([v for v, _ in rows], [b for _, b in rows]))
    return out


def brute_count(p: qb.Polytope, k: int, strict: bool = False) -> int:
    """Box scan with per-point inequality tests; independent of the library's
    interval-based counter."""
    if k == 0:
        return 0 if strict else 1
    ranges = [
        range(k * min(v[i] for v in p.vertices), k * max(v[i] for v in p.vertices) + 1)
        for i in range(p.dim)
    ]
    total = 0
    for pt in product(*ranges):
        ok = all(
            (dot(pt, f.normal) > -k * f.offset)
            if strict
            else (dot(pt, f.normal) >= -k * f.offset)
            for f in p.facets
        )
        total += ok
    return total


def brute_vertex_sum(p: qb.Polytope, k: int, strict: bool = False) -> tuple[int, ...]:
    ranges = [
        range(k * min(v[i] for v in p.vertices), k * max(v[i] for v in p.vertices) + 1)
        for i in range(p.dim)
    ]
    sums = [0] * p.dim
    for pt in product(*ranges):
        if all(
            (dot(pt, f.normal) > -k * f.offset)
            if strict
            else (dot(pt, f.normal) >= -k * f.offset)
            for f in p.facets
        ):
            for i, x in enumerate(pt):
                sums[i] += x
    return tuple(sums)


def brute_edges(p: qb.Polytope) -> list[tuple[int, int]]:
    """Vertex-index pairs forming the 1-faces.  The facets holding both
    vertices cut out the smallest face holding both; it is an edge iff
    there is such a facet and their normals have rank dim - 1.  (A segment
    has no facet holding both its vertices, and no edges.)"""
    out = []
    for i, j in combinations(range(len(p.vertices)), 2):
        normals = [f.normal for f, ids in zip(p.facets, p.incidence) if i in ids and j in ids]
        if normals and fraction_rank(normals) == p.dim - 1:
            out.append((i, j))
    return out


def brute_delzant(p: qb.Polytope) -> bool:
    """Every vertex lies on exactly dim edges whose primitive directions
    form a lattice basis (determinant +-1)."""
    adjacent: dict[int, list[int]] = {i: [] for i in range(len(p.vertices))}
    for i, j in brute_edges(p):
        adjacent[i].append(j)
        adjacent[j].append(i)
    for i, adj in adjacent.items():
        if len(adj) != p.dim:
            return False
        dirs = []
        for j in adj:
            d = [b - a for a, b in zip(p.vertices[i], p.vertices[j])]
            dirs.append([x // gcd(*d) for x in d])
        if abs(fraction_det(dirs)) != 1:
            return False
    return True


def shoelace_area(vertices_ccw) -> object:
    from fractions import Fraction

    total = Fraction(0)
    n = len(vertices_ccw)
    for i in range(n):
        x1, y1 = vertices_ccw[i]
        x2, y2 = vertices_ccw[(i + 1) % n]
        total += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(total) / 2


def ccw_order(points):
    from fractions import Fraction

    cx = sum(Fraction(p[0]) for p in points) / len(points)
    cy = sum(Fraction(p[1]) for p in points) / len(points)

    import math

    return sorted(points, key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))


# ---------------------------------------------------------------------------
# Hypothesis strategies: a polytope with a unimodular map and a translation

@st.composite
def unimodular(draw, n: int) -> list[list[int]]:
    """A product of elementary row moves, row swaps and sign flips."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        move = draw(st.sampled_from(("add", "swap", "negate")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if move == "add" and i != j:
            s = draw(st.sampled_from((-1, 1)))
            u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        elif move == "swap":
            u[i], u[j] = u[j], u[i]
        elif move == "negate":
            u[i] = [-a for a in u[i]]
    return u


@st.composite
def polytope_and_map(draw, max_dim: int = 4):
    n = draw(st.integers(1, max_dim))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3))
    try:
        p = qb.hull_from_vertices(points)
    except qb.DegenerateInput:
        assume(False)
    return p, draw(unimodular(n)), draw(st.tuples(*[st.integers(-5, 5)] * n))


def apply_map(u, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in u)


def count_hulls(monkeypatch) -> list:
    """Record every ``convex_hull`` call, wherever a module imported it."""
    real, calls = qbary.hull.convex_hull, []

    def counted(points):
        calls.append(points)
        return real(points)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("convex_hull") is real:
            monkeypatch.setattr(module, "convex_hull", counted)
    return calls


# Every identity check, by the name it gives ``qbary.errors.ensure``: a
# check added, renamed or dropped is a diff of this list.
CHECKS = (
    "cli.bck_rational_form",
    "ehrhart.product_count",
    "ehrhart.read_count",
    "ehrhart.read_sums",
    "ehrhart.read_interior_count",
    "ehrhart.read_interior_sums",
    "ehrhart.fit_samples",
    "ehrhart.fit_top_coefficients",
    "ehrhart.reflexive_closed_form",
    "expansion.barycenter_inside",
    "expansion.a0",
    "expansion.a1",
    "expansion.polygon_closed_form",
    "expansion.constant_rational_form",
    "expansion.constant_barycenter",
    "expansion.df0",
    "expansion.df1",
    "hull.initial_simplex",
    "hull.facet_vertices",
    "hull.facet_content",
    "hull.pyramid_volume",
    "hull.pyramid_orientation",
    "hull.facet_simplex_volume",
    "lattice.parallelepiped_volume",
    "lattice.parallelepiped_origin",
    "polytope.minkowski_relation",
    "polytope.divergence_theorem",
    "stability.expansion_constant",
    "stability.expansion_first_order",
    "stability.del_pezzo_closed_form",
    "toric.polarization_accepted",
    "toric.polarization_cones",
    "toric.edge_has_two_vertices",
    "toric.edges_dual_to_rays",
    "toric.hrr_volume",
    "toric.hrr_boundary",
    "toric.hrr_counts",
    "toric.rooftop_counts",
    "toric.rooftop_formula",
)


@contextmanager
def failed_check(*names: str, match: str | None = None):
    """Expect ``InternalInconsistency`` from the check of one of ``names``,
    its message matching ``match`` if given."""
    with pytest.raises(qb.InternalInconsistency, match=match) as excinfo:
        yield excinfo
    assert excinfo.value.check in names


def route_ensure(monkeypatch, through) -> None:
    """Send every check to ``through(name, ok, message, *args)`` in place of
    ``qbary.errors.ensure``, wherever a module imported it."""
    real = qbary.errors.ensure
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("ensure") is real:
            monkeypatch.setattr(module, "ensure", through)


def clear_caches() -> None:
    """Empty every cache of the library's functions."""
    for name, module in list(sys.modules.items()):
        if name.startswith("qbary"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
