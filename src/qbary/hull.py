"""Exact convex hulls and triangulations of integer point sets.

The hull is built incrementally (beneath-beyond) with all-integer
predicates: a simplicial scaffold of the boundary is maintained, each new
point removes the facets it strictly sees and is joined to the horizon
ridges, and coplanar simplices are merged into true facets at the end.
With strict visibility a horizon ridge can never be affinely dependent with
the inserted point, so the scaffold stays non-degenerate without any
perturbation.  The vertices are read off the merged facet planes: a
boundary point is a vertex exactly when no other input point lies on every
facet plane through it.

Facets are reported in inward form: primitive integer normal ``v`` and
integer offset ``b`` with ``<u, v> >= -b`` on the hull and equality on the
facet.

Measures never rebuild a hull.  :func:`face_triangulator` walks the face
lattice that the facets' vertex-index sets already describe: the facets of
a face are its maximal intersections with the polytope's facets, and a
face is triangulated by coning its smallest vertex over its facets that do
not contain it (a pulling triangulation; any triangulation yields the same
volume and barycenter, this one is deterministic).  The simplices are
vertex indices, so they stay in the original coordinates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Callable, Iterable, Sequence

from .errors import DegenerateInput, InternalInconsistency, InvalidInput
from .linalg import IntVec, cross_normal, dot, independent_rows, int_det, vec_sub


@dataclass(frozen=True)
class HullFacet:
    normal: IntVec
    offset: int
    vertex_ids: tuple[int, ...]


@dataclass(frozen=True)
class Hull:
    dim: int
    vertices: tuple[IntVec, ...]
    facets: tuple[HullFacet, ...]


def _dedupe(points: Iterable[Sequence[int]]) -> list[IntVec]:
    seen = sorted({tuple(int(x) for x in p) for p in points})
    if not seen:
        raise InvalidInput("empty point set")
    dims = {len(p) for p in seen}
    if len(dims) != 1:
        raise InvalidInput("points of mixed dimension")
    return seen


def convex_hull(points: Iterable[Sequence[int]]) -> Hull:
    """Hull of finitely many integer points; raises if not full-dimensional."""
    pts = _dedupe(points)
    dim = len(pts[0])
    if dim < 1:
        raise InvalidInput("ambient dimension must be at least 1")
    if dim == 1:
        lo, hi = pts[0][0], pts[-1][0]
        if lo == hi:
            raise DegenerateInput("hull of a single point is not full-dimensional")
        return Hull(
            1,
            ((lo,), (hi,)),
            (HullFacet((-1,), hi, (1,)), HullFacet((1,), -lo, (0,))),
        )

    base = _initial_simplex(pts, dim)
    interior_sum = tuple(sum(p[i] for p in base) for i in range(dim))
    scale = dim + 1
    id_of = {p: i for i, p in enumerate(pts)}
    base_ids = [id_of[p] for p in base]

    def make_facet(ids: tuple[int, ...]):
        corner = pts[ids[0]]
        w = cross_normal([vec_sub(pts[i], corner) for i in ids[1:]])
        if all(x == 0 for x in w):
            raise InternalInconsistency("degenerate facet in hull scaffold")
        c = dot(corner, w)
        side = dot(interior_sum, w) - scale * c
        if side > 0:
            w, c = tuple(-x for x in w), -c
        elif side == 0:
            raise InternalInconsistency("interior reference point on a facet plane")
        return (frozenset(ids), w, c)

    facets = []
    for drop in range(dim + 1):
        facets.append(make_facet(tuple(base_ids[i] for i in range(dim + 1) if i != drop)))

    in_hull = set(base_ids)
    for pid, p in enumerate(pts):
        if pid in in_hull:
            continue
        in_hull.add(pid)
        visible = [f for f in facets if dot(p, f[1]) > f[2]]
        if not visible:
            continue
        ridge_count: Counter = Counter()
        for ids, _, _ in visible:
            for ex in ids:
                ridge_count[ids - {ex}] += 1
        horizon = [r for r, cnt in ridge_count.items() if cnt == 1]
        visible_ids = {id(f) for f in visible}
        facets = [f for f in facets if id(f) not in visible_ids]
        for ridge in horizon:
            facets.append(make_facet(tuple(sorted(ridge)) + (pid,)))

    return _merge_scaffold(pts, dim, facets)


def _initial_simplex(pts: list[IntVec], dim: int) -> list[IntVec]:
    chosen = independent_rows(vec_sub(p, pts[0]) for p in pts[1:])
    if len(chosen) < dim:
        raise DegenerateInput(
            f"points span an affine space of dimension {len(chosen)} < {dim}"
        )
    return [pts[0]] + [pts[i + 1] for i in chosen]


def _merge_scaffold(pts: list[IntVec], dim: int, facets) -> Hull:
    planes: dict[tuple[IntVec, int], None] = {}
    for _, w, c in facets:
        g = 0
        for x in w:
            g = gcd(g, x)
        wp = tuple(x // g for x in w)
        if c % g:
            raise InternalInconsistency("facet offset not divisible by normal content")
        planes[(wp, c // g)] = None

    # A boundary point is a vertex iff it is the only input point on every
    # facet plane through it: those planes cut out the smallest face that
    # holds the point, and a face is the hull of the input points on it.
    keys = list(planes)
    on_plane = [{pid for pid, p in enumerate(pts) if dot(p, wp) == cp} for wp, cp in keys]
    incident: dict[int, list[set[int]]] = {}
    for ids in on_plane:
        for pid in ids:
            incident.setdefault(pid, []).append(ids)
    # pts is sorted, so the vertices come out sorted too
    vertex_ids = sorted(pid for pid, sets in incident.items() if set.intersection(*sets) == {pid})
    index = {pid: i for i, pid in enumerate(vertex_ids)}

    hull_facets = []
    for (wp, cp), on in zip(keys, on_plane):
        ids = tuple(sorted(index[pid] for pid in on if pid in index))
        if len(ids) < dim:
            raise InternalInconsistency("facet with too few vertices")
        hull_facets.append(HullFacet(tuple(-x for x in wp), cp, ids))
    hull_facets.sort(key=lambda f: (f.normal, f.offset))
    return Hull(dim, tuple(pts[pid] for pid in vertex_ids), tuple(hull_facets))


# ---------------------------------------------------------------------------
# face lattice, triangulation and measure

Simplex = tuple[int, ...]


def face_triangulator(facets: Sequence[Iterable[int]]) -> Callable[[Iterable[int]], tuple[Simplex, ...]]:
    """Pulling triangulations of the faces of a polytope, as vertex indices.

    ``facets`` are the polytope's facets as sets of vertex indices.  The
    returned function maps a face (a set of vertex indices, such as one
    facet or all vertices) to simplices of the face's dimension that
    partition it.  The facets of a face G are the maximal proper nonempty
    sets ``G & F`` over the polytope's facets F; G is triangulated by coning
    its smallest vertex index over the triangulations of its facets that do
    not contain it.  Faces are memoized for the lifetime of the returned
    function, so a face shared by several facets is triangulated once.
    """
    facet_sets = [frozenset(f) for f in facets]
    memo: dict[frozenset[int], tuple[Simplex, ...]] = {}

    def triangulate(face: Iterable[int]) -> tuple[Simplex, ...]:
        face = frozenset(face)
        done = memo.get(face)
        if done is not None:
            return done
        if len(face) == 1:
            done = (tuple(face),)
        else:
            apex = min(face)
            meets = {face & f for f in facet_sets} - {face, frozenset()}
            far = [m for m in meets if apex not in m and not any(m < other for other in meets)]
            done = tuple(
                (apex, *simplex) for sub in sorted(far, key=sorted) for simplex in triangulate(sub)
            )
        memo[face] = done
        return done

    return triangulate


def measure_from_facets(
    vertices: Sequence[IntVec], facets: Sequence[Iterable[int]]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact Euclidean volume and barycenter of a full-dimensional polytope
    given by its vertices and its facets' vertex indices.

    Simplex volume is |det| / dim!, simplex barycenter the corner average;
    totals are volume-weighted.
    """
    dim = len(vertices[0])
    total = 0
    moment = [0] * dim
    for simplex in face_triangulator(facets)(range(len(vertices))):
        corner = vertices[simplex[0]]
        weight = abs(int_det([vec_sub(vertices[i], corner) for i in simplex[1:]]))
        if weight == 0:
            raise InternalInconsistency("flat simplex in a pulling triangulation")
        total += weight
        for j in range(dim):
            moment[j] += weight * sum(vertices[i][j] for i in simplex)
    return Fraction(total, factorial(dim)), tuple(Fraction(m, total * (dim + 1)) for m in moment)


def volume_and_barycenter(points: Iterable[Sequence[int]]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact Euclidean volume and barycenter of the hull of the points."""
    hull = convex_hull(points)
    return measure_from_facets(hull.vertices, [f.vertex_ids for f in hull.facets])
