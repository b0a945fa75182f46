"""Exact convex hulls and triangulations of integer point sets.

Hulls are built by double description (Fukuda–Prodon, 1996) over true
facets, in integers.  A facet is a primitive outward normal ``w``, an
offset ``c`` with ``<x, w> <= c`` on the hull, and the set Z of inserted
points on its plane.  From a simplex, the points are inserted in sorted
order.  Let ``s = <p, w> - c`` for the point p.  A violated facet f
(``s_f > 0``) and a facet g with ``s_g < 0`` give the new facet
``s_f·w_g - s_g·w_f`` through p when they are adjacent, that is, when no
third facet's Z contains ``Z_f & Z_g``.  This combinatorial test is exact
also when Z holds non-vertices.  The violated facets then go, and p joins
the Z of every facet whose plane holds it.  Each facet is made once, as a
true facet of the hull so far, so no coplanar pieces are left to merge.
A point is a vertex iff no other input point lies on every facet through
it: those facets cut out the smallest face holding the point, and a face
is the hull of the input points on it.

Facets are reported in inward form: primitive integer normal ``v`` and
integer offset ``b`` with ``<u, v> >= -b`` on the hull and equality on the
facet.

The same engine serves both directions of Minkowski–Weyl duality: points
to facets directly, and half-spaces to vertices through the facets at the
origin of a hull one dimension up
(:func:`qbary.polytope.polytope_from_halfspaces`).

Measures never rebuild a hull.  :func:`face_triangulator` walks the face
lattice that the facets' vertex-index sets already describe: the facets of
a face are its maximal intersections with the polytope's facets, and a
face is triangulated by coning its smallest vertex over its facets that do
not contain it (a pulling triangulation; any triangulation yields the same
volume and barycenter, this one is deterministic).  The simplices are
vertex indices, so they stay in the original coordinates.
:func:`face_moments` makes one walk per polytope: each facet is
triangulated once and each of its simplices is coned from a vertex off the
facet, one determinant each.  Vertex 0 is that vertex for every facet that
misses it, and those cones are the pulling triangulation of the polytope,
so the same determinants give its volume and barycenter and, divided by
the lattice height of the cone's apex, every facet's measure.
"""

from __future__ import annotations

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
    if dim == 1 and len(pts) == 1:
        raise DegenerateInput("hull of a single point is not full-dimensional")

    # A facet is (w, c, z): <x, w> <= c on the hull, z the bitmask of the
    # inserted points on its plane.  On the simplex with edges e_j at the
    # corner, the cross normal of the edges but e_j meets e_j in +-det, so
    # the outward normals of the d facets through the corner sum to minus
    # the outward normal of the facet opposite it.
    base = _initial_simplex(pts, dim)
    corner, full = pts[base[0]], sum(1 << i for i in base)
    edges = [vec_sub(pts[i], corner) for i in base[1:]]
    facets, far = [], (0,) * dim
    for j, drop in enumerate(base[1:]):
        w = cross_normal(edges[:j] + edges[j + 1:])
        if not any(w):
            raise InternalInconsistency("degenerate facet of the initial simplex")
        side = dot(edges[j], w)
        if side > 0:
            w = tuple(-x for x in w)
        elif side == 0:
            raise InternalInconsistency("opposite vertex on a facet plane")
        far = vec_sub(far, w)
        facets.append(_primitive(w, dot(corner, w), full ^ 1 << drop))
    facets.append(_primitive(far, dot(pts[base[1]], far), full ^ 1 << base[0]))

    for pid, p in enumerate(pts):
        if pid in base:
            continue
        bit = 1 << pid
        sides = [dot(p, w) - c for w, c, _ in facets]
        new = []
        if max(sides) > 0:
            masks = [z for _, _, z in facets]
            below = [(s, f) for s, f in zip(sides, facets) if s < 0]
            for sf, (wf, cf, zf) in zip(sides, facets):
                if sf <= 0:
                    continue
                for sg, (wg, cg, zg) in below:
                    common = zf & zg
                    if common.bit_count() >= dim - 1 and _adjacent(common, masks):
                        w = tuple(sf * a - sg * b for a, b in zip(wg, wf))
                        new.append(_primitive(w, sf * cg - sg * cf, common | bit))
        facets = [(w, c, z | bit if s == 0 else z) for s, (w, c, z) in zip(sides, facets) if s <= 0] + new

    # the AND of the facets through a point is the smallest face holding it
    through: dict[int, int] = {}
    for _, _, z in facets:
        for pid in _ids(z):
            through[pid] = through.get(pid, z) & z
    # pts is sorted, so the vertices come out sorted too
    vertex_ids = sorted(pid for pid, z in through.items() if z == 1 << pid)
    index = {pid: i for i, pid in enumerate(vertex_ids)}

    hull_facets = []
    for w, c, z in facets:
        ids = tuple(index[pid] for pid in _ids(z) if pid in index)
        if len(ids) < dim:
            raise InternalInconsistency("facet with too few vertices")
        hull_facets.append(HullFacet(tuple(-x for x in w), c, ids))
    hull_facets.sort(key=lambda f: (f.normal, f.offset))
    return Hull(dim, tuple(pts[pid] for pid in vertex_ids), tuple(hull_facets))


def _initial_simplex(pts: list[IntVec], dim: int) -> list[int]:
    chosen = independent_rows(vec_sub(p, pts[0]) for p in pts[1:])
    if len(chosen) < dim:
        raise DegenerateInput(
            f"points span an affine space of dimension {len(chosen)} < {dim}"
        )
    return [0] + [i + 1 for i in chosen]


def _primitive(w: IntVec, c: int, z: int) -> tuple[IntVec, int, int]:
    g = gcd(*w)
    if c % g:
        raise InternalInconsistency("facet offset not divisible by normal content")
    return tuple(x // g for x in w), c // g, z


def _adjacent(common: int, masks: Sequence[int]) -> bool:
    """Whether the two facets whose point sets meet in ``common`` are
    adjacent: no third facet's point set contains ``common``."""
    return len([z for z in masks if common & z == common]) == 2


def _ids(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        if len(face) <= 2:  # a vertex or an edge is its own simplex
            done = (tuple(sorted(face)),)
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


def face_moments(
    vertices: Sequence[IntVec], facets: Sequence[tuple[IntVec, Sequence[int]]]
) -> tuple[int, list[int], list[tuple[int, list[int]]]]:
    """Integer volume, barycenter and facet measures of a full-dimensional
    polytope; ``facets`` are (inward normal, increasing vertex indices).

    Each simplex S of a facet F (a facet with dim vertices is its own
    simplex) is coned from the first vertex a off F, an n-simplex of volume
    ``|det| / n!``.  At lattice height h of a above F, S weighs ``w_S =
    |det| / h``, a positive integer: (n-1)! times S's lattice-normalized
    measure.  Returns ``(volume, moment, weighed)``, where ``weighed[F] =
    (total_F, moment_F)`` with ``total_F = sum_S w_S = (n-1)! nvol(F)`` and
    ``moment_F = sum_S w_S (sum of S's vertices) = n total_F bc_F``.  The
    cones from vertex 0 are the pulling triangulation of P, so over them
    ``volume = sum |det| = n! vol(P)`` and ``moment = sum |det| (sum of the
    cone's vertices) = (n+1) volume bc(P)``.
    """
    dim = len(vertices[0])
    triangulate = face_triangulator([ids for _, ids in facets])
    volume, moment, weighed = 0, [0] * dim, []
    for normal, ids in facets:
        on = set(ids)
        apex = next(i for i in range(len(vertices)) if i not in on)
        corner = vertices[apex]
        height = dot(vec_sub(corner, vertices[ids[0]]), normal)
        total, facet_moment = 0, [0] * dim
        for simplex in (ids,) if len(ids) == dim else triangulate(ids):
            det = abs(int_det([vec_sub(vertices[i], corner) for i in simplex]))
            weight, rest = divmod(det, height)
            if rest or weight == 0:
                raise InternalInconsistency("facet simplex volume not a positive multiple of its height")
            sums = [sum(column) for column in zip(*(vertices[i] for i in simplex))]
            total += weight
            facet_moment = [m + weight * x for m, x in zip(facet_moment, sums)]
            if apex == 0:
                volume += det
                moment = [m + det * (x + c) for m, x, c in zip(moment, sums, corner)]
        weighed.append((total, facet_moment))
    return volume, moment, weighed


def volume_and_barycenter(points: Iterable[Sequence[int]]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact Euclidean volume and barycenter of the hull of the points."""
    hull = convex_hull(points)
    volume, moment, _ = face_moments(hull.vertices, [(f.normal, f.vertex_ids) for f in hull.facets])
    return Fraction(volume, factorial(hull.dim)), tuple(Fraction(m, volume * (hull.dim + 1)) for m in moment)
