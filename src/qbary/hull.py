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

A hull is returned as the :class:`Polytope` it describes: its vertices,
sorted; its facets in inward form, a primitive integer normal ``v`` and an
integer offset ``b`` with ``<u, v> >= -b`` on the hull and equality on the
facet, sorted; and the incidence, each facet's increasing vertex indices.

Two inputs are written down directly, as the polytope the double
description would give.  In dimension 1 the hull is the segment from the
least point to the greatest.  In dimension 4 or more, points that are not
a simplex's vertices are searched for the axes on which they split off as
a factor (:func:`_blocks`); the other axes form one block.  With two or
more blocks, each factor's distinct projection is hulled by
:func:`convex_hull` itself, and the product's vertices are the sorted
products of the factors' vertices, its facets the factors' facets padded
with zeros, sorted, each holding the vertices whose component on that
factor lies on the factor's facet (:func:`_product`).  Dimension 4 is where
:func:`qbary.polytope._split` starts to measure and count a product
through its factors; below it, and on a simplex, the search costs more
than it saves.  A product whose factors all have dimension 2 or more has
no axis that splits off, and is built whole.

The same engine serves both directions of Minkowski–Weyl duality: points
to facets directly, and half-spaces to vertices through the facets at the
origin of a hull one dimension up, which also show whether the half-spaces
bound (:func:`qbary.polytope.polytope_from_halfspaces`).

Measures never rebuild a hull.  The facets' vertex-index sets already
describe the face lattice: the facets of a face are its maximal
intersections with the polytope's facets.  :func:`face_triangulator`
cones each face's smallest vertex over its facets that miss it (a pulling
triangulation, kept as vertex indices in the original coordinates).
:func:`face_moments` walks the same cones without listing simplices: a
facet that is a simplex takes one determinant with a vertex off it, and
any other facet is summed over the faces below it, each face once, from
the sparse Plücker vectors of its pyramids.  The pyramids from vertex 0
over the facets that miss it partition the polytope, so the facet
measures and the heights of vertex 0 give its volume and barycenter.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, gcd
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import DegenerateInput, InternalInconsistency, InvalidInput
from .exactnum import rational_vector
from .linalg import IntRows, IntVec, adjugate, dot, independent_rows, int_det, int_rows, vec_sub


class Halfspace(NamedTuple):
    """Inward half-space ``<u, normal> >= -offset`` with primitive normal."""

    normal: IntVec
    offset: int


class Polytope(NamedTuple):
    dim: int
    vertices: tuple[IntVec, ...]
    facets: tuple[Halfspace, ...]
    incidence: tuple[tuple[int, ...], ...]

    def facet_vertices(self, i: int) -> tuple[IntVec, ...]:
        return tuple(self.vertices[j] for j in self.incidence[i])

    def contains(self, point: Sequence) -> bool:
        point = _point(point, self.dim)
        return all(dot(point, f.normal) >= -f.offset for f in self.facets)

    def strictly_contains(self, point: Sequence) -> bool:
        point = _point(point, self.dim)
        return all(dot(point, f.normal) > -f.offset for f in self.facets)


def _point(point: object, dim: int) -> tuple:
    """``point`` as a tuple of ``dim`` entries, each an ``int`` or a
    ``Fraction``; any other length or entry is refused."""
    point = rational_vector(point, "point")
    if len(point) != dim:
        raise InvalidInput(f"point has length {len(point)}, expected {dim}")
    return point


def convex_hull(points: Iterable[Sequence[int]]) -> Polytope:
    """Hull of finitely many integer points (``int_rows``); raises if not full-dimensional."""
    pts = sorted(set(int_rows(points)))
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise InvalidInput("points of mixed dimension")
    if dim < 1:
        raise InvalidInput("ambient dimension must be at least 1")
    if dim == 1:
        if len(pts) == 1:
            raise DegenerateInput("hull of a single point is not full-dimensional")
        (low,), (high,) = pts[0], pts[-1]
        return Polytope(1, (pts[0], pts[-1]), (Halfspace((-1,), high), Halfspace((1,), -low)), ((1,), (0,)))
    base = _initial_simplex(pts, dim)
    if dim >= 4 and len(pts) > dim + 1:
        blocks = _blocks(pts, dim)
        if blocks:  # a factor's points are integer rows already
            factors = [convex_hull(IntRows({tuple(p[i] for i in block) for p in pts})) for block in blocks]
            return _product(blocks, factors)
    return _double_description(pts, dim, base)


def _double_description(pts: list[IntVec], dim: int, base: list[int]) -> Polytope:
    """The hull of the sorted distinct points ``pts``, from the simplex on
    their indices ``base``."""
    # A facet is (w, c, z): <x, w> <= c on the hull, z the bitmask of the
    # inserted points on its plane.  On the simplex with edges e_j at the
    # corner, column j of the adjugate of the edge matrix meets e_j in d and
    # the other edges in 0, so -sign(d) times it is the outward normal of
    # the facet through the corner that misses e_j, and these d normals sum
    # to minus the outward normal of the facet opposite the corner.
    corner, full = pts[base[0]], sum(1 << i for i in base)
    det, adj = adjugate([vec_sub(pts[i], corner) for i in base[1:]])
    if not det:
        raise InternalInconsistency("degenerate initial simplex")
    outward = -1 if det > 0 else 1
    facets, far = [], (0,) * dim
    for j, drop in enumerate(base[1:]):
        w = tuple(outward * row[j] for row in adj)
        far = vec_sub(far, w)
        facets.append(_primitive(w, dot(corner, w), full ^ 1 << drop))
    facets.append(_primitive(far, dot(pts[base[1]], far), full ^ 1 << base[0]))

    for pid, p in enumerate(pts):
        if pid in base:
            continue
        bit = 1 << pid
        sides = [sum(map(mul, p, w)) - c for w, c, _ in facets]
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
        hull_facets.append((Halfspace(tuple(-x for x in w), c), ids))
    hull_facets.sort(key=lambda f: (f[0].normal, f[0].offset))
    return Polytope(
        dim,
        tuple(pts[pid] for pid in vertex_ids),
        tuple(h for h, _ in hull_facets),
        tuple(ids for _, ids in hull_facets),
    )


def _initial_simplex(pts: list[IntVec], dim: int) -> list[int]:
    chosen = independent_rows(vec_sub(p, pts[0]) for p in pts[1:])
    if len(chosen) < dim:
        raise DegenerateInput(
            f"points span an affine space of dimension {len(chosen)} < {dim}"
        )
    return [0] + [i + 1 for i in chosen]


def _blocks(pts: list[IntVec], dim: int) -> list[tuple[int, ...]]:
    """The coordinate blocks of which the distinct points ``pts`` are the
    product: each axis on which they split off as a factor, and the other
    axes as one block; ``[]`` when no axis splits off.

    The points lie in the product of their values on axis i and their
    projection onto the other axes, so they split off on axis i iff the two
    sizes multiply to their number.  Then each value holds the same number
    of points, which is checked before the projection is built.
    """
    alone = []
    for i, column in enumerate(zip(*pts)):
        counts = set(Counter(column).values())
        if len(counts) == 1 and len({p[:i] + p[i + 1 :] for p in pts}) == counts.pop():
            alone.append(i)
    if not alone:
        return []
    rest = tuple(i for i in range(dim) if i not in alone)
    return [(i,) for i in alone] + ([rest] if rest else [])


def _product(blocks: list[tuple[int, ...]], factors: list[Polytope]) -> Polytope:
    """The product of the hulls ``factors``, each on the axes of its block,
    in the form the double description gives.

    Its vertices are the products of the factors' vertices, sorted.  Its
    facets are the factors' facets padded with zeros, sorted, and each holds
    the vertices whose component on that factor lies on the factor's facet.
    """
    axes = sum(blocks, ())
    # the factors' coordinates, joined in block order, back on their axes
    place = itemgetter(*sorted(range(len(axes)), key=axes.__getitem__))
    picks = product(*(range(len(f.vertices)) for f in factors))
    corners = sorted((place(sum(vs, ())), ids) for ids, vs in zip(picks, product(*(f.vertices for f in factors))))
    facets, before = [], ()
    for c, f in enumerate(factors):
        after = (0,) * (len(axes) - len(before) - f.dim)
        for h, on in zip(f.facets, f.incidence):
            ids = tuple(k for k, (_, at) in enumerate(corners) if at[c] in on)
            facets.append((Halfspace(place(before + h.normal + after), h.offset), ids))
        before += (0,) * f.dim
    facets.sort()  # by normal, as no two are equal
    return Polytope(len(axes), tuple(x for x, _ in corners), *zip(*facets))


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


def _far_facets(face: int, dim: int, masks: Sequence[int]) -> list[int]:
    """The facets of a face that miss its least vertex, as vertex bitmasks.

    ``face`` is a vertex bitmask of dimension ``dim``; ``masks`` are the
    polytope's facets.  A simplex has one, the facet opposite its least
    vertex.  Otherwise the facets of the face are its maximal proper
    nonempty intersections with the polytope's facets, the rule
    :func:`face_triangulator` follows.
    """
    low = face & -face
    if face.bit_count() == dim + 1:
        return [face ^ low]
    meets = {face & m for m in masks} - {face, 0}
    return [m for m in meets if not m & low and not any(m & o == m != o for o in meets)]


def _wedge(edge: IntVec, omega: dict[int, int]) -> dict[int, int]:
    """``edge ∧ omega`` for a Plücker vector held sparsely as {bitmask of
    its coordinate set: coefficient}, with ``e_i ∧ e_S = (-1)^{|S ∩ [0, i)|}
    e_{S ∪ {i}}``."""
    out: dict[int, int] = {}
    for i, x in enumerate(edge):
        if x:
            bit = 1 << i
            for s, c in omega.items():
                if not s & bit:
                    term = -x * c if (s & (bit - 1)).bit_count() & 1 else x * c
                    out[s | bit] = out.get(s | bit, 0) + term
    return {s: c for s, c in out.items() if c}


def face_moments(p: Polytope) -> tuple[int, list[int], list[tuple[int, list[int]]]]:
    """Integer volume, barycenter and facet measures of P, read off its
    vertices, inward facet normals and incidence.

    A face G of dimension d has the weight ``W_G = d! nvol(G)``, where
    ``nvol`` is the volume in which a fundamental cell of G's sublattice
    has volume one, and the moment ``M_G = (d+1) W_G bc(G)``.

    A facet F that is a simplex is coned from the first vertex a off F: at
    lattice height h of a above F, ``W_F = |det| / h``, a positive integer,
    and ``M_F = W_F · (the sum of F's vertices)``.

    Any other facet is walked down its face lattice, each face once,
    memoized by its vertex bitmask.  A face G with least vertex g is the
    union of the pyramids from g over its facets H that miss g.  For a
    vertex h of H, the pyramid's Plücker vector ``(h - g) ∧ Ω(H)`` has
    content ``W_cone``, and ``W_cone / W_H`` is g's lattice height above H,
    a positive integer.  Each term is turned to a positive first
    coordinate and ``Ω(G)`` is their sum.  ``W_G = sum W_cone`` must be the
    content of ``Ω(G)``.  With coordinates that fit the incidence the terms
    are multiples of one primitive vector, since a basis of a saturated
    lattice has a primitive Plücker vector, so the check holds exactly when
    they agree in orientation.  It catches pyramids turned against each
    other and most coordinates that do not fit, but cannot prove the terms
    parallel: the contents 1 and 1 of (3, 1) and (-1, 1) add up to that of
    (2, 2).  The caller's Minkowski and divergence checks back it up.
    ``M_G = W_G g + sum (W_cone / W_H) M_H``.  A vertex v has ``Ω = 1``, ``W = 1``
    and ``M = v``.

    Returns ``(volume, moment, weighed)`` with ``weighed[F] = (W_F, M_F)``.
    The pyramids from vertex 0 over the facets F that miss it, at lattice
    heights ``h_F``, partition P, so ``volume = sum h_F W_F = n! vol(P)``
    and ``moment = sum h_F (W_F v_0 + M_F) = (n+1) volume bc(P)``.
    """
    dim, vertices = p.dim, p.vertices
    masks = [sum(1 << i for i in ids) for ids in p.incidence]
    memo: dict[int, tuple[dict[int, int], int, list[int]]] = {}

    def walk(face: int, d: int) -> tuple[dict[int, int], int, list[int]]:
        done = memo.get(face)
        if done is not None:
            return done
        corner = vertices[(face & -face).bit_length() - 1]
        if d == 0:
            done = {0: 1}, 1, list(corner)
        else:
            omega: dict[int, int] = {}
            total, moment = 0, [0] * dim
            for sub in _far_facets(face, d, masks):
                sub_omega, sub_total, sub_moment = walk(sub, d - 1)
                term = _wedge(vec_sub(vertices[(sub & -sub).bit_length() - 1], corner), sub_omega)
                weight = gcd(*term.values())
                height, rest = divmod(weight, sub_total)
                if rest or height == 0:
                    raise InternalInconsistency("pyramid volume not a positive multiple of its base's")
                sign = 1 if term[min(term)] > 0 else -1
                for s, c in term.items():
                    omega[s] = omega.get(s, 0) + sign * c
                total += weight
                moment = [m + height * x for m, x in zip(moment, sub_moment)]
            if gcd(*omega.values()) != total:
                raise InternalInconsistency("face pyramids disagree in orientation")
            done = omega, total, [m + total * c for m, c in zip(moment, corner)]
        memo[face] = done
        return done

    first = vertices[0]
    volume, moment, weighed = 0, [0] * dim, []
    for facet, ids, mask in zip(p.facets, p.incidence, masks):
        apex = vertices[(~mask & (mask + 1)).bit_length() - 1]  # the first vertex off F
        height = dot(vec_sub(apex, vertices[ids[0]]), facet.normal)
        if len(ids) == dim:
            det = abs(int_det([vec_sub(vertices[i], apex) for i in ids]))
            total, rest = divmod(det, height)
            if rest or total == 0:
                raise InternalInconsistency("facet simplex volume not a positive multiple of its height")
            facet_moment = [total * sum(column) for column in zip(*(vertices[i] for i in ids))]
        else:
            _, total, facet_moment = walk(mask, dim - 1)
        if not mask & 1:
            volume += height * total
            moment = [m + height * (total * c + x) for m, c, x in zip(moment, first, facet_moment)]
        weighed.append((total, facet_moment))
    return volume, moment, weighed


def volume_and_barycenter(points: Iterable[Sequence[int]]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact Euclidean volume and barycenter of the hull of integer points."""
    hull = convex_hull(points)
    volume, moment, _ = face_moments(hull)
    return Fraction(volume, factorial(hull.dim)), tuple(Fraction(m, volume * (hull.dim + 1)) for m in moment)
