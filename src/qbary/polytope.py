"""Lattice-polytope geometry.

A :class:`Polytope` is a full-dimensional convex lattice polytope held in
dual representation: its lattice vertices and its irredundant half-spaces
``<u, v_i> >= -b_i`` with primitive integer normals, plus the facet/vertex
incidence relation.  It is the type the exact hull engine returns
(:func:`qbary.hull.convex_hull`), so both representations are consistent
by construction.  The engine serves both directions: a vertex set is
hulled directly, and a half-space set takes two hulls, one dimension up
(Minkowski–Weyl duality), whose facets through the origin also show
whether the half-spaces bound, and then one of the vertices.  Dilates,
translates, the factors of a product (:func:`_split`) and the rooftop over
P (:func:`qbary.expansion.rooftop`) are written from P's face lattice with
no hull, through the same writer as every hull
(:func:`qbary.hull._from_faces`), which gives them the canonical form.

Measures and the normal fan are read off the incidence relation, which
holds the whole face lattice; no hull is rebuilt.  One record per
polytope (:func:`_measures`) keeps the integers of one walk of the face
lattice (:func:`qbary.hull.face_moments`).  For each facet F they are its
weight ``W_F = (dim-1)! nvol(F)``, with ``nvol`` the lattice-normalized
measure, in which a fundamental cell of the facet sublattice has measure
one, and its moment ``M_F = dim W_F bc(F)``: one determinant for a facet
that is a simplex, and pyramid heights read off sparse Plücker vectors,
each face once, for any other.  With the lattice heights of vertex 0 above
the facets they give ``W = dim! vol(P)`` and ``M = (dim+1) W bc(P)``.  A
product of coordinate blocks of dimension 4 or more, by the rule counting
uses, is not walked itself (:func:`_split`, kept in the same record): P's
integers are assembled with multinomial coefficients
(:func:`_product_face`) from each factor's own record, so a factor is
walked once however many products share it.  Minkowski's relation
and the divergence theorem are checked on the integers.  Every check in
qbary reads them and compares them with the value it checks by
cross-multiplication, so fractions are built from them only for results,
on each call: :func:`measure`, :func:`facet_data`, the boundary aggregates
alone (:func:`_boundary`), ``a1_closed_form`` and ``delta``.
:func:`vertex_cones` lists the facets through each vertex, whose normals
span that vertex's cone of the normal fan; :func:`classify` reads the
Delzant condition off them.

Dilates, translates and Minkowski sums take polytopes only, so every
result is full-dimensional: a dilate and a translate are one affine image
of P's facets and vertices (:func:`_affine`), with no hull, and a sum is
the hull of the vertex sums.  Each refuses an argument that is not a
``Polytope``.  A lower-dimensional hull is a :class:`Body`, made only by
:func:`body_from_points`, which hulls a degenerate point set on
coordinates on which its differences keep full rank, which its affine hull
projects onto one to one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateInput, InvalidInput, UnboundedInput, Unsupported, ensure
from .exactnum import Vector
from .hull import Halfspace, Polytope, _from_faces, convex_hull, face_moments
from .lattice import primitive
from .linalg import IntVec, dot, independent_rows, int_det, int_list, int_rows, int_value, rank, vec_add, vec_sub

DIMENSION_CAP = 7


class Body(NamedTuple):
    """Convex hull of lattice points, allowed to be lower-dimensional.

    ``vertices`` are the extreme points, lexicographically sorted, so equal
    hulls compare equal structurally.
    """

    dim: int
    vertices: tuple[IntVec, ...]


class MeasureData(NamedTuple):
    volume: Fraction
    barycenter: Vector


class FacetMeasure(NamedTuple):
    normal: IntVec
    offset: int
    normalized_volume: Fraction
    barycenter: Vector


class FacetData(NamedTuple):
    facets: tuple[FacetMeasure, ...]
    boundary_normalized_volume: Fraction
    boundary_barycenter: Vector


class Classification(NamedTuple):
    reflexive: bool
    delzant: bool


# ---------------------------------------------------------------------------
# construction

def check_dim(dim: int) -> None:
    if dim > DIMENSION_CAP:
        raise Unsupported(
            f"dimension {dim} above the configured cap {DIMENSION_CAP}"
        )


def hull_from_vertices(points: Iterable[Sequence[int]]) -> Polytope:
    """Full-dimensional lattice polytope from a generating point set.

    Non-extreme input points are dropped; raises ``DegenerateInput`` when the
    points do not affinely span the ambient space.  The points are read
    once, and the dimension cap is checked before the hull is built.
    """
    pts = int_rows(points)
    check_dim(len(pts[0]))
    return convex_hull(pts)


def polytope_from_halfspaces(normals: Iterable[Sequence[int]], offsets: Iterable[int]) -> Polytope:
    """Bounded full-dimensional intersection of lattice half-spaces.

    By Minkowski–Weyl duality the vertices come out of one hull in
    dimension n+1.  The homogenization cone ``{(x, s) : <x, v_i> + b_i s >= 0,
    s >= 0}`` of P is dual to the cone over the points ``(v_i, b_i)`` and
    ``e_{n+1}``, so the inward normals ``(x, s)`` of the facets through 0 of
    ``conv(0, e_{n+1}, (v_i, b_i))`` are its extreme rays.  That hull is
    full-dimensional iff the normals span; the primitive normals are held
    to affinely span, as the origin can be interior to their hull only
    then.  The cone is pointed, so it has a ray ``(x, 0)``, a recession
    direction of P, iff some x != 0 has ``<x, v_i> >= 0`` for every i, that
    is iff the normals do not positively span; that is tested first.  The
    other rays give the vertices ``x / s`` of P.  A normal is primitive, so
    its vertex is a lattice point iff ``s == 1``.  No facet through 0 means
    P is empty; 0 not a vertex means the cone, and so P, is not
    full-dimensional.  Redundant inequalities disappear when the hull is
    rebuilt from the vertices, the second and last hull.
    """
    rows, offsets = int_rows(normals), int_list(offsets)
    if len(rows) != len(offsets):
        raise InvalidInput("normals and offsets of different lengths")
    dim = len(rows[0])
    check_dim(dim)
    for v in rows:
        if len(v) != dim:
            raise InvalidInput("normals of mixed dimension")
        if not any(v):
            raise InvalidInput("zero normal vector")
    # parallel normals count once, as one primitive normal
    prims = [primitive(v) for v in rows]
    if rank(vec_sub(v, prims[0]) for v in prims) < dim:
        raise UnboundedInput("facet normals do not span the ambient space")

    origin = (0,) * (dim + 1)
    dual = convex_hull([origin, origin[1:] + (1,), *(v + (b,) for v, b in zip(rows, offsets))])
    rays = [f.normal for f in dual.facets if f.offset == 0]
    if any(s == 0 for *_, s in rays):
        raise UnboundedInput("facet normals do not positively span")
    if not rays:
        raise DegenerateInput("half-space intersection is empty")
    for *x, s in rays:
        if s != 1:
            raise InvalidInput(f"vertex ({', '.join(str(Fraction(a, s)) for a in x)}) is not a lattice point")
    if origin not in dual.vertices:
        raise DegenerateInput("half-space intersection is not full-dimensional")
    return hull_from_vertices(sorted(ray[:-1] for ray in rays))


# ---------------------------------------------------------------------------
# bodies, dilates, translates, Minkowski sums

def body_from_points(points: Iterable[Sequence[int]]) -> Body:
    """Canonical possibly-degenerate hull: extreme points only, sorted.

    The differences from the first point have full rank on some of the
    coordinates (:func:`qbary.linalg.independent_rows` of the transposed
    differences).  The affine hull projects one to one onto those, and an
    affine bijection keeps extreme points, so the vertices are the points
    whose projections are vertices of the projected hull.
    """
    pts = sorted(set(int_rows(points)))
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise InvalidInput("points of mixed dimension")
    check_dim(dim)
    if len(pts) == 1:
        return Body(dim, (pts[0],))
    axes = independent_rows(zip(*(vec_sub(p, pts[0]) for p in pts[1:])))
    projected = {tuple(p[i] for i in axes): p for p in pts}
    return Body(dim, tuple(sorted(projected[v] for v in convex_hull(list(projected)).vertices)))


def check_polytopes(*objs: object) -> None:
    """Refuse any argument that is not a :class:`Polytope`, naming its type."""
    for obj in objs:
        if not isinstance(obj, Polytope):
            raise InvalidInput(f"expected a Polytope, got {type(obj).__name__}")


def dilate(p: Polytope, factor: int) -> Polytope:
    """Integer dilation ``factor * P`` for ``factor >= 1`` (:func:`_affine`)."""
    check_polytopes(p)
    if int_value(factor, "dilation factor") < 1:
        raise InvalidInput("dilation factor must be positive")
    return p if factor == 1 else _affine(p, factor, (0,) * p.dim)


def translate(p: Polytope, shift: Sequence[int]) -> Polytope:
    """Lattice translate ``P + shift`` (:func:`_affine`)."""
    check_polytopes(p)
    shift = int_list(shift)
    if len(shift) != p.dim:
        raise InvalidInput(f"shift has length {len(shift)}, expected {p.dim}")
    return _affine(p, 1, shift)


def _affine(p: Polytope, scale: int, shift: IntVec) -> Polytope:
    """The image ``scale * P + shift`` for ``scale >= 1``, with no hull: each
    vertex v goes to ``scale * v + shift``, and each facet keeps its normal u
    and its vertices, with offset ``scale * b - <u, shift>``."""
    image = [tuple(scale * x + t for x, t in zip(v, shift)) for v in p.vertices]
    return _from_faces(
        p.dim,
        ((Halfspace(f.normal, scale * f.offset - dot(f.normal, shift)), [image[i] for i in ids]) for f, ids in zip(p.facets, p.incidence)),
    )


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    """Minkowski sum of two polytopes of one dimension, the hull of the sums
    of their vertices."""
    check_polytopes(a, b)
    if a.dim != b.dim:
        raise InvalidInput(f"ambient dimensions differ: {a.dim} vs {b.dim}")
    return hull_from_vertices({vec_add(u, v) for u in a.vertices for v in b.vertices})


# ---------------------------------------------------------------------------
# measures

def measure(p: Polytope) -> MeasureData:
    """Exact Euclidean volume and barycenter, ``W / n!`` and ``M / ((n+1) W)``
    (:class:`_FaceWalk`)."""
    n, walk = p.dim, _measures(p)
    return MeasureData(Fraction(walk.volume, factorial(n)), tuple(Fraction(m, (n + 1) * walk.volume) for m in walk.moment))


def facet_data(p: Polytope) -> FacetData:
    """Lattice-normalized facet measures, barycenters, and their aggregates:
    ``W_F / (n-1)!`` and ``M_F / (n W_F)`` of each facet, and the boundary's
    (:func:`_boundary`)."""
    n, walk, unit = p.dim, _measures(p), factorial(p.dim - 1)
    facets = zip(p.facets, walk.weighed)
    return FacetData(
        tuple(FacetMeasure(f.normal, f.offset, Fraction(w, unit), tuple(Fraction(m, n * w) for m in moment)) for f, (w, moment) in facets),
        *_boundary(p),
    )


def _boundary(p: Polytope) -> tuple[Fraction, Vector]:
    """The boundary's lattice-normalized volume and barycenter, ``B / (n-1)!``
    and ``BM / (n B)`` (:class:`_FaceWalk`), with no facet's own."""
    n, walk = p.dim, _measures(p)
    return Fraction(walk.boundary, factorial(n - 1)), tuple(Fraction(m, n * walk.boundary) for m in walk.boundary_moment)


Split = tuple[tuple[tuple[int, ...], Polytope, tuple[int, ...]], ...]


def _split(p: Polytope) -> Split:
    """For P of dimension 4 or more with two or more coordinate blocks, one
    ``(block, factor, facets)`` per block, by least axis; otherwise ``()``,
    as one walk of P, and one scan, cost no more below dimension 4.

    The blocks are the connected components of the axes, two axes joined
    when a facet normal involves both, so P is the product of its
    projections onto them.  A factor is written from P with no hull: its
    facets are P's facets on its block, at the increasing indices
    ``facets``, restricted to it, and each holds the projections of the
    vertices of P's facet.
    """
    if p.dim < 4:
        return ()
    label = list(range(p.dim))  # the least axis of each axis's block so far
    for f in p.facets:
        joined = {label[i] for i, x in enumerate(f.normal) if x}
        if len(joined) > 1:
            least = min(joined)
            label = [least if a in joined else a for a in label]
    on: dict[int, list[int]] = {a: [] for a in sorted(set(label))}
    if len(on) < 2:
        return ()
    for k, f in enumerate(p.facets):
        on[label[next(i for i, x in enumerate(f.normal) if x)]].append(k)
    columns = list(zip(*p.vertices))
    split = []
    for a, facets in on.items():
        block = tuple(i for i, b in enumerate(label) if b == a)
        projected = list(zip(*[columns[i] for i in block]))
        # P's facets on one block are sorted by their normals on it, so the
        # factor's facets come in P's order, that of ``facets``
        factor = _from_faces(
            len(block),
            ((Halfspace(tuple([p.facets[k].normal[i] for i in block]), p.facets[k].offset), [projected[j] for j in p.incidence[k]]) for k in facets),
        )
        split.append((block, factor, tuple(facets)))
    return tuple(split)


def _product_face(blocks: list[tuple[int, ...]], faces: list[tuple[int, int, list[int]]]) -> tuple[int, list[int]]:
    """``W`` and ``M`` (:func:`qbary.hull.face_moments`) of a product of
    faces ``(dimension e_c, W_c, M_c)``, face c on the axes ``blocks[c]``.

    A fundamental cell of the product's sublattice is the product of the
    faces' cells, so ``nvol`` multiplies and ``W = (e; e_1..e_m) prod W_c``
    with the multinomial of ``e = sum e_c``.  The barycenter is the faces'
    barycenters side by side, so on block c ``M = (e+1) W M_c / ((e_c+1)
    W_c)``, which is ``(e+1; .., e_c+1, ..)`` times ``M_c`` and the other
    faces' ``W``: an exact integer quotient.
    """
    dims = [e for e, _, _ in faces]
    top = sum(dims)
    weight = factorial(top) // prod(map(factorial, dims)) * prod(w for _, w, _ in faces)
    moment = [0] * sum(map(len, blocks))
    for block, (e, w, face_moment) in zip(blocks, faces):
        scale = (top + 1) * weight // ((e + 1) * w)
        for i, m in zip(block, face_moment):
            moment[i] = scale * m
    return weight, moment


def _product_moments(split: Split) -> tuple[int, list[int], list[tuple[int, list[int]]]]:
    """:func:`qbary.hull.face_moments` of the product ``split``
    (:func:`_split`), from each factor's own :func:`_measures`.

    A facet of P on a block is that factor's facet times the other factors.
    """
    blocks = [block for block, _, _ in split]
    walks = [_measures(factor) for _, factor, _ in split]
    whole = [(factor.dim, walk.volume, walk.moment) for (_, factor, _), walk in zip(split, walks)]
    volume, moment = _product_face(blocks, whole)
    weighed: list = [None] * sum(len(facets) for _, _, facets in split)
    for b, ((_, _, facets), walk) in enumerate(zip(split, walks)):
        for k, (total, facet_moment) in zip(facets, walk.weighed):
            weighed[k] = _product_face(blocks, whole[:b] + [(whole[b][0] - 1, total, facet_moment)] + whole[b + 1 :])
    return volume, moment, weighed


class _FaceWalk(NamedTuple):
    volume: int
    moment: list[int]
    weighed: list[tuple[int, list[int]]]
    boundary: int
    boundary_moment: list[int]
    split: Split


@lru_cache(maxsize=None)
def _measures(p: Polytope) -> _FaceWalk:
    """P's integers from one walk, :func:`qbary.hull.face_moments`, or when
    P splits into factors (:func:`_split`) from each factor's own record
    (:func:`_product_moments`), with n = dim P: ``volume``, ``W = n!
    vol(P)``; ``moment``, ``M = (n+1) W bc(P)``; ``weighed``, ``(W_F, M_F)``
    for each facet F, ``W_F = (n-1)! nvol(F)`` and ``M_F = n W_F bc(F)``;
    ``boundary``, ``B = sum_F W_F``; ``boundary_moment``, ``BM = sum_F
    M_F``; and the split.  Fractions are built from them only for a caller
    (see the module docstring).

    They are checked before they are kept: Minkowski's relation ``sum_F
    W_F u_F = 0`` and the divergence theorem ``sum_F M_F[i] u_F[j] =
    -delta_ij W``, with ``W`` summed from the facet weights of the pyramids
    from vertex 0, not from the facet moments.  A factor's integers pass
    them in its own record first; P's hold only if each factor's do, since
    a facet's integers are its factor's scaled by the other factors'
    volumes, and they fail on a facet matched to another factor facet or a
    wrong multinomial.
    """
    n = p.dim
    normals = [f.normal for f in p.facets]
    split = _split(p)
    volume, moment, weighed = _product_moments(split) if split else face_moments(p)
    closed = all(sum(total * u[j] for (total, _), u in zip(weighed, normals)) == 0 for j in range(n))
    ensure("polytope.minkowski_relation", closed, "facet measures violate Minkowski's relation")
    for i in range(n):
        for j in range(n):
            flux = sum(facet_moment[i] * u[j] for (_, facet_moment), u in zip(weighed, normals))
            agree = flux == (-volume if i == j else 0)
            ensure("polytope.divergence_theorem", agree, "facet barycenters violate the divergence theorem")
    boundary = sum(total for total, _ in weighed)
    boundary_moment = [sum(column) for column in zip(*(facet_moment for _, facet_moment in weighed))]
    return _FaceWalk(volume, moment, weighed, boundary, boundary_moment, split)


def check_direction(direction: Sequence[int], dim: int) -> None:
    """A direction vector must have one coordinate per ambient axis."""
    if len(direction) != dim:
        raise InvalidInput(f"direction has length {len(direction)}, expected {dim}")


def support_value(p: Polytope, direction: Sequence[int]) -> int:
    """Support value ``min_{u in P} <u, direction>`` (attained at a vertex)."""
    direction = int_list(direction)
    check_direction(direction, p.dim)
    return min(dot(v, direction) for v in p.vertices)


# ---------------------------------------------------------------------------
# classification

def vertex_cones(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the increasing indices of the facets through it.

    Their normals span the vertex's cone of the normal fan.
    """
    cones: list[list[int]] = [[] for _ in p.vertices]
    for k, ids in enumerate(p.incidence):
        for i in ids:
            cones[i].append(k)
    return tuple(tuple(c) for c in cones)


@lru_cache(maxsize=None)
def classify(p: Polytope) -> Classification:
    """Reflexive and Delzant flags.

    Reflexive: the origin is interior and every facet offset is 1.  Delzant:
    dim > 1 and every vertex lies on exactly dim facets whose normals form a
    basis of the lattice (determinant +-1).  At such a vertex the primitive
    edge directions are the dual basis, so this is the same as asking for
    dim edges whose primitive directions form a lattice basis.
    """
    reflexive = all(f.offset == 1 for f in p.facets) and p.strictly_contains((0,) * p.dim)
    delzant = p.dim > 1 and all(
        len(cone) == p.dim and abs(int_det([p.facets[k].normal for k in cone])) == 1
        for cone in vertex_cones(p)
    )
    return Classification(reflexive, delzant)


# ---------------------------------------------------------------------------
# JSON documents

def polytope_from_document(doc: dict) -> tuple[Polytope, str | None]:
    """Build a polytope from a JSON document.

    The document carries ``vertices`` and/or ``normals``+``offsets``; when
    both representations are present they must describe the same polytope.
    """
    if not isinstance(doc, dict):
        raise InvalidInput("polytope document must be a JSON object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInput("polytope name must be a string")
    has_v = "vertices" in doc
    has_h = "normals" in doc or "offsets" in doc
    if has_h and ("normals" not in doc or "offsets" not in doc):
        raise InvalidInput("half-space form needs both normals and offsets")
    if not has_v and not has_h:
        raise InvalidInput("document has neither vertices nor normals/offsets")
    from_v = hull_from_vertices(doc["vertices"]) if has_v else None
    from_h = polytope_from_halfspaces(doc["normals"], doc["offsets"]) if has_h else None
    if from_v and from_h and from_v != from_h:
        raise InvalidInput("vertex and half-space representations disagree")
    return (from_v or from_h), name


def polytope_to_document(p: Polytope, name: str | None = None) -> dict:
    doc: dict = {}
    if name:
        doc["name"] = name
    doc["vertices"] = [list(v) for v in p.vertices]
    doc["normals"] = [list(f.normal) for f in p.facets]
    doc["offsets"] = [f.offset for f in p.facets]
    return doc
