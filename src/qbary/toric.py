"""Virtual polytopes, mixed volumes, divisor polytopes, and the
Bernoulli-number coefficient formulas available for Delzant data.

A virtual polytope (Khovanskii-Pukhlikov) is a formal integer combination
of lattice polytopes of one dimension, held as the record of its terms
(:class:`VirtualPolytope`).  Mixed volumes extend multilinearly to such
combinations, so ``mixed_volume`` is a sum over one product of the slots'
terms, a slot of multiplicity m counted as m slots.  Each multiset of
polytopes it picks is evaluated once, by inclusion-exclusion over
Minkowski sums of dilates, each a fold of
:func:`qbary.polytope.minkowski_sum` from its first summand.  Every sum is
full-dimensional, its volume read off the hull the fold made, and a sum of
one dilate builds no hull.  Nothing here is cached, as no measured
workload calls this layer.

For Delzant data the paper gives the counting polynomial's coefficients as

    a_j = sum over (l_1..l_d), sum l_i = n - j, of
          n! B(l_1)..B(l_d) / (j! l_1!..l_d!) * V(P, j; D_1, l_1; ..; D_d, l_d)

with B the Bernoulli numbers normalized by B_1 = +1/2 and D_i the virtual
polytope of the i-th facet divisor.  A :class:`ToricData` refuses at
construction half-spaces that are not exactly its polytope's facets, so
no entry point checks them again.  Every polytope here has the form
``P(h) = {x : <u_i, x> >= -h_i}`` on the normal fan of P (:class:`DelzantFan`,
read off :func:`qbary.polytope.vertex_cones`, as is the Delzant flag of
``classify``): each vertex cone is spanned by a lattice basis of rays,
whose dual basis is the primitive edge directions at the vertex, read off
the incidence, and one generic integer vector c has nonzero integer
coordinates gamma in each basis.  Lawrence's formula ``vol P(h) = (1/n!)
sum_cones (sum_i gamma_i h_i)^n / prod_i gamma_i`` makes the mixed volumes polarizations of one polynomial,
and grouping the composition sum by cones turns it into the
Khovanskii-Pukhlikov Todd operator on that polynomial:

    a_j = sum_cones L^j / (j! prod gamma) * [x^(n-j)] prod_{i in cone} Td(gamma_i x)

with ``L = sum_i gamma_i h_i`` and ``Td(x) = x / (1 - e^-x) = sum_l B(l)
x^l / l!``.  Both ``hrr_coefficients`` and the degree-(n+1) formula on the
rooftop fan in ``rooftop_coefficients`` (where only P's rays carry a Todd
factor) evaluate this, one truncated power series product per cone, in
integers: scaled by the lcm D of the denominators of B(l)/l!, each cone's
product has integer coefficients, and the cones are summed over one common
denominator.  The composition sum itself, with every mixed volume taken by
inclusion-exclusion of ``divisor_polytope``s, is what the test suite
checks the Todd evaluation against.

The checks that stay independent of the fan: ``hrr_coefficients`` must
reproduce the counts of the dilations k = 0..ceil((n+1)/2) that the fits
read, closed and interior, its
leading coefficient the volume and its subleading one half the boundary
measure, both read off the face lattice; the rooftop formula must
reproduce the coordinate-sum fits of ``barycenter_function``, and the actual
rooftop is counted at k = 1 and 2 against those.  ``mixed_volume`` and
``divisor_polytope`` remain the inclusion-exclusion route for arbitrary
polytopes.  A divisor that is not ample is the difference of two ample
polarizations on the fan, at the least shift that makes it ample, which
is read off the vertex cones: one linear margin per cone and inequality
(:func:`_ample_shift`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from typing import Iterable, NamedTuple, Sequence

from .ehrhart import fitted_dilations, lattice_point_stats
from .errors import InvalidInput, PreconditionViolation, ensure
from .exactnum import Immutable, Polynomial, bernoulli
from .expansion import barycenter_function, rooftop
from .hull import face_moments
from .lattice import primitive
from .linalg import IntVec, adjugate, dot, int_list, int_rows, int_value, vec_sub
from .polytope import (
    Polytope,
    _measures,
    check_dim,
    check_polytopes,
    classify,
    dilate,
    measure,
    minkowski_sum,
    polytope_from_halfspaces,
    support_value,
    vertex_cones,
)


class VirtualPolytope(Immutable):
    """Formal integer combination of lattice polytopes of dimension ``dim``,
    the pairs ``(coefficient, polytope)`` in ``terms``; no terms is zero.

    Construction refuses a dimension or a coefficient that is not an
    ``int``, a term that is not such a pair, a polytope of another
    dimension, and a dimension above the cap.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: tuple[tuple[int, Polytope], ...]) -> None:
        check_dim(int_value(dim, "dimension"))
        if not isinstance(terms, tuple) or not all(isinstance(t, tuple) and len(t) == 2 for t in terms):
            raise InvalidInput("virtual terms must be a tuple of pairs (coefficient, polytope)")
        for coeff, p in terms:
            int_value(coeff, "virtual coefficient")
            check_polytopes(p)
            if p.dim != dim:
                raise InvalidInput(f"a virtual term of dimension {p.dim}, expected {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)


def _volume_of_sum(polytopes: tuple[Polytope, ...]) -> Fraction:
    """Volume of the Minkowski sum of ``polytopes``, folded from the first."""
    total = reduce(minkowski_sum, polytopes)
    return Fraction(face_moments(total)[0], factorial(total.dim))


def _mixed_volume_polytopes(items: tuple[tuple[Polytope, int], ...]) -> Fraction:
    """n! V(K_1, m_1; ..; K_r, m_r) by inclusion-exclusion, divided by n!.

    Uses dilations for repeated summands: choosing s_i copies of K_i
    contributes ``C(m_i, s_i)`` subsets whose Minkowski sum is ``s_i K_i``.
    """
    n = sum(m for _, m in items)
    total = Fraction(0)
    for chosen in product(*(range(m + 1) for _, m in items)):
        if not any(chosen):
            continue
        parts = tuple(dilate(p, c) for (p, _), c in zip(items, chosen) if c)
        weight = prod(comb(m, c) for (_, m), c in zip(items, chosen))
        total += (-1) ** (n - sum(chosen)) * weight * _volume_of_sum(parts)
    return total / factorial(n)


def mixed_volume(args: Sequence[tuple["VirtualPolytope | Polytope", int]]) -> Fraction:
    """Mixed volume of polytopes and virtual polytopes with multiplicities
    summing to the dimension.

    Normalized so that ``V(P, dim) = Vol(P)``; multilinear in each slot.  A
    polytope P in a slot is the virtual polytope ``1 P``.  A slot of
    multiplicity m counts as m slots, and choosing one term in every slot
    contributes the product of the chosen coefficients times the mixed
    volume of the chosen polytopes; choices that pick the same polytopes
    equally often are grouped, so each multiset of polytopes is evaluated
    once.
    """
    if not isinstance(args, (list, tuple)) or not all(isinstance(a, (list, tuple)) and len(a) == 2 for a in args):
        raise InvalidInput("mixed volume arguments must be a list of pairs (body, multiplicity)")
    if not args:
        raise InvalidInput("mixed volume needs at least one argument")
    multiplicities = int_list(m for _, m in args)
    virtuals = []
    for (v, _), m in zip(args, multiplicities):
        if isinstance(v, Polytope):
            v = VirtualPolytope(v.dim, ((1, v),))
        elif not isinstance(v, VirtualPolytope):
            raise InvalidInput(f"expected a Polytope or a VirtualPolytope, got {type(v).__name__}")
        virtuals.append((v, m))
    dim = virtuals[0][0].dim
    if any(v.dim != dim for v, _ in virtuals):
        raise InvalidInput("mixed volume across ambient dimensions")
    if any(m < 1 for _, m in virtuals):
        raise InvalidInput("multiplicities must be positive")
    if sum(m for _, m in virtuals) != dim:
        raise InvalidInput(f"multiplicities must sum to the dimension {dim}")

    weights: Counter[tuple[tuple[Polytope, int], ...]] = Counter()
    for choice in product(*(v.terms for v, m in virtuals for _ in range(m))):
        polytopes = Counter(p for _, p in choice)
        weights[tuple(sorted(polytopes.items(), key=lambda kv: kv[0].vertices))] += prod(c for c, _ in choice)
    return sum((w * _mixed_volume_polytopes(items) for items, w in weights.items()), Fraction(0))


# ---------------------------------------------------------------------------
# toric data

class ToricData(Immutable):
    """Ray/offset data and its polytope; ``classify(polytope)`` says whether
    it is reflexive or Delzant.  The half-spaces ``<u, rays[i]> >=
    -offsets[i]``, in any order, must be the polytope's facets, each once,
    or construction raises ``PreconditionViolation``."""

    __slots__ = ("rays", "offsets", "polytope")

    def __init__(self, rays: tuple[IntVec, ...], offsets: tuple[int, ...], polytope: Polytope) -> None:
        facets = sorted((f.normal, f.offset) for f in polytope.facets)
        if len(rays) != len(offsets) or sorted(zip(rays, offsets)) != facets:
            raise PreconditionViolation("ray data contains redundant or non-facet inequalities")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "polytope", polytope)


def toric_data(
    rays: Iterable[Sequence[int]], offsets: Iterable[int], *, polytope: Polytope | None = None
) -> ToricData:
    """Ray data ``<u, r_i> >= -b_i``; a ray with content g is divided by g
    and so is its offset, which g must divide.

    A ``polytope`` already built from these half-spaces is used instead of
    building it again.  Either way :class:`ToricData` checks that its
    facets are exactly the given half-spaces.
    """
    rays, offs = int_rows(rays), int_list(offsets)
    if len(rays) != len(offs):
        raise InvalidInput("rays and offsets of different lengths")
    prims = tuple(primitive(r) for r in rays)
    contents = [gcd(*r) for r in rays]
    for r, b, g in zip(rays, offs, contents):
        if b % g:
            raise InvalidInput(f"offset {b} of ray {r} is not divisible by the ray's content {g}")
    offs = tuple(b // g for b, g in zip(offs, contents))
    return ToricData(prims, offs, polytope if polytope is not None else polytope_from_halfspaces(prims, offs))


def toric_from_polytope(p: Polytope) -> ToricData:
    return ToricData(tuple(f.normal for f in p.facets), tuple(f.offset for f in p.facets), p)


class RooftopFan(NamedTuple):
    """Ray data of the one-dimension-up fan attached to a direction vector."""

    rays: tuple[IntVec, ...]
    q: int


def rooftop_fan(t: ToricData, direction: Sequence[int]) -> RooftopFan:
    """Rays ``(v_i, 0), (0,..,0,1), (direction, -1)`` with the canonical
    offset ``q = 1 - support_value(P, direction)``."""
    v = tuple(int_list(direction))
    rays = tuple(r + (0,) for r in t.rays)
    rays += ((0,) * t.polytope.dim + (1,), v + (-1,))
    return RooftopFan(rays, 1 - support_value(t.polytope, v))


# ---------------------------------------------------------------------------
# divisor polytopes

def _ample_shift(t: ToricData, coeffs: Sequence[int]) -> int:
    """The least m >= 0 that makes ``h = m * t.offsets + coeffs`` ample on
    t's fan, which ``t`` must be Delzant for.

    h is ample iff at every vertex cone the point x where the cone's rays
    are tight, ``<u_i, x> = -h_i``, meets every other inequality strictly:
    ``<u_j, x> + h_j > 0``.  That margin is linear in h.  At t's own
    offsets x is the vertex and the margin is positive, as P is simple, so
    the margin at h is m times that plus the margin at ``coeffs``.
    """
    p = t.polytope
    index = {r: i for i, r in enumerate(t.rays)}
    least = 0
    for vertex, cone in zip(p.vertices, vertex_cones(p)):
        rows = [p.facets[k].normal for k in cone]
        d, adj = adjugate(rows)
        rhs = [-coeffs[index[r]] for r in rows]
        dx = [dot(row, rhs) for row in adj]  # d x, as R = d A^-1
        for f in p.facets:
            base = dot(vertex, f.normal) + f.offset  # zero on the cone's own rays only
            if base:
                least = max(least, -(dot(dx, f.normal) + d * coeffs[index[f.normal]]) // (d * base) + 1)
    return least


def _polarization(t: ToricData, offsets: tuple[int, ...]) -> Polytope:
    """The polytope of ``t.rays`` at ``offsets``, which :func:`_ample_shift`
    vouched for: every ray a facet at its offset, with the vertex cones of
    ``t.polytope``.  From dimension 3 on, the same facet normals allow a
    different normal fan (a flipped edge), so the cones are compared.  Any
    refusal or mismatch is an ``InternalInconsistency``."""
    refusal = None
    try:
        p = ToricData(t.rays, offsets, polytope_from_halfspaces(t.rays, offsets)).polytope
    except InvalidInput as exc:
        refusal = exc
    ensure("toric.polarization_accepted", refusal is None, "an ample polarization was refused: {}", refusal)
    # both facet lists are sorted by their normals, which are the same rays,
    # so facet indices name the same rays in both
    agree = set(vertex_cones(p)) == set(vertex_cones(t.polytope))
    ensure("toric.polarization_cones", agree, "an ample polarization has other vertex cones than its fan")
    return p


def divisor_polytope(t: ToricData, coeffs: tuple[int, ...]) -> VirtualPolytope:
    """Virtual polytope of the divisor with the given ray coefficients.

    An ample divisor is its polytope, a single term.  Otherwise the least
    shift ``m >= 1`` that makes ``m * offsets + coeffs`` ample
    (:func:`_ample_shift`) represents the divisor as the formal difference
    of two ample polytopes, those of ``m * offsets + coeffs`` and of ``m *
    offsets``.  The zero divisor is the virtual polytope with no terms.
    """
    if not classify(t.polytope).delzant:
        raise PreconditionViolation("divisor polytopes require Delzant data")
    coeffs = tuple(int_list(coeffs))
    if len(coeffs) != len(t.rays):
        raise InvalidInput("one coefficient per ray required")
    dim = t.polytope.dim
    if all(c == 0 for c in coeffs):
        return VirtualPolytope(dim, ())
    m = _ample_shift(t, coeffs)
    shifted = _polarization(t, tuple(m * b + c for b, c in zip(t.offsets, coeffs)))
    if m == 0:
        return VirtualPolytope(dim, ((1, shifted),))
    base = _polarization(t, tuple(m * b for b in t.offsets))
    return VirtualPolytope(dim, ((1, shifted), (-1, base)))


# ---------------------------------------------------------------------------
# the volume polynomial of a Delzant fan

class DelzantFan(NamedTuple):
    """Vertex cones of a Delzant polytope, each as its ray indices and the
    coordinates gamma of one generic integer vector c in that ray basis."""

    dim: int
    cones: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def delzant_fan(t: ToricData) -> DelzantFan:
    """The fan of ``t`` with c = (1, s, s^2, ..) for the smallest s >= 2 at
    which no coordinate gamma vanishes.

    A vertex lies on exactly dim facets whose rays r_i form a lattice basis
    (``classify``), so the dual basis w_j is integral and gamma_j = <c, w_j>.
    w_j is the primitive direction of the edge that leaves the vertex off
    facet j: the edge's other endpoint is the one other vertex on the
    cone's remaining dim - 1 facets, read off the incidence.  Every cone
    must then pair ``<r_i, w_j> = delta_ij``; an edge without exactly two
    vertices, or a pairing that fails, is an ``InternalInconsistency``.
    """
    p = t.polytope
    if not classify(p).delzant:
        raise PreconditionViolation("the fan volume polynomial requires Delzant data")
    n = p.dim
    index = {r: i for i, r in enumerate(t.rays)}
    on_facet = [sum(1 << i for i in ids) for ids in p.incidence]
    cones, duals = [], []
    for vi, facets in enumerate(vertex_cones(p)):
        facets = sorted(facets, key=lambda k: index[p.facets[k].normal])
        rows = [p.facets[k].normal for k in facets]
        ws = []
        for j in range(n):
            edge = -1
            for k in facets[:j] + facets[j + 1 :]:
                edge &= on_facet[k]
            ends = edge.bit_count() == 2 and (edge >> vi) & 1
            message = "the edge off facet {} at vertex {} does not have two vertices"
            ensure("toric.edge_has_two_vertices", ends, message, facets[j], vi)
            other = (edge ^ (1 << vi)).bit_length() - 1
            w = primitive(vec_sub(p.vertices[other], p.vertices[vi]))
            dual = all(dot(r, w) == (i == j) for i, r in enumerate(rows))
            ensure("toric.edges_dual_to_rays", dual, "the edge directions at vertex {} are not the dual basis of its rays", vi)
            ws.append(w)
        cones.append(tuple(index[r] for r in rows))
        duals.append(ws)
    s = 2
    while True:
        c = tuple(s**k for k in range(n))
        gammas = [tuple(dot(c, w) for w in ws) for ws in duals]
        if all(all(g) for g in gammas):
            return DelzantFan(n, tuple(zip(cones, gammas)))
        s += 1


# ---------------------------------------------------------------------------
# coefficient formulas

def _todd_coefficients(fan: DelzantFan, lead: Sequence[int], slots: int, js: range) -> tuple[Fraction, ...]:
    """For each j in ``js``, the sum over vertex cones of

        L^j / (j! prod gamma) * [x^(dim - j)] prod_{i in cone, i < slots} Td(gamma_i x)

    with ``L = sum_i gamma_i lead_i`` and ``Td(x) = sum_l B(l) x^l / l!``.

    In integers: ``D Td`` has integer coefficients for D the lcm of the
    denominators of B(l)/l!, l <= dim, so a cone with m Todd factors has an
    integer product series, and its terms are summed as numerators over the
    common denominator ``j! D^dim lcm(prod gamma)``."""
    n = fan.dim
    todd = [bernoulli(l) / factorial(l) for l in range(n + 1)]
    d = lcm(*(b.denominator for b in todd))
    todd = [b.numerator * (d // b.denominator) for b in todd]
    dens = [prod(gamma) for _, gamma in fan.cones]
    common = lcm(*dens)
    out = dict.fromkeys(js, 0)
    for (cone, gamma), den in zip(fan.cones, dens):
        series = [1] + [0] * n
        scale = common // den
        for i, g in zip(cone, gamma):
            if i < slots:
                factor = [b * g**l for l, b in enumerate(todd)]
                series = [sum(series[a] * factor[m - a] for a in range(m + 1)) for m in range(n + 1)]
            else:
                scale *= d  # keeps every cone over D^dim
        lin = sum(g * lead[i] for i, g in zip(cone, gamma))
        for j in js:
            out[j] += lin**j * series[n - j] * scale
    return tuple(Fraction(num, factorial(j) * d**n * common) for j, num in out.items())


def hrr_coefficients(t: ToricData) -> tuple[Fraction, ...]:
    """Counting-polynomial coefficients a_0..a_n from the Todd evaluation on
    the fan; the leading coefficient is asserted equal to the volume from
    the face walk, the subleading one to half the normalized boundary
    volume, and the polynomial to the counting records the fits read, at
    k = 0..m, m = ceil((n+1)/2)."""
    if not classify(t.polytope).delzant:
        raise PreconditionViolation("the coefficient formula requires Delzant data")
    p = t.polytope
    n = p.dim
    coeffs = _todd_coefficients(delzant_fan(t), t.offsets, len(t.rays), range(n + 1))
    ensure("toric.hrr_volume", coeffs[n] == measure(p).volume, "leading coefficient is not the volume")
    agree = coeffs[n - 1] == Fraction(_measures(p).boundary, 2 * factorial(n - 1))
    ensure("toric.hrr_boundary", agree, "subleading coefficient is not half the boundary volume")
    # the counting records themselves, not E's fit, so nothing is fitted:
    # the closed counts at k = 0..m and, by reciprocity, (-1)^n times the
    # interior counts at -k are 2m + 1 >= n + 1 values of a polynomial of
    # degree n
    poly = Polynomial.of(coeffs)
    for k in fitted_dilations(n):
        r = lattice_point_stats(p, k)
        agree = poly(k) == r.count and (not k or poly(-k) == (-1) ** n * r.interior)
        ensure("toric.hrr_counts", agree, "Bernoulli/mixed-volume coefficients disagree with the counts at k={}", k)
    return coeffs


class RooftopCoefficients(NamedTuple):
    """Numerator coefficients c'_1..c'_{n+1} of ``<Bc_k, v>`` over E(k)."""

    values: tuple[Fraction, ...]
    q: int
    formula_available: bool
    formula_values: tuple[Fraction, ...] | None


def rooftop_coefficients(t: ToricData, direction: Sequence[int]) -> RooftopCoefficients:
    """c'_j, the coefficients of the numerator of ``<Bc_k, v>`` over E(k).

    They are read off the coordinate-sum polynomials of
    ``barycenter_function``.  The rooftop at the canonical offset q must
    hold ``(q k + 1) E(k) + k <Q(k), v>`` points at k = 1 and 2 by its raw
    counting records, unfitted.  When it is itself Delzant the degree-(n+1)
    Todd evaluation on its fan must give the same c'_j.
    """
    if not classify(t.polytope).delzant:
        raise PreconditionViolation("rooftop coefficients require Delzant data")
    p = t.polytope
    v = tuple(int_list(direction))
    fan = rooftop_fan(t, v)
    bf = barycenter_function(p)
    numerator = bf.pairing_numerator(v)
    values = tuple(numerator.coefficient(j) for j in range(p.dim + 1))
    roof = rooftop(p, v, fan.q)
    for k in (1, 2):
        agree = lattice_point_stats(roof, k).count == (fan.q * k + 1) * bf.denominator(k) + k * numerator(k)
        ensure("toric.rooftop_counts", agree, "rooftop count disagrees with the coordinate-sum polynomial at k={}", k)

    formula_values = None
    formula_available = classify(roof).delzant
    if formula_available:
        formula_values = _cprime_by_formula(t, fan, roof)
        ensure("toric.rooftop_formula", formula_values == values, "mixed-volume rooftop coefficients disagree with counting")
    return RooftopCoefficients(values, fan.q, formula_available, formula_values)


def _cprime_by_formula(t: ToricData, fan: RooftopFan, roof: Polytope) -> tuple[Fraction, ...]:
    # the rooftop's own half-spaces in the fan's ray order; a fan that pairs
    # P's rays with the wrong offsets shows in the formula's values
    offsets = {f.normal: f.offset for f in roof.facets}
    tbar = ToricData(fan.rays, tuple(offsets[r] for r in fan.rays), roof)
    # the rooftop minus q times its roof divisor, on the rooftop's own fan:
    # P's offsets, then 0 on the floor and q - q on the roof
    relative = t.offsets + (0, 0)
    return _todd_coefficients(delzant_fan(tbar), relative, len(t.rays), range(1, t.polytope.dim + 2))
