"""Virtual polytopes, mixed volumes, divisor polytopes, and the
Bernoulli-number coefficient formulas available for Delzant data.

A virtual polytope is a formal integer combination of (possibly degenerate)
lattice bodies; two combinations are identified when moving all negative
terms to the other side yields equal Minkowski sums (the Grothendieck
cancellation law).  Mixed volumes extend multilinearly to such combinations;
``mixed_volume`` evaluates them on arbitrary bodies by inclusion-exclusion
over Minkowski sums of sub-multisets, with lower-dimensional sums
contributing volume zero.

For Delzant data the counting polynomial's coefficients have a closed form:

    a_j = sum over (l_1..l_d), sum l_i = n - j, of
          n! B(l_1)..B(l_d) / (j! l_1!..l_d!) * V(P, j; D_1, l_1; ..; D_d, l_d)

with B the Bernoulli numbers normalized by B_1 = +1/2 and D_i the virtual
polytope of the i-th facet divisor.  Every polytope here has the form
``P(h) = {x : <u_i, x> >= -h_i}`` on the normal fan of P, and these mixed
volumes come from that fan alone (:class:`DelzantFan`): each vertex cone is
spanned by a lattice basis of rays, one generic integer vector c has
integer coordinates gamma in each basis, and Lawrence's formula

    vol P(h) = (1/n!) sum_cones (sum_i gamma_i h_i)^n / prod_i gamma_i

is a polynomial in h whose polarization is the mixed volume of the virtual
polytopes P(h_1), .., P(h_n) (Khovanskii-Pukhlikov).  ``hrr_coefficients``
evaluates the formula and insists it reproduce the fitted counting
polynomial exactly.  The analogous degree-(n+1) formula on the rooftop fan
gives the numerator coefficients of ``<Bc_k, v>``; ``rooftop_coefficients``
reads those off the coordinate-sum polynomials of ``barycenter_function``,
counts the actual rooftop at k = 1 and 2 against them, and cross-checks
the fan formula whenever the rooftop is itself Delzant.  ``mixed_volume``
and ``divisor_polytope`` remain the independent inclusion-exclusion route,
used on arbitrary bodies and as the test oracle for the fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Sequence

from .ehrhart import count_points, ehrhart_polynomial
from .errors import (
    AmplenessShiftFailure,
    InternalInconsistency,
    InvalidInput,
    PreconditionViolation,
)
from .exactnum import Polynomial, bernoulli
from .expansion import barycenter_function, rooftop
from .hull import volume_and_barycenter
from .lattice import primitive
from .linalg import IntVec, dot, identity, int_det, rank, solve, vec_add, vec_sub
from .polytope import (
    Body,
    Halfspace,
    Polytope,
    as_body,
    body_from_points,
    classify,
    dilate,
    facet_data,
    measure,
    polytope_from_halfspaces,
    support_value,
)


@dataclass(frozen=True)
class VirtualPolytope:
    """Formal integer combination of lattice bodies in a common dimension."""

    dim: int
    terms: tuple[tuple[int, Body], ...]

    @staticmethod
    def of(obj: "Polytope | Body | VirtualPolytope") -> "VirtualPolytope":
        if isinstance(obj, VirtualPolytope):
            return obj
        b = as_body(obj)
        return VirtualPolytope(b.dim, ((1, b),))

    @staticmethod
    def combine(parts: Iterable[tuple[int, "Polytope | Body"]], dim: int) -> "VirtualPolytope":
        acc: dict[Body, int] = {}
        for coeff, obj in parts:
            b = as_body(obj)
            if b.dim != dim:
                raise InvalidInput("virtual terms of mixed ambient dimension")
            acc[b] = acc.get(b, 0) + coeff
        terms = tuple(
            (c, b) for b, c in sorted(acc.items(), key=lambda kv: kv[0].vertices) if c != 0
        )
        return VirtualPolytope(dim, terms)

    def __add__(self, other: "VirtualPolytope") -> "VirtualPolytope":
        if self.dim != other.dim:
            raise InvalidInput("virtual sum across dimensions")
        return VirtualPolytope.combine(self.terms + other.terms, self.dim)

    def scale(self, factor: int) -> "VirtualPolytope":
        return VirtualPolytope.combine(
            tuple((factor * c, b) for c, b in self.terms), self.dim
        )

    def __sub__(self, other: "VirtualPolytope") -> "VirtualPolytope":
        return self + other.scale(-1)

    def equivalent(self, other: "VirtualPolytope") -> bool:
        """Grothendieck relation: equality after clearing negative terms."""
        if self.dim != other.dim:
            return False
        left: list[Body] = []
        right: list[Body] = []
        for c, b in self.terms:
            (left if c > 0 else right).extend([b] * abs(c))
        for c, b in other.terms:
            (right if c > 0 else left).extend([b] * abs(c))
        return _sum_bodies(tuple(left), self.dim) == _sum_bodies(tuple(right), self.dim)


def _sum_bodies(bodies: tuple[Body, ...], dim: int) -> Body:
    total = Body(dim, ((0,) * dim,))
    for b in sorted(bodies, key=lambda x: x.vertices):
        pts = {vec_add(u, v) for u in total.vertices for v in b.vertices}
        total = body_from_points(pts)
    return total


@lru_cache(maxsize=None)
def _volume_of_sum(bodies: tuple[Body, ...]) -> Fraction:
    dim = bodies[0].dim
    total = _sum_bodies(bodies, dim)
    origin = total.vertices[0]
    if rank([vec_sub(p, origin) for p in total.vertices]) < dim:
        return Fraction(0)
    return volume_and_barycenter(total.vertices)[0]


@lru_cache(maxsize=None)
def _mixed_volume_bodies(items: tuple[tuple[Body, int], ...]) -> Fraction:
    """n! V(K_1, m_1; ..; K_r, m_r) by inclusion-exclusion, divided by n!.

    Uses dilations for repeated summands: choosing s_i copies of K_i
    contributes ``C(m_i, s_i)`` subsets whose Minkowski sum is ``s_i K_i``.
    """
    n = sum(m for _, m in items)
    total = Fraction(0)
    choices = [range(m + 1) for _, m in items]

    def rec(idx: int, chosen: list[int]) -> None:
        nonlocal total
        if idx == len(items):
            s = sum(chosen)
            if s == 0:
                return
            parts = tuple(
                as_body(dilate(body, c))
                for (body, _), c in zip(items, chosen)
                if c > 0
            )
            weight = 1
            for (_, m), c in zip(items, chosen):
                weight *= comb(m, c)
            total += (-1) ** (n - s) * weight * _volume_of_sum(tuple(sorted(parts, key=lambda b: b.vertices)))
            return
        for c in choices[idx]:
            rec(idx + 1, chosen + [c])

    rec(0, [])
    return total / factorial(n)


def mixed_volume(args: Sequence[tuple["VirtualPolytope | Polytope | Body", int]]) -> Fraction:
    """Mixed volume of virtual polytopes with multiplicities summing to dim.

    Normalized so that ``V(P, dim) = Vol(P)``; multilinear in each slot.
    """
    if not args:
        raise InvalidInput("mixed volume needs at least one argument")
    virtuals = [(VirtualPolytope.of(v), int(m)) for v, m in args]
    dim = virtuals[0][0].dim
    if any(v.dim != dim for v, _ in virtuals):
        raise InvalidInput("mixed volume across ambient dimensions")
    if any(m < 1 for _, m in virtuals):
        raise InvalidInput("multiplicities must be positive")
    if sum(m for _, m in virtuals) != dim:
        raise InvalidInput(f"multiplicities must sum to the dimension {dim}")

    total = Fraction(0)

    def rec(idx: int, acc_coeff: int, acc: dict[Body, int]) -> None:
        nonlocal total
        if idx == len(virtuals):
            items = tuple(sorted(acc.items(), key=lambda kv: kv[0].vertices))
            total += acc_coeff * _mixed_volume_bodies(items)
            return
        vp, mult = virtuals[idx]
        if not vp.terms:
            return  # the zero virtual polytope kills the product
        for assignment, weight in _term_assignments(vp.terms, mult):
            nxt = dict(acc)
            for b, m in assignment.items():
                nxt[b] = nxt.get(b, 0) + m
            rec(idx + 1, acc_coeff * weight, nxt)

    rec(0, 1, {})
    return total


def _term_assignments(terms: tuple[tuple[int, Body], ...], mult: int):
    """All ways to distribute ``mult`` identical slots over the terms.

    Yields ``(body -> multiplicity, weight)`` where the weight is the
    multinomial count times the product of term coefficients.
    """
    out: list[tuple[dict[Body, int], int]] = []

    def rec(idx: int, remaining: int, weight: int, chosen: dict[Body, int]) -> None:
        if idx == len(terms) - 1:
            c, b = terms[idx]
            w = weight * c**remaining
            if remaining:
                chosen = {**chosen, b: chosen.get(b, 0) + remaining}
            out.append((chosen, w))
            return
        c, b = terms[idx]
        for take in range(remaining + 1):
            w = weight * comb(remaining, take) * c**take
            nxt = {**chosen, b: chosen.get(b, 0) + take} if take else chosen
            rec(idx + 1, remaining - take, w, nxt)

    rec(0, mult, 1, {})
    return out


# ---------------------------------------------------------------------------
# toric data

@dataclass(frozen=True)
class ToricData:
    """Irredundant ray/offset data and its polytope, with smoothness flags."""

    rays: tuple[IntVec, ...]
    offsets: tuple[int, ...]
    polytope: Polytope
    reflexive: bool
    delzant: bool


def toric_data(rays: Sequence[Sequence[int]], offsets: Sequence[int]) -> ToricData:
    prims = tuple(primitive(tuple(int(x) for x in r)) for r in rays)
    offs = tuple(int(b) for b in offsets)
    if len(set(prims)) != len(prims):
        raise InvalidInput("duplicate rays")
    p = polytope_from_halfspaces(prims, offs)
    expected = {Halfspace(r, b) for r, b in zip(prims, offs)}
    if set(p.facets) != expected:
        raise InvalidInput("ray data contains redundant or non-facet inequalities")
    cls = classify(p)
    return ToricData(prims, offs, p, cls.reflexive, cls.delzant)


def toric_from_polytope(p: Polytope) -> ToricData:
    cls = classify(p)
    return ToricData(
        tuple(f.normal for f in p.facets),
        tuple(f.offset for f in p.facets),
        p,
        cls.reflexive,
        cls.delzant,
    )


@dataclass(frozen=True)
class RooftopFan:
    """Ray data of the one-dimension-up fan attached to a direction vector."""

    rays: tuple[IntVec, ...]
    q: int


def rooftop_fan(t: ToricData, direction: Sequence[int]) -> RooftopFan:
    """Rays ``(v_i, 0), (0,..,0,1), (direction, -1)`` with the canonical
    offset ``q = 1 - support_value(P, direction)``."""
    v = tuple(int(x) for x in direction)
    rays = tuple(r + (0,) for r in t.rays)
    rays += ((0,) * t.polytope.dim + (1,), v + (-1,))
    return RooftopFan(rays, 1 - support_value(t.polytope, v))


# ---------------------------------------------------------------------------
# divisor polytopes

AMPLE_SHIFT_CAP = 16


def _exact_facet_polytope(rays: tuple[IntVec, ...], offsets: Sequence[int]) -> Polytope | None:
    """The polytope of the given data when every inequality is a facet with
    exactly the given offset; None otherwise."""
    try:
        p = polytope_from_halfspaces(rays, offsets)
    except InvalidInput:
        return None
    if set(p.facets) == {Halfspace(r, int(b)) for r, b in zip(rays, offsets)}:
        return p
    return None


@lru_cache(maxsize=None)
def divisor_polytope(t: ToricData, coeffs: tuple[int, ...]) -> VirtualPolytope:
    """Virtual polytope of the divisor with the given ray coefficients.

    When the data (rays, coeffs) defines a polytope whose facets are exactly
    the rays the divisor is ample and the polytope itself is returned as a
    single term.  Otherwise the minimal shift ``m >= 1`` making
    (rays, m*offsets + coeffs) pass that test represents the divisor as the
    formal difference of two ample polytopes.  The zero divisor is the
    origin (the Minkowski-neutral body).
    """
    if not t.delzant:
        raise PreconditionViolation("divisor polytopes require Delzant data")
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != len(t.rays):
        raise InvalidInput("one coefficient per ray required")
    dim = t.polytope.dim
    if all(c == 0 for c in coeffs):
        return VirtualPolytope(dim, ((1, Body(dim, ((0,) * dim,))),))
    direct = _exact_facet_polytope(t.rays, coeffs)
    if direct is not None:
        return VirtualPolytope.of(direct)
    for m in range(1, AMPLE_SHIFT_CAP + 1):
        shifted = _exact_facet_polytope(
            t.rays, tuple(m * b + c for b, c in zip(t.offsets, coeffs))
        )
        if shifted is None:
            continue
        base = _exact_facet_polytope(t.rays, tuple(m * b for b in t.offsets))
        if base is None:
            raise InternalInconsistency("dilation of the polarization lost a facet")
        return VirtualPolytope.combine(((1, shifted), (-1, base)), dim)
    raise AmplenessShiftFailure(
        f"no ample shift up to {AMPLE_SHIFT_CAP} represents the divisor"
    )


# ---------------------------------------------------------------------------
# the volume polynomial of a Delzant fan

@dataclass(frozen=True)
class DelzantFan:
    """Vertex cones of a Delzant polytope, each as its ray indices and the
    coordinates gamma of one generic integer vector c in that ray basis."""

    dim: int
    cones: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def mixed_volume(self, args: Sequence[tuple[Sequence[int], int]]) -> Fraction:
        """V(P(h_1), m_1; ..; P(h_r), m_r) for offset vectors h_k (one entry
        per ray) with multiplicities summing to ``dim``:

            (1/n!) sum_cones prod_k (sum_i gamma_i h_k,i)^m_k / prod_i gamma_i
        """
        total = Fraction(0)
        for cone, gamma in self.cones:
            num = 1
            for h, m in args:
                num *= sum(g * h[i] for i, g in zip(cone, gamma)) ** m
            total += Fraction(num, prod(gamma))
        return total / factorial(self.dim)


def delzant_fan(t: ToricData) -> DelzantFan:
    """The fan of ``t`` with c = (1, s, s^2, ..) for the smallest s >= 2 at
    which no coordinate gamma vanishes.

    A vertex lies on exactly dim facets whose rays form a lattice basis
    (asserted: |det| = 1), so the dual basis -- the primitive edge
    directions w_i at the vertex -- is integral and gamma_i = <c, w_i>.
    """
    if not t.delzant:
        raise PreconditionViolation("the fan volume polynomial requires Delzant data")
    p = t.polytope
    n = p.dim
    index = {r: i for i, r in enumerate(t.rays)}
    cones: list[list[int]] = [[] for _ in p.vertices]
    for f, verts in zip(p.facets, p.incidence):
        for v in verts:
            cones[v].append(index[f.normal])
    duals = []
    for cone in cones:
        cone.sort()
        rows = [t.rays[i] for i in cone]
        if len(cone) != n or abs(int_det(rows)) != 1:
            raise InternalInconsistency("a vertex cone of the Delzant fan is not unimodular")
        duals.append([tuple(int(x) for x in solve(rows, e)) for e in identity(n)])
    s = 2
    while True:
        c = tuple(s**k for k in range(n))
        gammas = [tuple(dot(c, w) for w in ws) for ws in duals]
        if all(all(g) for g in gammas):
            return DelzantFan(n, tuple(zip(map(tuple, cones), gammas)))
        s += 1


# ---------------------------------------------------------------------------
# coefficient formulas

def _compositions(total: int, slots: int):
    """Weak compositions of ``total`` skipping parts with a vanishing
    Bernoulli factor (odd parts >= 3)."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        if first >= 3 and first % 2 == 1:
            continue
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _bernoulli_coefficients(fan: DelzantFan, lead: Sequence[int], slots: int, js: range) -> tuple[Fraction, ...]:
    """For each j in ``js``, the sum over compositions (l_1..l_slots) of
    dim - j of ``dim! B(l_1)..B(l_slots) / (j! l_1!..l_slots!)`` times
    ``V(P(lead), j; D_1, l_1; ..; D_slots, l_slots)``, with D_i the unit
    divisor of ray i."""
    n = fan.dim
    unit = identity(len(lead))
    out = []
    for j in js:
        total = Fraction(0)
        for comp in _compositions(n - j, slots):
            bprod = Fraction(1)
            fact = factorial(j)
            for li in comp:
                bprod *= bernoulli(li)
                fact *= factorial(li)
            if bprod == 0:
                continue
            args = [(lead, j)] + [(unit[i], li) for i, li in enumerate(comp) if li > 0]
            total += Fraction(factorial(n)) * bprod / fact * fan.mixed_volume(args)
        out.append(total)
    return tuple(out)


def hrr_coefficients(t: ToricData) -> tuple[Fraction, ...]:
    """Counting-polynomial coefficients a_0..a_n from the Bernoulli/mixed-
    volume formula on the fan; asserted equal to the fitted counting
    polynomial, with the leading coefficient equal to the triangulated
    volume and the subleading one to half the facet-chart boundary volume."""
    if not t.delzant:
        raise PreconditionViolation("the coefficient formula requires Delzant data")
    p = t.polytope
    n = p.dim
    coeffs = _bernoulli_coefficients(delzant_fan(t), t.offsets, len(t.rays), range(n + 1))
    # checked before the fit: ehrhart_polynomial asserts both identities on
    # the fitted coefficients, so after a passing fit comparison they could
    # no longer fail
    if coeffs[n] != measure(p).volume:
        raise InternalInconsistency("leading coefficient is not the volume")
    if coeffs[n - 1] != facet_data(p).boundary_normalized_volume / 2:
        raise InternalInconsistency(
            "subleading coefficient is not half the boundary volume"
        )
    if Polynomial.of(coeffs) != ehrhart_polynomial(p).poly:
        raise InternalInconsistency(
            "Bernoulli/mixed-volume coefficients disagree with the counting fit"
        )
    return coeffs


@dataclass(frozen=True)
class RooftopCoefficients:
    """Numerator coefficients c'_1..c'_{n+1} of ``<Bc_k, v>`` over E(k)."""

    values: tuple[Fraction, ...]
    q: int
    formula_available: bool
    formula_values: tuple[Fraction, ...] | None


def rooftop_coefficients(t: ToricData, direction: Sequence[int]) -> RooftopCoefficients:
    """c'_j, the coefficients of the numerator of ``<Bc_k, v>`` over E(k).

    They are read off the coordinate-sum polynomials of
    ``barycenter_function``.  The rooftop at the canonical offset q is
    counted at k = 1 and 2 and must hold ``(q k + 1) E(k) + k <Q(k), v>``
    points.  When the rooftop is itself Delzant the degree-(n+1)
    Bernoulli/mixed-volume formula on its fan must give the same c'_j.
    """
    if not t.delzant:
        raise PreconditionViolation("rooftop coefficients require Delzant data")
    p = t.polytope
    v = tuple(int(x) for x in direction)
    fan = rooftop_fan(t, v)
    bf = barycenter_function(p)
    numerator = bf.pairing_numerator(v)
    values = tuple(numerator.coefficient(j) for j in range(p.dim + 1))
    roof = rooftop(p, v, fan.q)
    for k in (1, 2):
        if count_points(roof, k) != (fan.q * k + 1) * bf.denominator(k) + k * numerator(k):
            raise InternalInconsistency(
                f"rooftop count disagrees with the coordinate-sum polynomial at k={k}"
            )

    formula_values = None
    formula_available = classify(roof).delzant
    if formula_available:
        formula_values = _cprime_by_formula(t, fan, roof)
        if formula_values != values:
            raise InternalInconsistency(
                "mixed-volume rooftop coefficients disagree with counting"
            )
    return RooftopCoefficients(values, fan.q, formula_available, formula_values)


def _cprime_by_formula(t: ToricData, fan: RooftopFan, roof: Polytope) -> tuple[Fraction, ...]:
    tbar = toric_data(fan.rays, t.offsets + (0, fan.q))
    if tbar.polytope != roof:
        raise InternalInconsistency("rooftop fan data disagrees with the hull")
    # the rooftop minus q times its roof divisor, on the rooftop's own fan:
    # P's offsets, then 0 on the floor and q - q on the roof
    relative = t.offsets + (0, 0)
    return _bernoulli_coefficients(delzant_fan(tbar), relative, len(t.rays), range(1, t.polytope.dim + 2))
