"""Stability thresholds of polarized toric data.

For ray/offset data (v_i, b_i), which :class:`qbary.toric.ToricData`
holds only when they are exactly the facets of P, the k-th threshold is

    delta_k = min_i 1 / (<Bc_k(P), v_i> + b_i),

with the quantized barycenter Bc_k of P, and delta is the same
expression with the classical barycenter.  Since each coordinate of Bc_k is
a fixed rational function of k, delta_k agrees with a single facet's
rational function for all k past an effectively computable threshold k0:
the facet whose Laurent expansion dominates lexicographically wins, and k0
is found by exact sign analysis of the finitely many numerator differences.

The expansion of delta_k starts delta - (B/(2V)) max_{i in I} <bBc - Bc,
v_i> delta^2 / k + ... where B, bBc are the lattice-normalized boundary
volume and barycenter, V, Bc volume and barycenter, and I the facets
attaining delta; the Laurent coefficients of the dominant function are
asserted against that closed form.  The fits already hold the top two
coefficients of E and each S_i to the same face-walk integers, so this
guards ``laurent_expand`` and the choice of dominant facet: another facet
expands to another a_0, or to another a_1 among those attaining delta.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import InvalidInput, InvalidPolarization, Unsupported, ensure
from .exactnum import LaurentSeries, Polynomial, RationalFunction, laurent_expand
from .expansion import _barycenter_numerators, _reflexive_polygon_scale, a1_closed_form, barycenter_function, quantized_barycenter
from .linalg import adjugate, dot, int_list, int_value
from .polytope import _measures, check_direction, classify, support_value, vertex_cones
from .toric import ToricData


class DeltaValue(NamedTuple):
    k: int
    value: Fraction
    argmin: tuple[int, ...]


class DeltaSequence(NamedTuple):
    values: tuple[DeltaValue, ...]
    limit: Fraction
    limit_argmin: tuple[int, ...]
    dominant: RationalFunction
    dominant_rays: tuple[int, ...]
    k0: int
    asymptotics: LaurentSeries


def _top_pairing(t: ToricData, coords: Sequence[int], den: int) -> tuple[int, tuple[int, ...]]:
    """The greatest pairing ``<coords, v_i> + b_i den`` and the rays attaining
    it: the threshold of the point ``coords / den``, ``den > 0``, is ``den``
    over it, as each pairing is ``den`` times ``<point, v_i> + b_i``."""
    pairings = [dot(coords, ray) + b * den for ray, b in zip(t.rays, t.offsets)]
    if any(d <= 0 for d in pairings):
        raise InvalidPolarization(
            "a facet pairing is nonpositive; the data does not polarize"
        )
    top = max(pairings)
    return top, tuple(i for i, d in enumerate(pairings) if d == top)


def delta_k(t: ToricData, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """k-th threshold with the set of rays attaining it, from ``Bc_k``'s
    integer numerators (:func:`qbary.expansion._barycenter_numerators`)."""
    if int_value(k, "threshold index") < 1:
        raise InvalidInput("threshold index must be positive")
    sums, scale = _barycenter_numerators(t.polytope, k)
    top, argmin = _top_pairing(t, sums, scale)
    return Fraction(scale, top), argmin


def _barycenter_pairing(t: ToricData) -> tuple[int, int, tuple[int, ...]]:
    """``den`` and :func:`_top_pairing` of the barycenter ``M / den``, ``den =
    (n+1) W`` in the integers of P's face walk
    (:class:`qbary.polytope._FaceWalk`)."""
    n, walk = t.polytope.dim, _measures(t.polytope)
    den = (n + 1) * walk.volume
    return den, *_top_pairing(t, walk.moment, den)


def delta(t: ToricData) -> tuple[Fraction, tuple[int, ...]]:
    """Limit threshold from the classical barycenter."""
    den, top, argmin = _barycenter_pairing(t)
    return Fraction(den, top), argmin


def _facet_numerators(t: ToricData) -> tuple[list[Polynomial], Polynomial]:
    """Numerators of <Bc_k, v_i> + b_i over the counting polynomial."""
    bf = barycenter_function(t.polytope)
    den = bf.denominator
    nums = [bf.pairing_numerator(ray) + den * b for ray, b in zip(t.rays, t.offsets)]
    return nums, den


def _root_bound(poly: Polynomial) -> int:
    """Cauchy bound: all real roots have absolute value below the result."""
    return 2 + max(map(abs, poly.numerators)) // abs(poly.numerators[-1])


def delta_sequence(t: ToricData, ks: Sequence[int], order: int = 2) -> DeltaSequence:
    """Per-k thresholds, the dominant rational function with its validity
    threshold k0, and the asymptotic expansion.

    The dominant facet maximizes the Laurent expansion of its pairing
    lexicographically, which is read off the numerators over one common
    denominator, and exact ties are reported together.  k0 is one past the
    largest dilation at which any strictly smaller facet still ties or wins,
    located by scanning up to an exact root bound.
    """
    if int_value(order, "expansion order") < 2:
        raise InvalidInput("expansion order must be at least 2")
    ks = int_list(ks)
    nums, den = _facet_numerators(t)
    # Over one positive denominator, and with E's leading coefficient (the
    # volume) positive, the expansions of the pairings at infinity order
    # lexicographically as their numerators do from the top degree down.
    common = lcm(*(num.denominator for num in nums))
    width = max(len(num.numerators) for num in nums)
    keys = [
        (0,) * (width - len(num.numerators))
        + tuple(c * (common // num.denominator) for c in reversed(num.numerators))
        for num in nums
    ]
    best = max(range(len(nums)), key=keys.__getitem__)
    dominant_rays = tuple(i for i in range(len(nums)) if nums[i] == nums[best])

    # by the choice of best, its difference with any other facet has a
    # positive leading coefficient
    k0 = 1
    for i, num in enumerate(nums):
        if i in dominant_rays:
            continue
        diff = nums[best] - num
        for k in range(_root_bound(diff), 0, -1):
            if diff.numerator_at(k) <= 0:
                k0 = max(k0, k + 1)
                break

    dominant = RationalFunction.of(den, nums[best])
    asym = laurent_expand(den, nums[best], order)

    limit, limit_argmin = delta(t)
    ensure("stability.expansion_constant", asym.coefficient(0) == limit, "expansion constant term differs from delta")
    a1 = a1_closed_form(t.polytope)
    closed_a1 = -max(dot(a1, t.rays[i]) for i in limit_argmin) * limit * limit
    ensure("stability.expansion_first_order", asym.coefficient(1) == closed_a1, "first-order term differs from its closed form")

    values = tuple(DeltaValue(k, *delta_k(t, k)) for k in ks)
    return DeltaSequence(values, limit, limit_argmin, dominant, dominant_rays, k0, asym)


def _check_del_pezzo(t: ToricData, k: int, value: Fraction) -> None:
    """Refuse unless ``value``, delta_k of the smooth reflexive polygon P by
    enumeration, is ``1 / (1 + r (1/delta - 1))``, r = a/b the scale of
    :func:`qbary.expansion._reflexive_polygon_scale`.  With delta = D/T
    (:func:`_barycenter_pairing`) that is ``b D / (b D + a (T - D))``,
    compared by cross-multiplication."""
    a, b = _reflexive_polygon_scale(t.polytope, k)
    den, top, _ = _barycenter_pairing(t)
    agree = value.numerator * (b * den + a * (top - den)) == b * den * value.denominator
    ensure("stability.del_pezzo_closed_form", agree, "del Pezzo closed form disagrees with enumeration")


def del_pezzo_closed_form(t: ToricData, k: int) -> Fraction:
    """Threshold of a smooth reflexive polygon in closed form.

    With ``K = boundary normalized volume`` the value is
    ``1 / (1 + (k+1)(2k+1)K / (4 + 2k(k+1)K) * (1/delta - 1))``, the scale
    that of :func:`qbary.expansion._reflexive_polygon_scale`; asserted equal
    to the directly enumerated threshold (:func:`_check_del_pezzo`).
    """
    p = t.polytope
    cls = classify(p)
    if p.dim != 2 or not cls.reflexive or not cls.delzant:
        raise Unsupported("closed form requires a smooth reflexive polygon")
    if int_value(k, "threshold index") < 1:
        raise InvalidInput("threshold index must be positive")
    value = delta_k(t, k)[0]
    _check_del_pezzo(t, k, value)
    return value


def expected_vanishing_order(t: ToricData, direction: Sequence[int], k: int) -> Fraction:
    """``<Bc_k, direction> - psi(direction)`` with psi the support function."""
    v = tuple(int_list(direction))
    bc = quantized_barycenter(t.polytope, k).value
    return dot(bc, v) - support_value(t.polytope, v)


def log_discrepancy(t: ToricData, direction: Sequence[int]) -> Fraction:
    """Sum of the barycentric coordinates of the direction in a containing
    simplicial vertex cone of the normal fan; each ray has discrepancy 1.

    Vertex cones with more than dim rays are skipped; if no simplicial cone
    contains the direction the computation is unsupported.
    """
    p = t.polytope
    v = tuple(int_list(direction))
    n = p.dim
    check_direction(v, n)
    saw_nonsimplicial = False
    for cone in vertex_cones(p):
        if len(cone) != n:
            saw_nonsimplicial = True
            continue
        # a vertex on exactly n facets has independent normals; the
        # coordinates of v in them are R v / d
        d, adj = adjugate([[p.facets[k].normal[i] for k in cone] for i in range(n)])
        scaled = [dot(row, v) for row in adj]
        if all(x * d >= 0 for x in scaled):
            return Fraction(sum(scaled), d)
    detail = " (a non-simplicial vertex cone was skipped)" if saw_nonsimplicial else ""
    raise Unsupported(f"no simplicial vertex cone contains {v}{detail}")
