"""Quantized barycenters, their exact rational-function form, and the full
asymptotic expansion in the dilation parameter.

The k-th quantized barycenter of a lattice polytope P is the average of the
lattice points of kP divided by k.  Coordinate i of the sequence equals
``Q_i(k) / E(k)`` where E is the counting polynomial of P and
``Q_i(k) = S_i(k) / k``, with S_i the coordinate-sum polynomial: the sum of
the i-th coordinates over the lattice points of kP, a polynomial of degree
at most dim P + 1 with ``S_i(0) = 0``, so the division by k is exact.  E
and every S_i are fitted once, together, and validated by
``ehrhart.ehrhart_data``.
The same polynomials give the rooftop polytope over P in direction v at
offset q, whose fibers over kP hold ``<u, v> + q k + 1`` lattice points
each: its count is ``(q k + 1) E(k) + k <Q(k), v>``, which
``toric.rooftop_coefficients`` checks against an actual count.

Laurent-expanding Q_i / E at infinity yields the expansion coefficients
a_0, a_1, ...; no common factor of Q_i and E is cancelled first, as the
expansion of a function does not depend on its presentation.  a_0 is the
barycenter and a_1 has the closed form
``(boundary_vol / (2 vol)) * (boundary_barycenter - barycenter)`` in terms of
the lattice-normalized boundary measure.  Both are asserted, but the fits
already hold the top two coefficients of E and each S_i to the same
face-walk integers, so these checks guard the steps from the fits to the
series: ``Polynomial.shift_down`` and ``laurent_expand``.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .ehrhart import checked_stats, ehrhart_data
from .errors import InsufficientSamples, InvalidInput, PreconditionViolation, Unsupported, ensure
from .exactnum import Immutable, Polynomial, Vector, laurent_expand, rational_vector
from .linalg import IntVec, dot, int_list, int_value
from .polytope import (
    Halfspace,
    Polytope,
    _from_faces,
    _measures,
    check_direction,
    classify,
    measure,
    support_value,
)


class QuantizedBarycenter(NamedTuple):
    k: int
    value: Vector


class BarycenterFunction(NamedTuple):
    """Per-coordinate rational functions Q_i / E of the barycenter sequence.

    ``numerators[i]`` has degree at most dim P and ``denominator`` is the
    counting polynomial of P; evaluation at any positive integer reproduces
    the enumerated quantized barycenter.
    """

    numerators: tuple[Polynomial, ...]
    denominator: Polynomial

    def pairing_numerator(self, direction: Sequence[int]) -> Polynomial:
        """Numerator polynomial of ``<Bc_k, direction>`` over the denominator."""
        direction = int_list(direction)
        check_direction(direction, len(self.numerators))
        den = lcm(*(num.denominator for num in self.numerators))
        total = [0] * max(len(num.numerators) for num in self.numerators)
        for c, num in zip(direction, self.numerators):
            scale = c * (den // num.denominator)
            for e, x in enumerate(num.numerators):
                total[e] += scale * x
        return Polynomial.over(total, den)

    def evaluate(self, k: int) -> Vector:
        den = self.denominator(k)
        if den == 0:
            raise InvalidInput(f"denominator vanishes at {k}")
        return tuple(num(k) / den for num in self.numerators)


class ExpansionCoefficients(Immutable):
    """Leading terms a_0, a_1, ... of the expansion of the barycenter sequence."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Vector, ...]) -> None:
        object.__setattr__(self, "terms", terms)

    def __getitem__(self, i: int) -> Vector:
        return self.terms[i]

    def __len__(self) -> int:
        return len(self.terms)


def _barycenter_numerators(p: Polytope, k: int) -> tuple[IntVec, int]:
    """``Bc_k`` as integer numerators over one positive denominator: the
    coordinate sums of the lattice points of ``k*P`` over k times their
    count, read once off :func:`ehrhart.checked_stats` and refused unless
    they lie in P."""
    if int_value(k, "dilation factor") < 1:
        raise InvalidInput("quantized barycenters need a positive dilation")
    stats = checked_stats(p, k)
    # the value is sums / scale: <value, normal> >= -offset, times scale
    scale = k * stats.count
    inside = all(dot(stats.sums, f.normal) >= -f.offset * scale for f in p.facets)
    ensure("expansion.barycenter_inside", inside, "quantized barycenter escaped the polytope")
    return stats.sums, scale


def quantized_barycenter(p: Polytope, k: int) -> QuantizedBarycenter:
    """Average of the lattice points of ``k*P``, divided by ``k``: the
    fractions of :func:`_barycenter_numerators`."""
    sums, scale = _barycenter_numerators(p, k)
    return QuantizedBarycenter(k, tuple(Fraction(s, scale) for s in sums))


def rooftop(p: Polytope, direction: Sequence[int], q: int) -> Polytope:
    """The lattice polytope ``{(u, h) : u in P, 0 <= h <= <u, direction> + q}``.

    Lives one dimension up; requires ``<u, direction> + q > 0`` on P, i.e.
    ``q`` strictly above the negated support value.  It is written from
    P's face lattice (:func:`qbary.hull._from_faces`), with no hull: the
    roof stays strictly above the floor, so every bottom copy ``(v, 0)``
    and top copy ``(v, <v, direction> + q)`` of a vertex is a vertex.  The
    facets are each facet of P lifted as ``(normal, 0)`` through both
    copies of its vertices, the floor ``(0, .., 0, 1)`` with offset 0
    through the bottom copies, and the roof ``(direction, -1)`` with offset
    q through the top copies.
    """
    d = tuple(int_list(direction))
    if int_value(q, "rooftop offset") + support_value(p, d) <= 0:
        raise PreconditionViolation(
            "rooftop offset too small: the roof must stay strictly above the floor"
        )
    bottom = [v + (0,) for v in p.vertices]
    top = [v + (dot(v, d) + q,) for v in p.vertices]
    faces = [
        (Halfspace(f.normal + (0,), f.offset), [bottom[j] for j in ids] + [top[j] for j in ids])
        for f, ids in zip(p.facets, p.incidence)
    ]
    faces.append((Halfspace((0,) * p.dim + (1,), 0), bottom))
    faces.append((Halfspace(d + (-1,), q), top))
    return _from_faces(p.dim + 1, faces)


def barycenter_function(p: Polytope) -> BarycenterFunction:
    """Exact rational-function form of the quantized barycenter sequence:
    ``Q_i = S_i / k`` over E, both read off :func:`ehrhart.ehrhart_data`."""
    counting, sums = ehrhart_data(p)
    return BarycenterFunction(tuple(s.shift_down() for s in sums), counting)


def _leading_terms(p: Polytope) -> tuple[list[int], int, list[int], int]:
    """a_0 and a_1 of the expansion as integer numerators, each over one
    positive denominator, in the integers of the face walk
    (:class:`qbary.polytope._FaceWalk`): the barycenter ``M_i / ((n+1) W)``,
    and ``((n+1) W BM_i - n B M_i) / (2 (n+1) W^2)``, which is
    ``(boundary_vol / (2 vol)) * (boundary_barycenter - barycenter)``."""
    n, (w, moment, _, b, boundary_moment, _) = p.dim, _measures(p)
    den = (n + 1) * w
    return moment, den, [den * bm - n * b * m for m, bm in zip(moment, boundary_moment)], 2 * den * w


def _equal_terms(values: Sequence[Fraction], numerators: Sequence[int], den: int) -> bool:
    """Whether each of ``values`` is its numerator over ``den``, compared by
    cross-multiplication."""
    return all(q.numerator * den == x * q.denominator for q, x in zip(values, numerators, strict=True))


def a1_closed_form(p: Polytope) -> Vector:
    """First-order coefficient from the boundary geometry:
    ``(boundary_vol / (2 vol)) * (boundary_barycenter - barycenter)``
    (:func:`_leading_terms`)."""
    _, _, a1, den = _leading_terms(p)
    return tuple(Fraction(x, den) for x in a1)


def asymptotic_coefficients(p: Polytope, order: int | None = None) -> ExpansionCoefficients:
    """Coefficients a_0..a_{order-1} of the barycenter expansion at infinity.

    Defaults to ``2 dim + 2`` terms.  a_0 is checked against the barycenter
    from the face walk and a_1 against its boundary-measure closed form.
    """
    if order is None:
        order = 2 * p.dim + 2
    if int_value(order, "expansion order") < 1:
        raise InvalidInput("expansion order must be at least 1")
    bf = barycenter_function(p)
    per_coord = [laurent_expand(num, bf.denominator, order) for num in bf.numerators]
    terms = tuple(
        tuple(series.coefficient(j) for series in per_coord) for j in range(order)
    )
    a0, a0_den, a1, a1_den = _leading_terms(p)
    ensure("expansion.a0", _equal_terms(terms[0], a0, a0_den), "a_0 differs from the barycenter")
    ensure("expansion.a1", order < 2 or _equal_terms(terms[1], a1, a1_den), "a_1 differs from its boundary closed form")
    return ExpansionCoefficients(terms)


def _reflexive_polygon_scale(p: Polytope, k: int) -> tuple[int, int]:
    """``(k+1)(2k+1)B`` and ``4 + 2k(k+1)B``, with ``B`` the normalized
    boundary length of the reflexive polygon P: the numerator and the
    denominator of ``Bc_k / Bc``, which also gives the del Pezzo threshold
    (:func:`qbary.stability.del_pezzo_closed_form`)."""
    b = _measures(p).boundary  # in dimension 2, B = sum_F 1! nvol(F)
    return (k + 1) * (2 * k + 1) * b, 4 + 2 * k * (k + 1) * b


def _check_reflexive_polygon(p: Polytope, k: int, value: Vector) -> None:
    """Refuse unless ``value``, ``Bc_k`` of the reflexive polygon P by
    enumeration, is the barycenter ``M / (3 W)`` scaled by
    :func:`_reflexive_polygon_scale`, compared by cross-multiplication."""
    num, den = _reflexive_polygon_scale(p, k)
    walk = _measures(p)
    agree = _equal_terms(value, [num * m for m in walk.moment], 3 * walk.volume * den)
    ensure("expansion.polygon_closed_form", agree, "polygon closed form disagrees with enumeration")


def reflexive_polygon_bck(p: Polytope, k: int) -> Vector:
    """Closed-form quantized barycenter of a reflexive polygon: the
    barycenter scaled by :func:`_reflexive_polygon_scale`.  Must agree with
    direct enumeration (:func:`_check_reflexive_polygon`)."""
    if p.dim != 2 or not classify(p).reflexive:
        raise Unsupported("closed form requires a reflexive polygon")
    if int_value(k, "dilation factor") < 1:
        raise InvalidInput("dilation must be positive")
    value = quantized_barycenter(p, k).value
    _check_reflexive_polygon(p, k, value)
    return value


class StabilizationVerdict(NamedTuple):
    stabilizes: bool
    value: Vector | None
    witness: tuple[int, int] | None


def stabilization_check(p: Polytope, ks: Sequence[int]) -> StabilizationVerdict:
    """Decide whether the barycenter sequence is constant.

    Agreement at dim+1 distinct dilations forces the sequence to be constant
    for every k (the numerator minus the constant multiple of the
    denominator is a degree-dim polynomial with dim+1 roots); that polynomial
    identity is verified, not assumed.  Disagreement is reported with a
    witnessing pair of dilations.
    """
    ks = list(dict.fromkeys(int_list(ks)))
    if any(k < 1 for k in ks):
        raise InvalidInput("dilations must be positive")
    if len(ks) <= p.dim:
        raise InsufficientSamples(
            f"need at least {p.dim + 1} distinct dilations, got {len(ks)}"
        )
    values = {k: quantized_barycenter(p, k).value for k in ks}
    first = values[ks[0]]
    for k in ks[1:]:
        if values[k] != first:
            return StabilizationVerdict(False, None, (ks[0], k))
    bf = barycenter_function(p)
    constant = all(num == bf.denominator * x for num, x in zip(bf.numerators, first))
    ensure("expansion.constant_rational_form", constant, "constant samples but a nonconstant rational form")
    ensure("expansion.constant_barycenter", first == measure(p).barycenter, "constant value differs from the barycenter")
    return StabilizationVerdict(True, first, None)


def colinearity_check(vectors: Sequence[Sequence[Fraction]]) -> bool:
    """True when all vectors are pairwise parallel through the origin
    (every 2x2 minor of every pair vanishes).  Each vector is an array of
    ints and ``Fraction``s; any other vector or entry is refused."""
    if isinstance(vectors, (str, dict)) or not isinstance(vectors, Iterable):
        raise InvalidInput("expected an array of vectors")
    vectors = [rational_vector(v, "vector") for v in vectors]
    if len(vectors) < 2:
        raise InvalidInput("need at least two vectors")
    if len({len(v) for v in vectors}) > 1:
        raise InvalidInput("vectors of different lengths")
    for a_idx in range(len(vectors)):
        for b_idx in range(a_idx + 1, len(vectors)):
            a, b = vectors[a_idx], vectors[b_idx]
            for i in range(len(a)):
                for j in range(i + 1, len(a)):
                    if a[i] * b[j] != a[j] * b[i]:
                        return False
    return True


def df_coefficients(p: Polytope, direction: Sequence[int], order: int) -> tuple[Fraction, ...]:
    """Donaldson-Futaki coefficients of the rooftop product configuration in
    the given direction: the Laurent coefficients of ``<Bc_k, direction>``.

    The zeroth and first coefficients are asserted against the pairings of
    the barycenter and of the first-order closed form.
    """
    if int_value(order, "expansion order") < 1:
        raise InvalidInput("order must be at least 1")
    direction = int_list(direction)
    bf = barycenter_function(p)
    series = laurent_expand(bf.pairing_numerator(direction), bf.denominator, order)
    a0, a0_den, a1, a1_den = _leading_terms(p)
    agree = _equal_terms(series.coefficients[:1], [dot(a0, direction)], a0_den)
    ensure("expansion.df0", agree, "DF_0 differs from the barycenter pairing")
    agree = order < 2 or _equal_terms(series.coefficients[1:2], [dot(a1, direction)], a1_den)
    ensure("expansion.df1", agree, "DF_1 differs from the first-order pairing")
    return series.coefficients
