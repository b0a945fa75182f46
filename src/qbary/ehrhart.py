"""Lattice-point counting in dilations and Ehrhart polynomials.

Counting is one pass over the lattice points of ``k*P`` that yields the
closed count, the interior count and both coordinate sums together.  The
axis along which P's fibers are longest on average is scanned last and
never looped over.  A *row* fixes every coordinate but the last two; one
loop over its second-to-last coordinate y solves the closed and the
interior fiber above each y from the facet inequalities and tallies both,
counts and sums in closed form.  A facet whose last-axis coefficient is
+-1 bounds those fibers by ranges, with no division.  The last axis is the
one of least *shadow*, the (dim-1)-volume of P's projection along it, read
off the facet measures by Cauchy's projection formula (``shadow_i = sum of
u_F[i] nvol(F)`` over the facets with ``u_F[i] > 0``); the other axes follow
by decreasing shadow.  The records do not depend on the order, only the
work does: y runs over the lattice points of the projection along the last
axis, about ``shadow k^(dim-1)`` of them.  Every outer coordinate is
bounded by the facets of P's projection onto the leading coordinates
scanned so far (hulls built once per polytope and scaled by ``k``), so the
scan visits only prefixes that extend to points of ``k*P`` instead of the
whole bounding box.  The slacks of these inequalities are integers kept up
to date as the scan steps, and a step of one coordinate moves only the
slacks of the inequalities that involve it: 2 of the 2 dim on a box.

Every fit reads the same dilations k = 0..dim, one cached pass each.  By
Ehrhart-Macdonald reciprocity the interior records of those passes are
exact samples at k = -1..-dim: ``f(-k) = (-1)^d`` times the interior value
at k, for the counting polynomial (d = dim) and for each coordinate-sum
polynomial (d = dim+1).  A fit of degree d passes through d+1 of these
2 dim + 1 samples and must match the others, and its top two coefficients
must equal measures that do not count: the volume and half the normalized
boundary volume for the counting polynomial, the moment ``vol Bc_i`` and
half the boundary moment ``B bBc_i / 2`` for the sum of coordinate i.  Any
mismatch raises ``InternalInconsistency``: counting is exact and
polynomiality is a theorem, not a modeling assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Callable, Literal, NamedTuple

from .errors import InternalInconsistency, InvalidInput, Unsupported
from .exactnum import Polynomial, poly_fit
from .hull import convex_hull
from .linalg import IntVec
from .polytope import Polytope, classify, facet_data, measure


@dataclass(frozen=True)
class _Bounds:
    """Inequalities ``sum_i cols[i][f] x_i + coefs[f] x_j >= -offsets[f]`` on
    scan coordinate ``j``, one per ``f``, with ``i`` running over ``0..j-1``."""

    cols: tuple[IntVec, ...]
    coefs: IntVec
    offsets: IntVec


def _bounds(halfspaces: list[tuple[IntVec, int]]) -> _Bounds:
    normals = [u for u, _ in halfspaces]
    return _Bounds(
        tuple(zip(*(u[:-1] for u in normals))),
        tuple(u[-1] for u in normals),
        tuple(b for _, b in halfspaces),
    )


@dataclass(frozen=True)
class _ScanPlan:
    """How one polytope is scanned, for every dilation.

    Scan coordinate ``j`` is original axis ``order[j]``.  The axes go by
    decreasing shadow (:func:`_shadows`), ties by index, so the last one,
    solved in closed form, is the axis of least shadow.  ``vol(P)`` is the
    shadow along an axis times the mean length of P's fibers along it, so
    that axis has the longest fibers on average.  The row coordinate runs
    over the lattice points of the projection of ``k*P`` along the last
    axis, about ``shadow * k^(dim-1)`` of them, so no other last axis makes
    fewer rows for large k.  In dimension 2 a shadow is the width along the
    other axis, and the wider axis, the higher index on a tie, is solved.

    ``first`` is the range of scan coordinate 0 over P.  ``bounds[j - 1]``
    bounds scan coordinate ``j``: for ``j < dim - 1`` by the facets of P's
    projection onto scan coordinates ``0..j`` that are not parallel to axis
    ``j``, and for the last coordinate by all of P's facets.
    """

    order: tuple[int, ...]
    first: tuple[int, int]
    bounds: tuple[_Bounds, ...]


def _shadows(p: Polytope) -> list[Fraction]:
    """``shadow_i = sum over facets F with u_F[i] > 0 of u_F[i] nvol(F)``.

    By Cauchy's projection formula this is the (dim-1)-volume of P's
    projection along e_i: the facets whose normals point one way along e_i
    cover that projection once, and a facet with primitive normal u, whose
    Euclidean area is ``nvol(F) |u|``, covers ``|u[i]| / |u|`` of it.
    """
    facets = facet_data(p).facets
    return [
        sum(fm.normal[i] * fm.normalized_volume for fm in facets if fm.normal[i] > 0)
        for i in range(p.dim)
    ]


def _plan(p: Polytope, order: tuple[int, ...]) -> _ScanPlan:
    """The scan of P in the given axis order."""
    n = p.dim
    verts = [tuple(v[i] for i in order) for v in p.vertices]
    bounds = []
    for j in range(1, n - 1):
        hull = convex_hull({v[: j + 1] for v in verts})
        bounds.append(_bounds([(f.normal, f.offset) for f in hull.facets if f.normal[j]]))
    bounds.append(_bounds([(tuple(f.normal[i] for i in order), f.offset) for f in p.facets]))
    first = (min(v[0] for v in verts), max(v[0] for v in verts))
    return _ScanPlan(order, first, tuple(bounds))


@lru_cache(maxsize=None)
def _scan_plan(p: Polytope) -> _ScanPlan:
    shadows = _shadows(p)
    return _plan(p, tuple(sorted(range(p.dim), key=lambda i: (-shadows[i], i))))


class LatticeStats(NamedTuple):
    """Closed, then interior, count and coordinate sums of ``k*P``."""

    count: int
    sums: IntVec
    interior: int
    interior_sums: IntVec


def _floors(r: int, step: int, length: int, c: int):
    """``x // c`` and ``(x - 1) // c`` for ``x = r, r + step, ..``, ``length``
    values: ranges for a unit ``c``, endless for a zero step."""
    if not step:
        return repeat(r // c), repeat((r - 1) // c)
    xs = range(r, r + step * length, step)
    if c == 1:
        return xs, range(r - 1, r - 1 + step * length, step)
    return [x // c for x in xs], [(x - 1) // c for x in xs]


def _pass(p: Polytope, k: int) -> LatticeStats:
    """Closed and interior count and coordinate sums of ``k*P`` for ``k >= 1``.

    The scan visits exactly the lattice points of the projections of ``k*P``
    onto the leading scan coordinates.  The slack ``r`` of an inequality
    (its left side minus its right side, the scanned coordinates substituted)
    is kept up to date as the scan moves: a step of scan coordinate j moves
    only the slacks whose column j is nonzero.  A lattice point is interior
    when every slack is at least 1.
    """
    plan = _scan_plan(p)
    n = p.dim
    facets = plan.bounds[-1]
    steps = facets.cols[-1] if n > 1 else (0,) * len(facets.coefs)
    # P's facets by their role along a row, where r = slack + s*y with y the
    # row coordinate: c*z >= -r bounds the last coordinate z from below
    # (c > 0) or above (c < 0); the others hold on the whole row, and the
    # interior needs r >= 1, which bounds y unless s = 0.
    roles = [(f, s, c) for f, (s, c) in enumerate(zip(steps, facets.coefs))]
    below = [(f, s, c) for f, s, c in roles if c > 0]
    above = [(f, s, -c) for f, s, c in roles if c < 0]
    rising = [(f, s) for f, s, c in roles if not c and s > 0]
    falling = [(f, -s) for f, s, c in roles if not c and s < 0]
    flat = [f for f, s, c in roles if not c and not s]
    # moves[j][g]: the nonzero entries of column j at bounds level j+g;
    # limits[j]: the bounds on scan coordinate j+1 from below and above
    moves = [[[(f, a) for f, a in enumerate(b.cols[j]) if a] for b in plan.bounds[j:]] for j in range(n - 2)]
    limits = [
        ([(f, c) for f, c in enumerate(b.coefs) if c > 0], [(f, -c) for f, c in enumerate(b.coefs) if c < 0])
        for b in plan.bounds
    ]
    closed = [0] * (n + 1)  # count, then the sums in scan order
    inner = [0] * (n + 1)

    def least(facets: list[tuple[int, int, int]], slack: list[int], lo: int, length: int):
        # the pointwise least of _floors over the facets along the row
        ends = [_floors(slack[f] + s * lo, s, length, c) for f, s, c in facets]
        if len(ends) == 1:
            return ends[0]
        return map(min, *(a for a, _ in ends)), map(min, *(b for _, b in ends))

    def row(lo: int, hi: int, slack: list[int]) -> None:
        # The closed fiber above y is -a..b, and the interior one -ia..ib
        # when y is in ilo..ihi, where the facets with c = 0 leave room.
        lows, ilows = least(below, slack, lo, hi - lo + 1)
        highs, ihighs = least(above, slack, lo, hi - lo + 1)
        ilo, ihi = lo, hi
        for f, s in rising:
            ilo = max(ilo, -((slack[f] - 1) // s))
        for f, s in falling:
            ihi = min(ihi, (slack[f] - 1) // s)
        for f in flat:
            if slack[f] < 1:
                ihi = ilo - 1
        count = ysum = zsum = icount = iysum = izsum = 0
        for y, a, b, ia, ib in zip(range(lo, hi + 1), lows, highs, ilows, ihighs):
            m = a + b + 1
            if m > 0:
                count += m
                ysum += y * m
                zsum += (b - a) * m
                m = ia + ib + 1
                if m > 0 and ilo <= y <= ihi:
                    icount += m
                    iysum += y * m
                    izsum += (ib - ia) * m
        closed[0] += count
        closed[n - 1] += ysum  # y = 0 in dimension 1
        closed[n] += zsum // 2
        inner[0] += icount
        inner[n - 1] += iysum
        inner[n] += izsum // 2

    def descend(j: int, lo: int, hi: int, slacks: list[list[int]]) -> None:
        # slacks[g]: the slacks of the bounds on scan coordinate j+1+g
        if j == n - 2:
            row(lo, hi, slacks[-1])
            return
        cur = [s[:] for s in slacks]
        for s, move in zip(cur, moves[j]):
            for f, step in move:
                s[f] += step * lo
        head, rest = cur[0], cur[1:]
        from_below, from_above = limits[j]
        for xj in range(lo, hi + 1):
            a = -min([head[f] // c for f, c in from_below])
            b = min([head[f] // c for f, c in from_above])
            if a <= b:
                count, icount = closed[0], inner[0]
                descend(j + 1, a, b, rest)
                closed[j + 1] += xj * (closed[0] - count)
                inner[j + 1] += xj * (inner[0] - icount)
            for s, move in zip(cur, moves[j]):
                for f, step in move:
                    s[f] += step

    slacks = [[k * b for b in bounds.offsets] for bounds in plan.bounds]
    if n == 1:
        row(0, 0, slacks[0])
    else:
        descend(0, k * plan.first[0], k * plan.first[1], slacks)

    def unscan(acc: list[int]) -> tuple[int, IntVec]:
        return acc[0], tuple(acc[1 + plan.order.index(axis)] for axis in range(n))

    return LatticeStats(*unscan(closed), *unscan(inner))


@lru_cache(maxsize=None)
def lattice_point_stats(p: Polytope, k: int) -> LatticeStats:
    """Closed and interior counts and coordinate sums of ``k*P``, one pass.

    ``k = 0`` gives the single point at the origin, which has no interior.
    """
    if k < 0:
        raise InvalidInput("dilation factor must be nonnegative")
    if k == 0:
        zero = (0,) * p.dim
        return LatticeStats(1, zero, 0, zero)
    return _pass(p, k)


def count_points(p: Polytope, k: int) -> int:
    """Number of lattice points of ``k*P`` for ``k >= 0``."""
    if k < 0:
        raise InvalidInput("negative dilation: use interior_count via reciprocity")
    return lattice_point_stats(p, k).count


def interior_count(p: Polytope, k: int) -> int:
    """Number of lattice points strictly inside ``k*P`` for ``k >= 1``."""
    if k < 1:
        raise InvalidInput("interior counts need a positive dilation")
    return lattice_point_stats(p, k).interior


def fit_on_dilations(
    p: Polytope,
    value: Callable[[int, IntVec], int],
    degree: int,
    top: tuple[Fraction, Fraction],
    what: str,
) -> Polynomial:
    """Polynomial of degree ``degree <= dim+1`` read off the records at
    k = 0..dim that every fit shares, with leading and subleading
    coefficients ``top``.

    ``value`` reads one quantity off a count and its coordinate sums.  Its
    closed value at k is a sample at k, and by Ehrhart-Macdonald reciprocity
    ``(-1)^degree`` times its interior value at k is a sample at -k.  That
    sign holds for the count (degree dim) and for a coordinate sum (degree
    dim+1: a weight of degree 1, Brion-Vergne).  The fit passes through the
    first ``degree + 1`` samples in the order 0, 1, -1, 2, -2, .. and must
    match every other one.  Changing any one sample of the fit changes its
    leading coefficient, so the identities on the top two coefficients
    check the fitted samples too.
    """
    records = [lattice_point_stats(p, k) for k in range(p.dim + 1)]
    sign = (-1) ** degree
    samples = [(0, value(records[0].count, records[0].sums))]
    for k, r in enumerate(records[1:], 1):
        samples += [(k, value(r.count, r.sums)), (-k, sign * value(r.interior, r.interior_sums))]
    fit = poly_fit(samples[: degree + 1])
    for x, y in samples[degree + 1 :]:
        if fit(x) != y:
            check = "held-out validation" if x > 0 else "reciprocity"
            raise InternalInconsistency(f"{what} fails {check} at k={abs(x)}")
    for i, (name, expected) in enumerate(zip(("leading", "subleading"), top)):
        if fit.coefficient(degree - i) != expected:
            raise InternalInconsistency(
                f"{what} has {name} coefficient {fit.coefficient(degree - i)}, not {expected}"
            )
    return fit


@dataclass(frozen=True)
class EhrhartPolynomial:
    poly: Polynomial
    source: Literal["fitted", "reflexive_closed_form"]


@lru_cache(maxsize=None)
def ehrhart_polynomial(p: Polytope) -> EhrhartPolynomial:
    """Counting polynomial read off the samples at k = -dim..dim, with
    leading coefficient the volume and subleading coefficient half the
    normalized boundary volume, validated as the module docstring says."""
    top = (measure(p).volume, facet_data(p).boundary_normalized_volume / 2)
    fit = fit_on_dilations(p, lambda count, sums: count, p.dim, top, "counting polynomial")
    return EhrhartPolynomial(fit, "fitted")


@dataclass(frozen=True)
class ReciprocityEntry:
    k: int
    general_ok: bool
    reflexive_ok: bool | None


@dataclass(frozen=True)
class ReciprocityReport:
    entries: tuple[ReciprocityEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(
            e.general_ok and e.reflexive_ok is not False for e in self.entries
        )


def reciprocity_check(p: Polytope, k_max: int) -> ReciprocityReport:
    """Evaluate the counting polynomial at negative integers against interior
    counts, and for reflexive polytopes against the shifted positive values.

    Failures are reported per dilation, never raised.
    """
    if k_max < 1:
        raise InvalidInput("k_max must be at least 1")
    ehr = ehrhart_polynomial(p).poly
    sign = (-1) ** p.dim
    reflexive = classify(p).reflexive
    entries = []
    for k in range(1, k_max + 1):
        at_neg = ehr(-k)
        general_ok = at_neg == sign * interior_count(p, k)
        reflexive_ok = (at_neg == sign * count_points(p, k - 1)) if reflexive else None
        entries.append(ReciprocityEntry(k, general_ok, reflexive_ok))
    return ReciprocityReport(tuple(entries))


def reflexive_closed_form(p: Polytope) -> EhrhartPolynomial:
    """Closed-form counting polynomial of a reflexive polytope, dim 2 or 3.

    In dimension 2 the polynomial is ``V k^2 + V k + 1`` and in dimension 3
    ``V k^3 + (3V/2) k^2 + (V/2 + 2) k + 1`` with ``V`` the volume; the result
    must coincide with the fitted polynomial.
    """
    if not classify(p).reflexive:
        raise Unsupported("closed form requires a reflexive polytope")
    vol = measure(p).volume
    if p.dim == 2:
        closed = Polynomial.of([1, vol, vol])
    elif p.dim == 3:
        closed = Polynomial.of([1, vol / 2 + 2, Fraction(3, 2) * vol, vol])
    else:
        raise Unsupported(f"no closed form implemented for dimension {p.dim}")
    if closed != ehrhart_polynomial(p).poly:
        raise InternalInconsistency("reflexive closed form disagrees with the fit")
    return EhrhartPolynomial(closed, "reflexive_closed_form")
