"""Lattice-point counting in dilations and Ehrhart polynomials.

Counting is one pass over the lattice points of ``k*P`` that yields the
closed count, the interior count and both coordinate sums together.  The
axis along which P's fibers are longest on average is scanned last and
never looped over: for each fixed prefix of leading coordinates its
feasible range is solved from the facet inequalities, and counts and sums
are accumulated in closed form.  That axis is the one of least *shadow*,
the (dim-1)-volume of P's projection along it, read off the facet measures
by Cauchy's projection formula (``shadow_i = sum of u_F[i] nvol(F)`` over
the facets with ``u_F[i] > 0``); the other axes follow by decreasing
shadow.  The records do not depend on the order, only the work does: the
innermost loop runs over the lattice points of the projection along the
last axis, about ``shadow k^(dim-1)`` of them.  Every
outer coordinate is bounded by the facets of P's projection onto the
leading coordinates scanned so far (hulls built once per polytope and
scaled by ``k``), so the scan visits only prefixes that extend to points of
``k*P`` instead of the whole bounding box.  Everything is plain integer
arithmetic.

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


def _pointwise(pick, columns: list[list[int]]) -> list[int]:
    return columns[0] if len(columns) == 1 else list(map(pick, *columns))


def _tally(ys, los: list[int], his: list[int]) -> tuple[int, int, int]:
    """Points, sum of the row coordinate and sum of the last coordinate over
    the fibers ``los[i]..his[i]`` above the row coordinates ``ys``."""
    count = ysum = zsum = 0
    for y, lo, hi in zip(ys, los, his):
        if hi >= lo:
            m = hi - lo + 1
            count += m
            ysum += y * m
            zsum += (lo + hi) * m
    return count, ysum, zsum // 2


def _pass(p: Polytope, k: int) -> LatticeStats:
    """Closed and interior count and coordinate sums of ``k*P`` for ``k >= 1``.

    The scan visits exactly the lattice points of the projections of ``k*P``
    onto the leading scan coordinates.  The slack ``r`` of an inequality
    (its left side minus its right side, the scanned coordinates substituted)
    is kept up to date as the scan moves.  A lattice point is interior when
    every slack is at least 1.
    """
    plan = _scan_plan(p)
    n = p.dim
    facets = plan.bounds[-1]
    steps = facets.cols[-1] if n > 1 else (0,) * len(facets.coefs)
    x = [0] * n  # the scan prefix
    closed = [0] * (n + 1)  # count, then the sums in scan order
    inner = [0] * (n + 1)

    def add(acc: list[int], count: int, ysum: int, zsum: int) -> None:
        acc[0] += count
        for i in range(n - 2):
            acc[i + 1] += x[i] * count
        if n > 1:
            acc[n - 1] += ysum
        acc[n] += zsum

    def row(lo: int, hi: int, slack: list[int]) -> None:
        # Scan coordinate n-2 runs over lo..hi and the last one over a fiber
        # c*z >= -r (or >= 1 - r) per facet, with r affine along the row.
        length = hi - lo + 1
        lows, highs, ilows, ihighs = [], [], [], []
        ia, ib = lo, hi  # where the facets parallel to z leave room inside
        for r0, step, c in zip(slack, steps, facets.coefs):
            r0 += step * lo
            if c:
                rs = range(r0, r0 + step * length, step) if step else [r0] * length
                if c > 0:
                    lows.append([-(r // c) for r in rs])
                    ilows.append([-((r - 1) // c) for r in rs])
                else:
                    highs.append([r // -c for r in rs])
                    ihighs.append([(r - 1) // -c for r in rs])
            elif step > 0:
                ia = max(ia, lo - (r0 - 1) // step)
            elif step < 0:
                ib = min(ib, lo + (r0 - 1) // -step)
            elif r0 < 1:
                ib = ia - 1
        ys = range(lo, hi + 1)
        add(closed, *_tally(ys, _pointwise(max, lows), _pointwise(min, highs)))
        cut = slice(ia - lo, max(ib - lo + 1, 0))
        ilo, ihi = _pointwise(max, ilows), _pointwise(min, ihighs)
        add(inner, *_tally(ys[cut], ilo[cut], ihi[cut]))

    def descend(j: int, lo: int, hi: int, slacks: list[list[int]]) -> None:
        # slacks[g]: the slacks of the bounds on scan coordinate j+1+g
        if j == n - 2:
            row(lo, hi, slacks[-1])
            return
        deeper = plan.bounds[j:]
        cur = [[r + a * lo for r, a in zip(s, b.cols[j])] for s, b in zip(slacks, deeper)]
        nxt = deeper[0].coefs
        for xj in range(lo, hi + 1):
            x[j] = xj
            los = [-(r // c) for r, c in zip(cur[0], nxt) if c > 0]
            his = [r // -c for r, c in zip(cur[0], nxt) if c < 0]
            if max(los) <= min(his):
                descend(j + 1, max(los), min(his), cur[1:])
            cur = [[r + a for r, a in zip(s, b.cols[j])] for s, b in zip(cur, deeper)]

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
