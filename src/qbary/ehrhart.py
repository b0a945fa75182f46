"""Lattice-point counting in dilations and Ehrhart polynomials.

Counting is one pass over the lattice points of ``k*P`` that yields the
closed count, the interior count and both coordinate sums together.  A
*row* fixes every scan coordinate but the last two, y and z.  Over a row the
fiber above y is ``-a(y)..b(y)``, where ``a(y)`` is the least of the floors
``(r + s y) // c`` over the facets that bound z from below, and ``b(y)`` the
same over those above.  The row's count and sums are sums of a, b, y a,
y b, a^2 and b^2.  At the breakpoints of the two lower envelopes, found by
integer cross-multiplication, they split into floor sums, each solved by a
Euclid-like recursion, or as an arithmetic series when c divides s
(:mod:`qbary.lattice`).  y runs over its range over ``k*P``, clamped by
the facets parallel to z, where the two real envelopes sum to at least 0.
The interior fiber is the same with every slack lowered by 1, within the
closed one's range of y.  So a row costs
O(facets + envelope pieces) whatever its length, and a pass visits the
lattice points of the projection of ``k*P`` onto the first ``dim - 2`` scan
coordinates, about ``k^(dim-2)`` times that projection's volume; in
dimensions 1 and 2 a pass is one row.

The axes go by decreasing *shadow*, the (dim-1)-volume of P's projection
along an axis, read off the integer facet weights ``W_F = (dim-1)!
nvol(F)`` of P's face walk by Cauchy's projection formula (``(dim-1)!
shadow_i = sum of u_F[i] W_F`` over the facets with ``u_F[i] > 0``), so
the two axes of least shadow are summed in closed form.  The records do
not depend on the order, only the work does.  Outer coordinates
1..dim-3 are bounded by the facets of P's projection onto the leading
coordinates scanned so far (hulls built with P's scan plan and scaled by
``k``), and the row coordinate by the row itself, so the scan visits only
prefixes that extend to points of ``k*P``, not the whole bounding box.
The plan holds all that a pass reads whatever k.
When P splits (below), that projection is the product of its projections
onto P's coordinate blocks, so only the hull of the coordinate's own block
is built.  The slacks of these inequalities are
integers kept up to date as the scan steps, and a step of one coordinate
moves only the slacks of the inequalities that involve it: 2 of the 2 dim
on a box.

A product of coordinate blocks of dimension 4 or more is counted through
its factors.  The blocks are the connected components of the axes, two
axes joined when a facet normal involves both; every facet then involves
one block, and P is the product of its projections onto the blocks, each
read off P with no hull: :func:`qbary.polytope._split`, made once per
polytope and kept with P's measures, which use it too.  As ``k*P = k*A x
k*B`` and the interior of ``k*P`` is ``int(k*A) x int(k*B)``, the count is
the product of the factors' counts and the sums on a block are that
factor's sums times the other factors' counts, closed and interior alike.
Each factor is a polytope of its own: its record is its own cached
:func:`lattice_point_stats`, by its own plan, so equal factors, as the
segments of a cube, are counted once per dilation.  At k = 1 the full pass
over P runs as well and must give the same record.
In dimensions 1-3 a pass descends at most one level and a factor's own
plan costs more than the split saves, so those products are scanned, and
measured, whole.  Images of products under ``GL_n(Z)`` are not detected:
that belongs to a reduced lattice basis (ROADMAP item 7).

One cached record per polytope, :func:`ehrhart_data`, holds the counting
polynomial E and the coordinate-sum polynomials S_i, all read off the
passes at k = 0..m, m = ceil((dim+1)/2) (:func:`fitted_dilations`).  By
Ehrhart-Macdonald reciprocity their interior records are exact samples at
k = -1..-m: ``f(-k) = (-1)^d`` times the interior value at k, for E
(d = dim) and each S_i (d = dim+1: a weight of degree 1, Brion-Vergne).  A
fit of degree d passes through the first d+1 of these 2m + 1 >= dim + 1
samples, in the order 0, 1, -1, 2, -2, .., and must match the others, and
its top two coefficients must equal measures that do not count, read as
integer pairs off P's face walk (:class:`qbary.polytope._FaceWalk`): the
volume ``(W, dim!)`` and half the normalized boundary volume ``(B, 2
(dim-1)!)`` for E, the moment ``vol Bc_i`` as ``(M_i, (dim+1)!)`` and half
the boundary moment as ``(BM_i, 2 dim!)`` for S_i, compared by
cross-multiplication.  A wrong fitted sample changes the leading
coefficient, so these identities check the fitted samples too; each S_i
has no sample to spare at odd dim.
Any mismatch raises ``InternalInconsistency``: counting is exact and
polynomiality is a theorem, not a modeling assumption.

Every record of ``k*P`` holds both halves and is kept once per (P, k).
Above m, on a lattice simplex of dimension 3 or more whose fundamental
parallelepiped costs less than a pass at k (:func:`_takes_parallelepiped`),
the record comes from the parallelepiped's h*-vector and height sums X_h
(:func:`qbary.lattice._parallelepiped_record`), at a cost independent of k:
``E(k) = sum_h h*_h C(k-h+n, n)`` and ``S_i(k) = sum_h [X_h[i] C(k-h+n, n)
+ h*_h V_i C(k-h+n, n+1)]``, V the sum of the vertices (Beck-Robins,
*Computing the Continuous Discretely*, ch. 3), and its interior from the
same h* and X_h.  Otherwise a pass counts it.  :func:`checked_stats` alone
hands records to :func:`count_points`, :func:`interior_count` and the
quantized barycenter's numerators (``expansion._barycenter_numerators``):
at k <= m once :func:`ehrhart_data` has read it, above m once its halves
equal E(k), S_i(k) and, by reciprocity, E(-k) and S_i(-k).  So no record
reaches output unchecked, every value above m is read by two routes that
share no code, and counting never reads the fits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Literal, NamedTuple

from .errors import InternalInconsistency, InvalidInput, Unsupported
from .exactnum import Polynomial, poly_fit
from .hull import convex_hull
from .lattice import _by_slope, _envelope, _floor_sums, _meet, _nonnegative, _parallelepiped_record, _piece_sums
from .linalg import IntVec, int_value
from .polytope import Polytope, _measures, classify, measure


class _Bounds(NamedTuple):
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


class _ScanPlan(NamedTuple):
    """How one polytope is scanned, for every dilation.

    Scan coordinate ``j`` is original axis ``order[j]``.  The axes go by
    decreasing shadow (:func:`_shadow_weights`), ties by index, so the last two,
    summed in closed form, are the axes of least shadow.  A pass makes one
    row per lattice point of the projection of ``k*P`` onto the first
    ``dim - 2`` scan coordinates, about ``k^(dim-2)`` times the volume of
    P's projection along the last two axes; the shadow order need not
    minimize that volume.  In dimension 2 a pass is one row in either
    order, and the wider axis, the higher index on a tie, is the last.

    ``first`` and ``rows`` are the ranges over P of scan coordinates 0 and
    ``dim - 2``, the row coordinate ((0, 0) in dimension 1).  For
    ``j < dim - 2``, ``bounds[j - 1]`` bounds scan coordinate ``j`` by the
    facets of P's projection onto scan coordinates ``0..j`` not parallel to
    axis ``j``; ``bounds[-1]`` holds P's facets, which bound each row.

    The rest is what a pass reads whatever k.  P's facets by their role
    along a row, where ``r = slack + s*y`` with y the row coordinate:
    ``c*z >= -r`` bounds the last coordinate z from ``below`` (c > 0) or
    ``above`` (c < 0), as ``(f, s, |c|)`` in slope order; the others bound y
    from below (``rising``, s > 0) or above (``falling``, s < 0) as ``(f,
    |s|)``, or neither (``flat``).  ``one`` joins the one facet below and the
    one above, when there are just these, whose line is then the envelope.
    ``moves[j]`` holds the nonzero entries ``(g, f, a)`` of column j at
    bounds level ``j + g``, and ``limits[j]`` the bounds on scan coordinate
    ``j + 1`` from below and above.
    """

    order: tuple[int, ...]
    first: tuple[int, int]
    rows: tuple[int, int]
    bounds: tuple[_Bounds, ...]
    below: tuple[tuple[int, int, int], ...]
    above: tuple[tuple[int, int, int], ...]
    rising: tuple[tuple[int, int], ...]
    falling: tuple[tuple[int, int], ...]
    flat: IntVec
    one: IntVec | None
    moves: tuple[tuple[tuple[int, int, int], ...], ...]
    limits: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def _shadow_weights(p: Polytope) -> list[int]:
    """``(dim-1)! shadow_i`` for each axis, ``shadow_i`` the sum over the
    facets F with ``u_F[i] > 0`` of ``u_F[i] nvol(F)``: the sum of
    ``u_F[i] W_F`` with the integer facet weights ``W_F = (dim-1)! nvol(F)``
    of :func:`qbary.polytope._measures`.

    By Cauchy's projection formula ``shadow_i`` is the (dim-1)-volume of P's
    projection along e_i: the facets whose normals point one way along e_i
    cover that projection once, and a facet with primitive normal u, whose
    Euclidean area is ``nvol(F) |u|``, covers ``|u[i]| / |u|`` of it.
    """
    weights = [(f.normal, w) for f, (w, _) in zip(p.facets, _measures(p).weighed)]
    return [sum(u[i] * w for u, w in weights if u[i] > 0) for i in range(p.dim)]


def _plan(p: Polytope, order: tuple[int, ...], blocks: list[tuple[int, ...]]) -> _ScanPlan:
    """The scan of P in the given axis order, P the product of its
    coordinate ``blocks`` (:func:`qbary.polytope._split`'s, or one).

    P's projection onto scan coordinates ``0..j`` is the product of its
    projections onto each block's coordinates among them, and only the one
    on axis ``order[j]``'s block has facets that involve that axis.  So
    coordinate j < dim - 2 is bounded by the hull of that projection alone,
    its normals lifted back with zeros.  A polytope that is no product is one
    block, bounded by the hulls of whole prefixes.
    """
    n = p.dim
    verts = [tuple(v[i] for i in order) for v in p.vertices]
    block_of = {i: block for block in blocks for i in block}
    bounds = []
    for j in range(1, n - 2):
        own = [i for i in range(j + 1) if order[i] in block_of[order[j]]]
        hull = convex_hull({tuple([v[i] for i in own]) for v in verts})
        facets = _bounds([(f.normal, f.offset) for f in hull.facets if f.normal[-1]])
        columns = dict(zip(own, facets.cols))
        zero = (0,) * len(facets.coefs)
        bounds.append(_Bounds(tuple(columns.get(i, zero) for i in range(j)), facets.coefs, facets.offsets))
    facets = _bounds([(tuple(f.normal[i] for i in order), f.offset) for f in p.facets])
    bounds.append(facets)
    steps = facets.cols[-1] if n > 1 else (0,) * len(facets.coefs)
    roles = [(f, s, c) for f, (s, c) in enumerate(zip(steps, facets.coefs))]
    below = tuple(sorted([(f, s, c) for f, s, c in roles if c > 0], key=_by_slope))
    above = tuple(sorted([(f, s, -c) for f, s, c in roles if c < 0], key=_by_slope))
    rising = tuple((f, s) for f, s, c in roles if not c and s > 0)
    falling = tuple((f, -s) for f, s, c in roles if not c and s < 0)
    flat = tuple(f for f, s, c in roles if not c and not s)
    one = below[0] + above[0] if len(below) == len(above) == 1 else None
    moves = tuple(tuple((g, f, a) for g, b in enumerate(bounds[j:]) for f, a in enumerate(b.cols[j]) if a) for j in range(n - 2))
    limits = tuple(
        (tuple((f, c) for f, c in enumerate(b.coefs) if c > 0), tuple((f, -c) for f, c in enumerate(b.coefs) if c < 0))
        for b in bounds[:-1]
    )
    spans = [(min(x), max(x)) for x in zip(*verts)]
    rows = spans[n - 2] if n > 1 else (0, 0)
    return _ScanPlan(order, spans[0], rows, tuple(bounds), below, above, rising, falling, flat, one, moves, limits)


@lru_cache(maxsize=8)
def _scan_plan(p: Polytope) -> _ScanPlan:
    """P's plan in shadow order, each outer coordinate bounded within its
    coordinate block when P splits (:func:`qbary.polytope._split`).  The
    last 8 plans are kept: the records are cached apart, so a plan is read
    only to count a new dilation."""
    weights = _shadow_weights(p)
    order = tuple(sorted(range(p.dim), key=lambda i: (-weights[i], i)))
    return _plan(p, order, [block for block, _, _ in _measures(p).split] or [tuple(range(p.dim))])


class LatticeStats(NamedTuple):
    """Closed, then interior, count and coordinate sums of ``k*P``."""

    count: int
    sums: IntVec
    interior: int
    interior_sums: IntVec


def _pass(plan: _ScanPlan, k: int) -> LatticeStats:
    """Closed and interior count and coordinate sums of ``k*P`` for ``k >= 1``,
    by P's ``plan``.

    The scan visits exactly the lattice points of the projections of ``k*P``
    onto the first ``dim - 2`` scan coordinates, and sums each row, over the
    last two, in closed form where its fiber is not empty.  The slack ``r``
    of an inequality (its left side minus its right side, the scanned
    coordinates substituted) is kept up to date as the scan moves: a step of
    scan coordinate j moves only the slacks whose column j is nonzero.  A
    lattice point is interior when every slack is at least 1.
    """
    order, first, rows, bounds, below, above, rising, falling, flat, one, moves, limits = plan
    n = len(order)
    f1, s1, c1, f2, s2, c2 = one or (0,) * 6
    closed = [0] * (n + 1)  # count, then the sums in scan order
    inner = [0] * (n + 1)

    def fiber(acc: list[int], slack: list[int], shift: int, lo: int, hi: int) -> tuple[int, int]:
        # The y in lo..hi where the facets with c = 0 hold and the real
        # envelopes, every slack lowered by shift, sum to >= 0, so that
        # a + b + 1 >= 0 (<= 0 elsewhere): summed, and returned.
        for f, s in rising:
            y = -((slack[f] - shift) // s)
            if y > lo:
                lo = y
        for f, s in falling:
            y = (slack[f] - shift) // s
            if y < hi:
                hi = y
        for f in flat:
            if slack[f] < shift:
                return 1, 0
        if lo > hi:
            return 1, 0
        if one:
            r1, r2 = slack[f1] - shift, slack[f2] - shift
            first, last = _meet(s1, c1, r1, s2, c2, r2, lo, hi)
            if first > last:
                return first, last
            sa, sb = _floor_sums(r1, s1, c1, first, last), _floor_sums(r2, s2, c2, first, last)
        else:
            low = _envelope(below, slack, shift, lo, hi)
            high = _envelope(above, slack, shift, lo, hi)
            first, last = _nonnegative(low, high, lo, hi)
            if first > last:
                return first, last
            sa, sb = _piece_sums(low, first, last, hi), _piece_sums(high, first, last, hi)
        # The fiber above y is -a(y)..b(y): a + b + 1 points, which sum to
        # (b^2 + b - a^2 - a) / 2, with sa and sb the sums of a and b, y a
        # and y b, a^2 and b^2 over y = first..last.
        length = last - first + 1
        acc[0] += sa[0] + sb[0] + length
        acc[n - 1] += sa[1] + sb[1] + (first + last) * length // 2  # y = 0 in dimension 1
        acc[n] += (sb[2] + sb[0] - sa[2] - sa[0]) // 2
        return first, last

    def row(slack: list[int]) -> None:
        # a(y) = min over the facets below of (r + s y) // c, b(y) the same
        # above, for y in k * rows; the interior within the closed range
        first, last = fiber(closed, slack, 0, ylo, yhi)
        if first <= last:
            fiber(inner, slack, 1, first, last)

    def descend(j: int, lo: int, hi: int, slacks: list[list[int]]) -> None:
        # slacks[g]: the slacks of bounds level j+g, the last P's facets
        cur = [s[:] for s in slacks]
        touched = [(cur[g], f, a) for g, f, a in moves[j]]
        for s, f, step in touched:
            s[f] += step * lo
        head, rest = cur[0], cur[1:]
        for xj in range(lo, hi + 1):
            count, icount = closed[0], inner[0]
            if not rest:
                row(head)
            else:
                from_below, from_above = limits[j]
                a = -min([head[f] // c for f, c in from_below])
                b = min([head[f] // c for f, c in from_above])
                if a <= b:
                    descend(j + 1, a, b, rest)
            closed[j + 1] += xj * (closed[0] - count)
            inner[j + 1] += xj * (inner[0] - icount)
            for s, f, step in touched:
                s[f] += step

    slacks = [[k * b for b in level.offsets] for level in bounds]
    ylo, yhi = k * rows[0], k * rows[1]
    if n < 3:
        row(slacks[0])
    else:
        descend(0, k * first[0], k * first[1], slacks)
    # descend calls itself through its closure cell; emptying the cell frees
    # the pass's lists now instead of at the next cyclic collection
    del descend

    def unscan(acc: list[int]) -> tuple[int, IntVec]:
        return acc[0], tuple(acc[1 + order.index(axis)] for axis in range(n))

    return LatticeStats(*unscan(closed), *unscan(inner))


def _product(blocks: list[tuple[int, ...]], records: list[LatticeStats]) -> LatticeStats:
    """The record of the product of factors with the given ``records``,
    factor b on the axes ``blocks[b]``.

    Its lattice points are the tuples of its factors' points, and its
    interior points the tuples of their interior points.  So the count is
    the product of the counts, and a point of factor b appears once for
    each choice of the other factors' points: the sums on block b are the
    factor's sums times the other factors' counts.
    """

    def side(counts: tuple[int, ...], sums: tuple[IntVec, ...]) -> tuple[int, IntVec]:
        out = [0] * sum(map(len, blocks))
        for b, (block, factor_sums) in enumerate(zip(blocks, sums)):
            others = prod(counts[:b] + counts[b + 1 :])
            for i, x in zip(block, factor_sums):
                out[i] = x * others
        return prod(counts), tuple(out)

    counts, sums, interior, interior_sums = zip(*records)
    return LatticeStats(*side(counts, sums), *side(interior, interior_sums))


def fitted_dilations(dim: int) -> range:
    """k = 0..m, m = ceil((dim+1)/2): the dilations whose records the fits
    of :func:`ehrhart_data` read."""
    return range((dim + 2) // 2 + 1)


@lru_cache(maxsize=None)
def lattice_point_stats(p: Polytope, k: int) -> LatticeStats:
    """Closed and interior counts and coordinate sums of ``k*P``, one record
    per (P, k), unchecked: :func:`checked_stats` checks what it hands out.

    ``k = 0`` gives the single point at the origin, which has no interior.
    Above the fitted dilations, a lattice simplex whose fundamental
    parallelepiped costs less than a pass (:func:`_takes_parallelepiped`)
    is read off that parallelepiped.  A polytope that splits into factors
    (:func:`qbary.polytope._split`: dimension 4 or more) is counted through
    the factors' own records, and at k = 1 also by one pass over P that
    must give the same record; any other is one pass.
    """
    if k < 0:
        raise InvalidInput("dilation factor must be nonnegative")
    if k == 0:
        zero = (0,) * p.dim
        return LatticeStats(1, zero, 0, zero)
    if k not in fitted_dilations(p.dim) and _takes_parallelepiped(p, k):
        return LatticeStats(*_parallelepiped_record(p.vertices, _measures(p).volume, k))
    split = _measures(p).split
    if not split:
        return _pass(_scan_plan(p), k)
    record = _product([block for block, _, _ in split], [lattice_point_stats(f, k) for _, f, _ in split])
    if k == 1 and _pass(_scan_plan(p), 1) != record:
        raise InternalInconsistency("the product of the factors' counts differs from the count of P at k=1")
    return record


def _read_check(p: Polytope, k: int, record: LatticeStats) -> None:
    """Refuse the ``record`` of ``k*P`` unless it equals E(k), S_i(k),
    ``(-1)^n E(-k)`` and ``(-1)^(n+1) S_i(-k)`` of :func:`ehrhart_data`."""
    counting, sums = ehrhart_data(p)
    sign = (-1) ** p.dim
    if counting.numerator_at(k) != record.count * counting.denominator:
        raise InternalInconsistency(f"counting polynomial disagrees with the closed count read at k={k}")
    if any(s.numerator_at(k) != x * s.denominator for s, x in zip(sums, record.sums)):
        raise InternalInconsistency(f"coordinate-sum polynomial disagrees with the closed sums read at k={k}")
    if sign * counting.numerator_at(-k) != record.interior * counting.denominator:
        raise InternalInconsistency(f"counting polynomial disagrees with the interior count read at k={k}")
    if any(-sign * s.numerator_at(-k) != x * s.denominator for s, x in zip(sums, record.interior_sums)):
        raise InternalInconsistency(f"coordinate-sum polynomial disagrees with the interior sums read at k={k}")


def _takes_parallelepiped(p: Polytope, k: int) -> bool:
    """Whether a read of ``k*P`` above the fitted dilations comes from P's
    fundamental parallelepiped rather than a pass: P is a simplex of
    dimension n >= 3, and the parallelepiped costs less.

    The costs are exact integers, in units of about 0.4 us as measured on a
    2-vCPU host: the parallelepiped's ``W = n! vol`` points, n + 1
    coordinates each, plus 64 points' worth for its Hermite normal form and
    adjugate, read cold; and 12.5 per row of a pass, whose rows number about
    1/(n-2)! of the product of the spans of the outer scan coordinates over
    ``k*P``.  Both sides were timed on full passes, the interior counted:
    at k = 3, 4 and 12 on conv(0, 2e_1, 3e_2, (1,1,2)), conv(0, (3,1,0),
    (1,3,0), (1,1,3)) and conv(0, e_1, e_2, (4,3,5)), the last also at
    k = 40, and at k = 4 and 12 on conv(0, 2e_1, 2e_2, 2e_3, (1,1,1,2)) and
    conv(0, e_1, e_2, e_3, (3,2,3,4)).  The rule picks the faster side on
    each but two, where the sides differ by about a tenth.
    """
    n = p.dim
    if n < 3 or len(p.vertices) > n + 1:
        return False
    rows = 1
    for axis in _scan_plan(p).order[: n - 2]:
        coords = [v[axis] for v in p.vertices]
        rows *= k * (max(coords) - min(coords)) + 1
    return 2 * factorial(n - 2) * (n + 1) * (_measures(p).volume + 64) <= 25 * rows


def checked_stats(p: Polytope, k: int) -> LatticeStats:
    """The record of ``k*P`` as :func:`count_points`, :func:`interior_count`
    and ``expansion._barycenter_numerators`` read it: at k <= m once
    :func:`ehrhart_data` has read it (k = 0, the origin, needs no fit), and
    above m once :func:`_read_check` holds both halves to the fits."""
    record = lattice_point_stats(p, k)
    if k not in fitted_dilations(p.dim):
        _read_check(p, k, record)
    elif k:
        ehrhart_data(p)
    return record


def count_points(p: Polytope, k: int) -> int:
    """Number of lattice points of ``k*P`` for ``k >= 0``."""
    if int_value(k, "dilation factor") < 0:
        raise InvalidInput("negative dilation: use interior_count via reciprocity")
    return checked_stats(p, k).count


def interior_count(p: Polytope, k: int) -> int:
    """Number of lattice points strictly inside ``k*P`` for ``k >= 1``."""
    if int_value(k, "dilation factor") < 1:
        raise InvalidInput("interior counts need a positive dilation")
    return checked_stats(p, k).interior


def _fit(values: list[tuple[int, int]], degree: int, top: tuple[tuple[int, int], tuple[int, int]], what: str) -> Polynomial:
    """The polynomial of degree ``degree`` read off one quantity's closed and
    interior values ``values[k]`` at k = 0..m, as the module docstring says.
    Its top two coefficients must be ``top``, each a numerator and a
    positive denominator, compared by cross-multiplication; a Fraction is
    built only for the message of a mismatch."""
    sign = (-1) ** degree
    samples = [(0, values[0][0])]
    for k, (closed, interior) in enumerate(values[1:], 1):
        samples += [(k, closed), (-k, sign * interior)]
    fit = poly_fit(samples[: degree + 1])
    for x, y in samples[degree + 1 :]:
        if fit.numerator_at(x) != y * fit.denominator:
            check = "held-out validation" if x > 0 else "reciprocity"
            raise InternalInconsistency(f"{what} fails {check} at k={abs(x)}")
    nums = fit.numerators
    for e, name, (num, den) in zip((degree, degree - 1), ("leading", "subleading"), top):
        if (nums[e] if e < len(nums) else 0) * den != num * fit.denominator:
            raise InternalInconsistency(f"{what} has {name} coefficient {fit.coefficient(e)}, not {Fraction(num, den)}")
    return fit


@lru_cache(maxsize=None)
def ehrhart_data(p: Polytope) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """The counting polynomial E of P and its coordinate-sum polynomials
    S_1..S_n, fitted on the records at k = 0..m, m = ceil((n+1)/2), read
    once: 2m + 1 samples and two coefficient identities for each fit."""
    n = p.dim
    records = [lattice_point_stats(p, k) for k in fitted_dilations(n)]
    walk, unit = _measures(p), factorial(n)
    volumes = ((walk.volume, unit), (walk.boundary, 2 * factorial(n - 1)))
    counting = _fit([(r.count, r.interior) for r in records], n, volumes, "counting polynomial")
    tops = [((m, (n + 1) * unit), (bm, 2 * unit)) for m, bm in zip(walk.moment, walk.boundary_moment)]
    sums = tuple(
        _fit([(r.sums[i], r.interior_sums[i]) for r in records], n + 1, top, "coordinate-sum polynomial")
        for i, top in enumerate(tops)
    )
    return counting, sums


class EhrhartPolynomial(NamedTuple):
    poly: Polynomial
    source: Literal["fitted", "reflexive_closed_form"]


def ehrhart_polynomial(p: Polytope) -> EhrhartPolynomial:
    """Counting polynomial of :func:`ehrhart_data`."""
    return EhrhartPolynomial(ehrhart_data(p)[0], "fitted")


class ReciprocityEntry(NamedTuple):
    k: int
    general_ok: bool
    reflexive_ok: bool | None


class ReciprocityReport(NamedTuple):
    entries: tuple[ReciprocityEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(
            e.general_ok and e.reflexive_ok is not False for e in self.entries
        )


def reciprocity_check(p: Polytope, k_max: int) -> ReciprocityReport:
    """Evaluate the Ehrhart polynomials at negative integers against the
    interior records, and for reflexive polytopes E against the shifted
    positive counts.

    The general entry at k holds when ``(-1)^n E(-k)`` is the interior
    count of ``k*P`` and ``(-1)^(n+1) S_i(-k)`` its interior sum on every
    axis.  At k <= m (:func:`fitted_dilations`) it holds by construction,
    as :func:`ehrhart_data` fitted or checked those very samples; above m
    it compares records no fit read.  The reflexive entry at k compares
    ``(-1)^n E(-k)`` with the closed count at k - 1, which no fit relates:
    it can fail at every k.  Failures are reported per dilation, never
    raised.
    """
    if int_value(k_max, "k_max") < 1:
        raise InvalidInput("k_max must be at least 1")
    ehr, sums = ehrhart_data(p)
    sign = (-1) ** p.dim
    reflexive = classify(p).reflexive
    entries = []
    previous = lattice_point_stats(p, 0)
    for k in range(1, k_max + 1):
        record = lattice_point_stats(p, k)
        at_neg = sign * ehr.numerator_at(-k)  # sign E(-k), times the denominator
        general_ok = at_neg == record.interior * ehr.denominator and all(
            -sign * s.numerator_at(-k) == x * s.denominator for s, x in zip(sums, record.interior_sums)
        )
        reflexive_ok = (at_neg == previous.count * ehr.denominator) if reflexive else None
        entries.append(ReciprocityEntry(k, general_ok, reflexive_ok))
        previous = record
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
