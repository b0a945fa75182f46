"""Integer linear algebra over the lattice Z^n: primitive vectors, the row
Hermite normal form with a unimodular transform, the fundamental
parallelepiped of the cone over a lattice simplex, and the lattice points
under lines that counting sums row by row (:mod:`qbary.ehrhart`).

A row's count and coordinate sums are sums of ``(r + s y) // c`` over a
range of y, taken piece by piece along the lower envelope of a few such
lines.  Every breakpoint is found by integer cross-multiplication, and every
sum in closed form: an arithmetic series when c divides s, and otherwise a
Euclid-like recursion.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
from itertools import product
from math import comb, gcd
from typing import Sequence

from .errors import InvalidInput, ensure
from .linalg import IntVec, adjugate, int_list, int_rows

Matrix = tuple[IntVec, ...]

# representatives reduced at once by _parallelepiped
_CHUNK = 4096


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (same direction)."""
    v = int_list(v)
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise InvalidInput("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def hermite_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form ``H = U @ A`` with ``U`` unimodular.

    Pivots are positive, entries below a pivot vanish, and entries above a
    pivot are reduced into ``[0, pivot)``.  Plain integer Gaussian
    elimination with Euclidean reduction; matrix sizes here are tiny.  The
    rows are read by ``int_rows`` and must be of one length.
    """
    h = [list(row) for row in int_rows(matrix)]
    rows, cols = len(h), len(h[0])
    if any(len(row) != cols for row in h):
        raise InvalidInput("rows of mixed length")
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        h[i] = [a - q * b for a, b in zip(h[i], h[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    r = 0
    for c in range(cols):
        while True:
            nonzero = [i for i in range(r, rows) if h[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(h[i][c]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    row_op(i, r, h[i][c] // h[r][c])
            if all(h[i][c] == 0 for i in range(r + 1, rows)):
                if h[r][c] < 0:
                    h[r] = [-a for a in h[r]]
                    u[r] = [-a for a in u[r]]
                for i in range(r):
                    if h[i][c] != 0:
                        row_op(i, r, h[i][c] // h[r][c])
                r += 1
                break
        if r == rows:
            break
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


@lru_cache(maxsize=8)
def _parallelepiped(vertices: tuple[IntVec, ...]) -> tuple[IntVec, tuple[IntVec, ...]]:
    """``(hstar, sums)`` of the lattice simplex with the n + 1 given
    ``vertices`` v_j: ``hstar[h]`` points of the half-open fundamental
    parallelepiped of the cone over the rows ``w_j = (v_j, 1)`` lie at
    height h, and ``sums[h]`` is the sum of their first n coordinates.

    That parallelepiped holds the points ``sum_j l_j w_j`` with every
    ``0 <= l_j < 1``, one in each coset of the lattice L that the w_j span,
    |det| points at heights 0..n.  The rows of L's Hermite normal form are
    upper triangular, so the x with ``0 <= x_i < H[i][i]`` are coset
    representatives.  With ``A R = d I``, ``l = x R / d`` and x's point is
    ``sum_j r_j w_j / d`` with ``r_j = (x R)_j % d``, which takes the sign
    of d, so that ``r_j / d`` is the fractional part of ``l_j`` whatever
    the sign of d.  As ``x R`` is linear in x, the r of the
    representatives are built coordinate by coordinate of x from the rows
    of R, at most ``_CHUNK`` at a time, so memory stays bounded whatever
    |det|.  The last 8 simplices are kept.
    """
    m = len(vertices)
    rows = [(*v, 1) for v in vertices]
    det, adj = adjugate(rows)
    hnf = hermite_normal_form(rows)[0]
    # r of the representatives over the coordinates of x that fit into one
    # chunk, by columns; the others are iterated, the last of them in spans
    inner, outer = [[0] for _ in range(m)], []
    for d, step in ((row[i], step) for i, (row, step) in enumerate(zip(hnf, adj)) if row[i] > 1):
        if len(inner[0]) * d <= _CHUNK:
            inner = [[(a + t * b) % det for a in column for t in range(d)] for column, b in zip(inner, step)]
        else:
            outer.append((d, step))
    size, last = outer.pop() if outer else (1, adj[0])
    width = max(1, _CHUNK // len(inner[0]))
    counts, weights = [0] * m, [[0] * m for _ in range(m)]
    for ts in product(*(range(d) for d, _ in outer)):
        base = [sum(t * step[j] for t, (_, step) in zip(ts, outer)) for j in range(m)]
        for start in range(0, size, width):
            span = range(start, min(size, start + width))
            levels: list[list[IntVec]] = [[] for _ in range(m)]
            for r in zip(*[[(a + c + t * b) % det for a in column for t in span] for column, c, b in zip(inner, base, last)]):
                # the point's last coordinate, sum_j r_j / d, as every w_j ends in 1
                levels[sum(r) // det].append(r)
            for h, level in enumerate(levels):
                if level:
                    counts[h] += len(level)
                    weights[h] = [w + sum(column) for w, column in zip(weights[h], zip(*level))]
    sums = tuple(tuple(sum(w * v[i] for w, v in zip(ws, vertices)) // det for i in range(m - 1)) for ws in weights)
    return tuple(counts), sums


def _parallelepiped_record(vertices: tuple[IntVec, ...], volume: int, k: int) -> tuple[int, IntVec, int, IntVec]:
    """The closed and interior count and coordinate sums of ``k*P``,
    ``k >= 1``, P the simplex with the given ``vertices`` and ``volume =
    n! vol(P)``, from its fundamental parallelepiped (:func:`_parallelepiped`).

    Every lattice point of ``k*P``, lifted to height k, is one point of the
    parallelepiped at a height h plus ``sum_j m_j (v_j, 1)`` with ``m >= 0``
    summing to ``k - h``: ``C(k-h+n, n)`` choices of m, which add
    ``C(k-h+n, n+1) V`` to the sums, V the sum of the vertices.  Every
    interior point is one of the open parallelepiped plus such a sum, and
    the open one holds the reflections ``sum_j (v_j, 1) - x``: the h*_h
    points x at height h reflect to height n + 1 - h, with sums
    ``h*_h V - X_h``, and take ``C(k+h-1, n)`` choices of m.  The
    parallelepiped must have ``volume`` points, one of them at height 0.
    """
    n = len(vertices) - 1
    hstar, heights = _parallelepiped(vertices)
    points = sum(hstar)
    message = "the fundamental parallelepiped has {} points, not n! vol = {}"
    ensure("lattice.parallelepiped_volume", points == volume, message, points, volume)
    message = "the fundamental parallelepiped has {} points at height 0, not 1"
    ensure("lattice.parallelepiped_origin", hstar[0] == 1, message, hstar[0])
    vertex_sum = [sum(column) for column in zip(*vertices)]
    count, sums, interior, interior_sums = 0, [0] * n, 0, [0] * n
    for h, (points, total) in enumerate(zip(hstar, heights)):
        ways, moved = comb(k - h + n, n), comb(k - h + n, n + 1)
        count += points * ways
        sums = [s + x * ways + points * v * moved for s, x, v in zip(sums, total, vertex_sum)]
        ways, moved = comb(k + h - 1, n), comb(k + h - 1, n + 1)
        interior += points * ways
        interior_sums = [s + (points * v - x) * ways + points * v * moved for s, x, v in zip(interior_sums, total, vertex_sum)]
    return count, tuple(sums), interior, tuple(interior_sums)


def _euclid(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """Sums over ``i = 0..n`` of ``t``, ``i t`` and ``t^2`` for
    ``t = (a i + b) // c``, with ``a, b >= 0`` and ``c > 0``.

    Euclid-like: reducing ``a`` and ``b`` mod ``c`` peels off polynomial
    sums, and then counting the lattice points under the line by rows
    instead of columns swaps the roles of ``a`` and ``c``.
    """
    if a >= c or b >= c:
        qa, a = divmod(a, c)
        qb, b = divmod(b, c)
        f, g, h = _euclid(a, b, c, n)
        s1 = n * (n + 1) // 2
        s2 = s1 * (2 * n + 1) // 3
        return (
            f + qa * s1 + qb * (n + 1),
            g + qa * s2 + qb * s1,
            h + qa * qa * s2 + qb * qb * (n + 1) + 2 * (qa * qb * s1 + qb * f + qa * g),
        )
    m = (a * n + b) // c
    if not m:
        return 0, 0, 0
    f1, g1, h1 = _euclid(c, c - b - 1, a, m - 1)
    f = n * m - f1
    return f, (m * n * (n + 1) - h1 - f1) // 2, n * m * (m + 1) - 2 * (g1 + f1) - f


def _floor_sums(r: int, s: int, c: int, lo: int, hi: int) -> tuple[int, int, int]:
    """Sums over ``y = lo..hi`` (maybe empty) of ``q``, ``y q`` and ``q^2`` for
    ``q = (r + s y) // c``, ``c > 0``: an arithmetic series when ``c``
    divides ``s``, and otherwise one plus :func:`_euclid`'s remainder."""
    n = hi - lo + 1
    if n < 1:
        return 0, 0, 0
    if not s:
        q = r // c
        return q * n, q * (lo + hi) * n // 2, q * q * n
    alpha, s1 = divmod(s, c)
    beta, b1 = divmod(r + s * lo, c)
    # q at y = lo + i is alpha i + beta + (s1 i + b1) // c, with i = 0..n-1
    i1 = n * (n - 1) // 2
    i2 = i1 * (2 * n - 1) // 3
    sq = alpha * i1 + beta * n
    siq = alpha * i2 + beta * i1
    sqq = alpha * alpha * i2 + 2 * alpha * beta * i1 + beta * beta * n
    if s1:
        f, g, h = _euclid(s1, b1, c, n - 1)
        sq += f
        siq += g
        sqq += h + 2 * (alpha * g + beta * f)
    return sq, siq + lo * sq, sqq


# lines (f, s, c) with c > 0 by decreasing slope s / c
_by_slope = cmp_to_key(lambda u, v: v[1] * u[2] - u[1] * v[2])


def _envelope(
    lines: list[tuple[int, int, int]], slack: list[int], shift: int, lo: int, hi: int
) -> list[tuple[int, int, int, int]]:
    """Pieces ``(s, c, r, start)`` of ``min_f (slack[f] - shift + s y) // c``
    over ``y = lo..hi``, for lines ``(f, s, c)`` with ``c > 0`` sorted by
    decreasing slope ``s / c``.

    Each piece runs from its start to the next piece's start minus 1, the
    last one to ``hi``.  Floors keep the order of the real lines, so the
    pieces are those of the real lower envelope, with every breakpoint
    found by cross-multiplication: the line on top of the stack is at most
    the new one exactly up to ``y = e // d``.
    """
    stack: list[tuple[int, int, int, int]] = []
    for f, s, c in lines:
        r = slack[f] - shift
        start = lo
        while stack:
            s0, c0, r0, start0 = stack[-1]
            d = c * s0 - c0 * s
            e = c0 * r - c * r0
            if d:
                if e // d >= start0:
                    start = e // d + 1
                    break
            elif e >= 0:  # parallel and nowhere lower
                start = hi + 1
                break
            stack.pop()
        if start <= hi:
            stack.append((s, c, r, start))
    return stack


def _piece_sums(pieces, lo: int, hi: int, end: int) -> tuple[int, int, int]:
    """:func:`_floor_sums` over the envelope ``pieces``, which end at
    ``end``, clipped to ``lo..hi``."""
    f = g = h = 0
    last = len(pieces) - 1
    for i, (s, c, r, start) in enumerate(pieces):
        stop = pieces[i + 1][3] - 1 if i < last else end
        if start < lo:
            start = lo
        if stop > hi:
            stop = hi
        if start <= stop:
            df, dg, dh = _floor_sums(r, s, c, start, stop)
            f += df
            g += dg
            h += dh
    return f, g, h


def _meet(s1: int, c1: int, r1: int, s2: int, c2: int, r2: int, lo: int, hi: int) -> tuple[int, int]:
    """The ``y`` in ``lo..hi`` with ``(r1 + s1 y) / c1 + (r2 + s2 y) / c2 >= 0``,
    an interval, empty if its first end is greater."""
    e = c2 * s1 + c1 * s2
    k = c2 * r1 + c1 * r2
    if e > 0:
        return max(lo, -(k // e)), hi
    if e < 0:
        return lo, min(hi, k // -e)
    return (lo, hi) if k >= 0 else (hi + 1, hi)


def _nonnegative(low, high, lo: int, hi: int) -> tuple[int, int]:
    """The range of ``y`` in ``lo..hi`` where the real envelopes of the
    pieces ``low`` and ``high`` (both over ``lo..hi``) sum to at least 0.
    Their sum is concave, so the range is an interval, and the walk over
    the pieces stops where it ends."""
    first, last = hi + 1, hi
    i = j = 0
    n1, n2 = len(low) - 1, len(high) - 1
    y = lo
    while y <= hi:
        s1, c1, r1, _ = low[i]
        s2, c2, r2, _ = high[j]
        end1 = low[i + 1][3] - 1 if i < n1 else hi
        end2 = high[j + 1][3] - 1 if j < n2 else hi
        end = end1 if end1 < end2 else end2
        # _meet over y..end, inlined: it runs on the pieces of every row
        e = c2 * s1 + c1 * s2
        q = c2 * r1 + c1 * r2
        a, b = y, end
        if e > 0:
            if -(q // e) > a:
                a = -(q // e)
        elif e < 0:
            if q // -e < b:
                b = q // -e
        elif q < 0:
            a = end + 1
        if a <= b:
            if first > hi:
                first = a
            last = b
            if b < end:
                break
        elif first <= hi:
            break
        if end == end1:
            i += 1
        if end == end2:
            j += 1
        y = end + 1
    return first, last
