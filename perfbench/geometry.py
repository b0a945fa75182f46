"""Exact reference geometry for the output oracle.

Nothing here imports qbary: every expected value is rebuilt from the
benchmark's own vertex lists, its own brute-force facet search and its own
lattice-point enumeration.

A :class:`Shape` carries its vertices, its facets ``<x, u> >= -b`` (primitive
``u``), and the counting polynomial ``E(k)`` and coordinate-sum polynomials
``S_i(k) = sum of x_i over kP``.  For an atom (a polytope of dimension at
most 4) these come from enumeration at k = 1, 2 only: closed counts give
``E(k), S(k)``, interior counts give ``E(-k), S(-k)`` by Ehrhart-Macdonald
reciprocity, and with ``E(0) = 1, S(0) = 0`` five nodes fix every polynomial
of degree at most 4.  The degree-5 sums of a 4-simplex also use the known
leading term ``vol * barycenter``.  Products, reflections, translations and
dilations transform the polynomials exactly, so large boxes never need
enumerating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd

Poly = tuple  # coefficients lowest degree first, trailing zeros trimmed


# ---------------------------------------------------------------------------
# polynomials and Laurent series

def ptrim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return ptrim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def pscale(a: Poly, s) -> Poly:
    return ptrim(x * s for x in a)


def pshift(a: Poly) -> Poly:
    """Multiply by k."""
    return ptrim((0,) + tuple(a)) if a else ()


def peval(a: Poly, k) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * k + c
    return acc


def pcoef(a: Poly, j: int) -> Fraction:
    return a[j] if 0 <= j < len(a) else Fraction(0)


def interpolate(nodes) -> Poly:
    """Lagrange interpolation through (x, y) pairs with distinct x."""
    total: Poly = ()
    for i, (xi, yi) in enumerate(nodes):
        term: Poly = (Fraction(yi),)
        for j, (xj, _) in enumerate(nodes):
            if j != i:
                term = pscale(pmul(term, (Fraction(-xj), Fraction(1))), Fraction(1, xi - xj))
        total = padd(total, term)
    return total


def laurent(num: Poly, den: Poly, order: int) -> tuple[Fraction, ...]:
    """First ``order`` coefficients of num/den in powers of 1/k at infinity."""
    d = len(den) - 1
    if len(num) - 1 > d:
        raise ValueError("numerator degree exceeds denominator degree")
    out: list[Fraction] = []
    for j in range(order):
        acc = pcoef(num, d - j)
        for i in range(j):
            acc -= out[i] * pcoef(den, d - (j - i))
        out.append(acc / den[d])
    return tuple(out)


def enc(q) -> int | str:
    """Rational in the CLI's JSON form: bare integer or "p/q"."""
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# integer linear algebra

def det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n, d = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p], d = a[p], a[c], -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return tuple(int(x) // g for x in v)


def normal_of(points) -> tuple[int, ...]:
    """Integer normal of the hyperplane through ``dim`` points (zero if they
    are affinely dependent), by cofactor expansion."""
    o = points[0]
    rows = [[p[i] - o[i] for i in range(len(o))] for p in points[1:]]
    n = len(o)
    return tuple(
        int((-1) ** i * det([r[:i] + r[i + 1:] for r in rows])) for i in range(n)
    )


# ---------------------------------------------------------------------------
# shapes

Facet = tuple  # (normal, offset): <x, normal> >= -offset


@dataclass(frozen=True)
class Shape:
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[Facet, ...]
    E: Poly
    S: tuple[Poly, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def reflexive(self) -> bool:
        return all(b == 1 for _, b in self.facets)

    @property
    def delzant(self) -> bool:
        n = self.dim
        for v in self.vertices:
            tight = [u for u, b in self.facets if dot(u, v) == -b]
            if len(tight) != n or abs(det(tight)) != 1:
                return False
        return True

    @property
    def volume(self) -> Fraction:
        return pcoef(self.E, self.dim)

    @property
    def barycenter(self) -> tuple[Fraction, ...]:
        return tuple(pcoef(s, self.dim + 1) / self.volume for s in self.S)

    @property
    def boundary_volume(self) -> Fraction:
        return 2 * pcoef(self.E, self.dim - 1)

    @property
    def boundary_barycenter(self) -> tuple[Fraction, ...]:
        return tuple(2 * pcoef(s, self.dim) / self.boundary_volume for s in self.S)

    def bc_k(self, k: int) -> tuple[Fraction, ...]:
        e = peval(self.E, k)
        return tuple(peval(s, k) / (k * e) for s in self.S)

    def pairing(self, v) -> Poly:
        """Polynomial <S(k), v>."""
        total: Poly = ()
        for s, c in zip(self.S, v):
            total = padd(total, pscale(s, c))
        return total

    def support(self, v) -> int:
        return min(dot(x, v) for x in self.vertices)

    def document(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}


def facets_of(vertices) -> tuple[Facet, ...]:
    """All facets by brute force over dim-subsets of the vertices."""
    n = len(vertices[0])
    if n == 1:
        lo, hi = min(v[0] for v in vertices), max(v[0] for v in vertices)
        return (((1,), -lo), ((-1,), hi))
    found = set()
    for sub in combinations(vertices, n):
        u = normal_of(sub)
        if not any(u):
            continue
        u = primitive(u)
        h = dot(u, sub[0])
        side = {(dot(u, v) > h) - (dot(u, v) < h) for v in vertices} - {0}
        if side == {-1}:
            u, h = tuple(-x for x in u), -h
        elif side != {1}:
            continue
        found.add((u, -h))
    return tuple(sorted(found))


def _stats(vertices, facets, k: int, strict: bool):
    n = len(vertices[0])
    ranges = [range(k * min(v[i] for v in vertices), k * max(v[i] for v in vertices) + 1) for i in range(n)]
    count, sums = 0, [0] * n
    for x in product(*ranges):
        if all((dot(x, u) > -k * b) if strict else (dot(x, u) >= -k * b) for u, b in facets):
            count += 1
            for i in range(n):
                sums[i] += x[i]
    return count, sums


def atom(vertices) -> Shape:
    """Shape of a polytope of dimension at most 4 from its vertex list.

    Every listed point must be a vertex; a 4-dimensional atom must be a
    simplex, whose volume and barycenter pin the degree-5 sums.
    """
    vertices = tuple(sorted(tuple(int(x) for x in v) for v in vertices))
    n = len(vertices[0])
    if n > 4 or (n == 4 and len(vertices) != 5):
        raise ValueError("atoms are polytopes of dimension <= 3 or 4-simplices")
    facets = facets_of(vertices)
    sign_e, sign_s = (-1) ** n, (-1) ** (n + 1)
    e_nodes, s_nodes = [(0, 1)], [[(0, 0)] for _ in range(n)]
    for k in (1, 2):
        c, s = _stats(vertices, facets, k, False)
        ci, si = _stats(vertices, facets, k, True)
        e_nodes += [(k, c), (-k, sign_e * ci)]
        for i in range(n):
            s_nodes[i] += [(k, s[i]), (-k, sign_s * si[i])]
    E = interpolate(e_nodes)
    if n == 4:
        vol = abs(det([[v[i] - vertices[0][i] for i in range(n)] for v in vertices[1:]])) / factorial(n)
        if pcoef(E, 4) != vol:
            raise ValueError("enumeration disagrees with the simplex volume")
        lead = [vol * Fraction(sum(v[i] for v in vertices), n + 1) for i in range(n)]
        S = tuple(
            padd(interpolate([(k, y - lead[i] * k ** 5) for k, y in s_nodes[i]]), (0,) * 5 + (lead[i],))
            for i in range(n)
        )
    else:
        S = tuple(interpolate(nodes) for nodes in s_nodes)
    if len(E) != n + 1 or any(len(s) > n + 2 for s in S):
        raise ValueError("enumerated counts are not of Ehrhart degree")
    if {tuple(v) for v in vertices} != _extreme_points(vertices, facets):
        raise ValueError("atom input lists a non-vertex point")
    return Shape(vertices, facets, E, S)


def _extreme_points(vertices, facets) -> set:
    n = len(vertices[0])
    out = set()
    for v in vertices:
        tight = [u for u, b in facets if dot(u, v) == -b]
        if len(tight) >= n and any(det(rows) != 0 for rows in combinations(tight, n)):
            out.add(tuple(v))
    return out


def segment(lo: int, hi: int) -> Shape:
    return atom([(lo,), (hi,)])


def cartesian(a: Shape, b: Shape) -> Shape:
    za, zb = (0,) * a.dim, (0,) * b.dim
    return Shape(
        tuple(sorted(u + w for u in a.vertices for w in b.vertices)),
        tuple(sorted([(u + zb, c) for u, c in a.facets] + [(za + w, c) for w, c in b.facets])),
        pmul(a.E, b.E),
        tuple(pmul(s, b.E) for s in a.S) + tuple(pmul(a.E, s) for s in b.S),
    )


def box(*sides: int) -> Shape:
    shape = segment(0, sides[0])
    for s in sides[1:]:
        shape = cartesian(shape, segment(0, s))
    return shape


def reflect(shape: Shape, signs) -> Shape:
    """Apply x_i -> signs[i] * x_i."""
    flip = lambda v: tuple(s * x for s, x in zip(signs, v))
    return Shape(
        tuple(sorted(flip(v) for v in shape.vertices)),
        tuple(sorted((flip(u), b) for u, b in shape.facets)),
        shape.E,
        tuple(pscale(p, s) for p, s in zip(shape.S, signs)),
    )


def translate(shape: Shape, t) -> Shape:
    """P + t: sums gain k * t_i * E(k)."""
    kE = pshift(shape.E)
    return Shape(
        tuple(sorted(tuple(x + y for x, y in zip(v, t)) for v in shape.vertices)),
        tuple(sorted((u, b - dot(u, t)) for u, b in shape.facets)),
        shape.E,
        tuple(padd(s, pscale(kE, ti)) for s, ti in zip(shape.S, t)),
    )


def dilate(shape: Shape, m: int) -> Shape:
    """mP: every polynomial is evaluated at m*k."""
    at_mk = lambda p: ptrim(c * m ** j for j, c in enumerate(p))
    return Shape(
        tuple(sorted(tuple(m * x for x in v) for v in shape.vertices)),
        tuple(sorted((u, m * b) for u, b in shape.facets)),
        at_mk(shape.E),
        tuple(at_mk(s) for s in shape.S),
    )


def rooftop(shape: Shape, v, q: int) -> tuple[set, set]:
    """Vertex set and facet set of {(x, h): x in P, 0 <= h <= <x, v> + q}."""
    verts = {x + (0,) for x in shape.vertices} | {x + (dot(x, v) + q,) for x in shape.vertices}
    facets = {(u + (0,), b) for u, b in shape.facets}
    facets |= {((0,) * shape.dim + (1,), 0), (tuple(v) + (-1,), q)}
    return verts, facets


def rooftop_is_delzant(shape: Shape, v, q: int) -> bool:
    verts, facets = rooftop(shape, v, q)
    for x in verts:
        tight = [u for u, b in facets if dot(u, x) == -b]
        if len(tight) != shape.dim + 1 or abs(det(tight)) != 1:
            return False
    return True

