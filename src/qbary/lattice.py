"""Integer linear algebra over the lattice Z^n.

Provides row Hermite normal form with a unimodular transform, primitive
vectors, and lattice bases of hyperplane sublattices ``{u : <u, v> = 0}``.
The latter give :class:`AffineLatticeChart`, integer coordinates on an
affine lattice hyperplane in which a fundamental cell of its sublattice has
measure one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InternalInconsistency, InvalidInput
from .linalg import IntVec, dot, solve, vec_add, vec_scale, vec_sub

Matrix = tuple[IntVec, ...]


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (same direction)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise InvalidInput("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def is_primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def hermite_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form ``H = U @ A`` with ``U`` unimodular.

    Pivots are positive, entries below a pivot vanish, and entries above a
    pivot are reduced into ``[0, pivot)``.  Plain integer Gaussian
    elimination with Euclidean reduction; matrix sizes here are tiny.
    """
    h = [list(row) for row in matrix]
    rows = len(h)
    cols = len(h[0]) if rows else 0
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


def hyperplane_basis(v: Sequence[int]) -> tuple[IntVec, ...]:
    """Lattice basis of ``{u in Z^n : <u, v> = 0}`` for primitive ``v``.

    Obtained from the unimodular transform of the Hermite form of the column
    vector ``v``: the transform's first row pairs to 1 with ``v`` and the
    remaining rows are a basis of the orthogonal sublattice.  Each basis
    vector is sign-normalized so its first nonzero entry is positive.
    """
    v = tuple(v)
    if not is_primitive(v):
        raise InvalidInput("hyperplane basis requires a primitive normal")
    n = len(v)
    column = tuple((x,) for x in v)
    h, u = hermite_normal_form(column)
    if h[0][0] != 1:
        raise InternalInconsistency("primitive vector with nonunit Hermite pivot")
    basis = []
    for row in u[1:]:
        lead = next(x for x in row if x != 0)
        basis.append(tuple(row) if lead > 0 else tuple(-x for x in row))
    return tuple(basis)


@dataclass(frozen=True)
class AffineLatticeChart:
    """Integer coordinates on an affine lattice hyperplane.

    ``origin`` is a lattice point of the hyperplane ``<u, normal> = c`` and
    ``basis`` a lattice basis of the direction sublattice, so every lattice
    point of the hyperplane is ``origin + (integer combination of basis)``.
    Chart coordinates make the lattice-normalized measure of the hyperplane
    literally the Euclidean measure.
    """

    origin: IntVec
    normal: IntVec
    basis: tuple[IntVec, ...]

    @staticmethod
    def for_facet(normal: Sequence[int], points: Sequence[IntVec]) -> "AffineLatticeChart":
        """Chart with origin at the lexicographically smallest given point."""
        return AffineLatticeChart(min(points), tuple(normal), hyperplane_basis(normal))

    def to_chart(self, point: Sequence) -> tuple[Fraction, ...]:
        """Coordinates of an (affine-hull) point; exact, integer on lattice points."""
        delta = vec_sub(tuple(point), self.origin)
        if not self.basis:
            if any(x != 0 for x in delta):
                raise InvalidInput("point off the chart's zero-dimensional hyperplane")
            return ()
        columns = list(self.basis) + [self.normal]
        matrix = [[columns[j][i] for j in range(len(columns))] for i in range(len(self.normal))]
        coords = solve(matrix, delta)
        if coords[-1] != 0:
            raise InvalidInput("point does not lie on the chart hyperplane")
        return coords[:-1]

    def from_chart(self, coords: Sequence) -> tuple[Fraction, ...]:
        point = tuple(Fraction(x) for x in self.origin)
        for c, b in zip(coords, self.basis):
            point = vec_add(point, vec_scale(b, c))
        return point
