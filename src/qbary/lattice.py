"""Integer linear algebra over the lattice Z^n: primitive vectors and the
row Hermite normal form with a unimodular transform."""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import InvalidInput
from .linalg import IntVec, int_list, int_rows

Matrix = tuple[IntVec, ...]


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
