"""Small exact linear-algebra helpers shared by the geometry modules.

Everything here works on plain tuples/lists of ints or Fractions; matrices
are sequences of rows.  Integer determinants use fraction-free Bareiss
elimination so intermediate values stay integral.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput

IntVec = tuple[int, ...]


def dot(a: Sequence, b: Sequence) -> Fraction | int:
    return sum(x * y for x, y in zip(a, b))


def vec_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix via Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[j][i] != 0:
                    m[i], m[j] = m[j], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                m[j][k] = (m[j][k] * m[i][i] - m[j][i] * m[i][k]) // prev
            m[j][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals (exact Gaussian elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve a square nonsingular system ``matrix @ x = rhs`` exactly."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise InvalidInput("singular linear system")
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def cross_normal(rows: Sequence[Sequence[int]]) -> IntVec:
    """Integer vector orthogonal to ``d-1`` integer rows in dimension ``d``.

    Generalized cross product via cofactor expansion: component ``j`` is
    ``(-1)**j`` times the minor obtained by deleting column ``j``.  Returns
    the zero vector exactly when the rows are linearly dependent.
    """
    d = len(rows) + 1
    out = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in rows]
        out.append((-1) ** j * int_det(minor))
    return tuple(out)


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)
