"""Small exact linear-algebra helpers shared by the geometry modules.

Everything here works on plain tuples/lists of ints or Fractions; matrices
are sequences of rows.  Integer determinants and adjugates (Bareiss) and
ranks (an integer echelon basis) use fraction-free elimination, so
intermediate values stay integral.  The readers :func:`int_list`,
:func:`int_value` and :func:`int_rows` take arguments from outside and
refuse any entry that is not an ``int``, a bool included, rather than
truncate it; rows that :func:`int_rows` has read are not read again.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from typing import Sequence

from .errors import InvalidInput

IntVec = tuple[int, ...]


def int_list(values: object) -> list[int]:
    """The entries of a list, tuple or other iterable, every one an ``int``;
    a bool, float, ``Fraction`` or str entry is refused."""
    # a str or a dict iterates, but is not an array of numbers
    if isinstance(values, (str, dict)) or not isinstance(values, Iterable):
        raise InvalidInput("expected an array of integers")
    entries = list(values)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in entries):
        raise InvalidInput("expected an array of integers")
    return entries


def int_value(value: object, what: str) -> int:
    """``value`` if it is an ``int``; a bool, float, ``Fraction`` or str is
    refused, the message naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    return value


class IntRows(tuple):
    """Rows read by :func:`int_rows`: a nonempty tuple of ``int`` tuples,
    which :func:`int_rows` returns as they are instead of reading them
    again."""

    __slots__ = ()


def int_rows(rows: object) -> IntRows:
    """The vectors of a nonempty list, tuple or other iterable of rows, each
    read by :func:`int_list`."""
    if type(rows) is IntRows:
        return rows
    if isinstance(rows, (str, dict)) or not isinstance(rows, Iterable) or not (rows := list(rows)):
        raise InvalidInput("expected a nonempty array of integer vectors")
    out = []
    for row in rows:
        try:
            out.append(tuple(int_list(row)))
        except InvalidInput:
            raise InvalidInput(f"expected an integer vector, got {row!r}") from None
    return IntRows(out)


def dot(a: Sequence, b: Sequence) -> Fraction | int:
    return sum(map(mul, a, b))


def vec_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(map(add, a, b))


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(map(sub, a, b))


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


def independent_rows(rows: Iterable[Sequence[int]]) -> list[int]:
    """Indices of the integer rows independent of the rows before them, in
    order, stopping once the chosen rows span the whole space.

    The chosen rows are kept as an integer echelon basis, each zero at the
    pivots of the rows before it, and divided by its content; a row is
    independent exactly when it does not reduce to zero against the basis.
    """
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for i, row in enumerate(rows):
        v = list(row)
        for c, b in basis:
            if v[c]:
                f, g = b[c], v[c]
                v = [f * x - g * y for x, y in zip(v, b)]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        content = gcd(*v)
        basis.append((pivot, [x // content for x in v]))
        chosen.append(i)
        if len(chosen) == len(v):
            break
    return chosen


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals."""
    return len(independent_rows(rows))


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


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """``(d, R)`` for a square integer matrix A, with ``d = +-det(A)`` and
    ``R = d A^-1``, so ``A R = R A = d I``: the adjugate times the sign of
    the row swaps.  ``(0, [])`` when A is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss) of ``[A | I]``: the
    pivot of step k clears column k above and below it, and every entry is
    then a minor of the row-swapped ``[A | I]``, so each division by the
    pivot before is exact.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0, []
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        p = top[k]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return prev, [row[n:] for row in m]
