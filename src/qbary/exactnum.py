"""Exact scalar and univariate algebra: rationals, dense polynomials,
rational functions, Laurent expansions at infinity, Bernoulli numbers.

Conventions
-----------
* All scalars are ``fractions.Fraction`` values (always reduced, positive
  denominator); ``Rational`` is an alias for it.
* Polynomials are dense coefficient tuples in the dilation variable ``k``,
  lowest degree first, trailing zeros trimmed.  The zero polynomial has an
  empty coefficient tuple.
* A Laurent series at infinity stores ``c_0, c_1, ...`` where the ``j``-th
  entry multiplies ``k^(-j)``.
* Values and Laurent expansions run on integers: numerators over an lcm of
  denominators, with one Fraction per result.
* Bernoulli numbers follow the Todd normalization ``x / (1 - exp(-x))``,
  which fixes ``B_1 = +1/2``; all other values agree with the classical
  convention.

JSON encoding: rationals serialize as bare integers when integral and as
``"p/q"`` strings otherwise; polynomials serialize as coefficient arrays,
lowest degree first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import InvalidInput, NotBoundedAtInfinity

Rational = Fraction
RationalLike = Union[int, Fraction]
Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# rational serialization

def rational_to_json(q: RationalLike) -> int | str:
    """Encode a rational as a bare int when integral, else as ``"p/q"``."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def rational_from_json(value: object) -> Fraction:
    """Decode an int or a ``"p/q"`` string into a Fraction."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InvalidInput(f"rationals must be integers or 'p/q' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse rational {value!r}") from exc
    raise InvalidInput(f"cannot parse rational {value!r}")


def vector_to_json(v: Sequence[RationalLike]) -> list[int | str]:
    return [rational_to_json(x) for x in v]


# ---------------------------------------------------------------------------
# polynomials

@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    ``coefficients[i]`` multiplies ``k**i``; trailing zeros are trimmed so the
    leading coefficient is nonzero unless the polynomial is zero (empty
    tuple).
    """

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def of(coeffs: Iterable[RationalLike]) -> "Polynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        return Polynomial.of([c])

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of ``k**i`` (zero outside the stored range)."""
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return Fraction(0)

    def __call__(self, k: RationalLike) -> Fraction:
        # Horner on the integer numerators over their lcm, homogenized in
        # k = u/v: the sum of c_i u^i v^(d-i), then divided by v^d.
        den = lcm(*(c.denominator for c in self.coefficients))
        u, v = k.numerator, k.denominator
        acc, scale = 0, 1
        for c in reversed(self.coefficients):
            acc = acc * u + c.numerator * (den // c.denominator) * scale
            scale *= v
        return Fraction(acc, den * scale // v) if acc else Fraction(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.of(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial.of(c * other for c in self.coefficients)
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial.of(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise InvalidInput("polynomial division by zero")
        rem = list(self.coefficients)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coefficients) + 1)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            factor = rem[i] / lead
            q[i - d] = factor
            for j, c in enumerate(other.coefficients):
                rem[i - d + j] -= factor * c
        return Polynomial.of(q), Polynomial.of(rem)

    def shift_down(self) -> "Polynomial":
        """Exact division by ``k``; the constant term must vanish."""
        if not self.is_zero and self.coefficients[0] != 0:
            raise InvalidInput("polynomial has nonzero constant term")
        return Polynomial(self.coefficients[1:])

    def to_json(self) -> list[int | str]:
        return [rational_to_json(c) for c in self.coefficients]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*k" if c != 1 else "k")
            else:
                parts.append(f"{c}*k^{i}" if c != 1 else f"k^{i}")
        return " + ".join(reversed(parts))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (the constant 1 for coprime inputs)."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.leading)


def poly_fit(samples: Sequence[tuple[RationalLike, RationalLike]]) -> Polynomial:
    """Unique interpolating polynomial of degree < len(samples).

    The abscissae must be pairwise distinct; interpolation is exact.  The
    master product ``M(k) = prod_j (k - x_j)`` is built once; sample ``i``
    contributes ``M(k) / (k - x_i)``, got by synthetic division, times the
    weight ``y_i / prod_{j != i} (x_i - x_j)``.  The weights are brought to
    one common denominator, so the contributions are summed as integer
    multiples and each coefficient is divided once at the end.  Integral
    abscissae stay Python ints throughout.
    """
    if not samples:
        raise InvalidInput("need at least one sample")
    xs = [_int_if_integral(x) for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise InvalidInput("duplicate abscissa in interpolation samples")
    master = [1]  # lowest degree first
    for x in xs:
        master = [a - x * b for a, b in zip([0] + master, master + [0])]
    terms = []
    for i, (xi, (_, yi)) in enumerate(zip(xs, samples)):
        if yi == 0:
            continue
        scale = 1
        for j, xj in enumerate(xs):
            if j != i:
                scale *= xi - xj
        quotient = [1]  # highest degree first while dividing by (k - xi)
        for c in master[-2:0:-1]:
            quotient.append(c + xi * quotient[-1])
        terms.append((Fraction(yi, scale), quotient))
    common = lcm(*(w.denominator for w, _ in terms))
    total = [0] * len(xs)
    for w, quotient in terms:
        multiple = w.numerator * (common // w.denominator)
        for e, c in enumerate(quotient):
            total[e] += multiple * c
    return Polynomial.of(Fraction(c, common) for c in reversed(total))


def _int_if_integral(q: RationalLike) -> RationalLike:
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# rational functions and Laurent expansion

@dataclass(frozen=True)
class RationalFunction:
    """Reduced quotient of two polynomials.

    Canonical form: numerator and denominator share no polynomial factor, the
    denominator has coprime integer coefficients, and its leading coefficient
    is positive.  Build instances through :meth:`of`.
    """

    num: Polynomial
    den: Polynomial

    @staticmethod
    def of(num: Polynomial, den: Polynomial) -> "RationalFunction":
        if den.is_zero:
            raise InvalidInput("rational function with zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        # scale so the denominator has coprime integer coefficients and a
        # positive leading coefficient
        denoms = [c.denominator for c in den.coefficients]
        scale = Fraction(lcm(*denoms) if denoms else 1)
        ints = [int(c * scale) for c in den.coefficients]
        g_int = 0
        for v in ints:
            g_int = gcd(g_int, v)
        if g_int:
            scale /= g_int
        if den.leading * scale < 0:
            scale = -scale
        return RationalFunction(num * scale, den * scale)

    def __call__(self, k: RationalLike) -> Fraction:
        d = self.den(k)
        if d == 0:
            raise InvalidInput(f"denominator vanishes at {k}")
        return self.num(k) / d


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated expansion sum_j c_j k^(-j); entry j multiplies k^(-j)."""

    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def coefficient(self, j: int) -> Fraction:
        return self.coefficients[j]

    def truncate(self, order: int) -> "LaurentSeries":
        return LaurentSeries(self.coefficients[:order])


def laurent_expand(num: Polynomial, den: Polynomial, order: int) -> LaurentSeries:
    """First ``order`` coefficients of the expansion of ``num / den`` at
    ``k = oo``.

    Substituting ``t = 1/k`` turns the quotient into one of polynomials in
    ``t`` with invertible (nonzero constant term) denominator, which is then
    divided as a formal power series.  The expansion is that of the function,
    so a factor common to ``num`` and ``den`` need not be cancelled first.
    Requires deg(num) <= deg(den).
    """
    if order < 0:
        raise InvalidInput("order must be nonnegative")
    if den.is_zero:
        raise InvalidInput("rational function with zero denominator")
    if num.degree > den.degree:
        raise NotBoundedAtInfinity(
            f"numerator degree {num.degree} exceeds denominator degree {den.degree}"
        )
    # Times the lcm of their denominators, num and den have integer
    # coefficients n_j and d_j at k^(deg den - j).  Term j times l^(j+1), with
    # l = d_0, is the integer t_j = l^j n_j - sum_{i<j} t_i d_{j-i} l^(j-1-i).
    scale, d = lcm(*(c.denominator for c in num.coefficients + den.coefficients)), den.degree
    n_rev, d_rev = (
        [c.numerator * (scale // c.denominator) for c in map(p.coefficient, range(d, d - order, -1))]
        for p in (num, den)
    )
    lead = den.leading.numerator * (scale // den.leading.denominator)
    powers, terms = [1], []
    for j in range(order):
        t = n_rev[j] * powers[j]
        for i in range(j):
            t -= terms[i] * d_rev[j - i] * powers[j - 1 - i]
        terms.append(t)
        powers.append(powers[j] * lead)
    return LaurentSeries(tuple(Fraction(t, l) for t, l in zip(terms, powers[1:])))


# ---------------------------------------------------------------------------
# Bernoulli numbers (Todd normalization)

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(j: int) -> Fraction:
    """The ``j``-th Bernoulli number with ``B_1 = +1/2``.

    These are the numbers in ``x/(1-exp(-x)) = sum_j B_j x^j / j!``; computed
    from the recurrence ``sum_{i<=m} C(m+1, i) B_i = m+1``.
    """
    if j < 0:
        raise InvalidInput("Bernoulli index must be nonnegative")
    while len(_BERNOULLI) <= j:
        m = len(_BERNOULLI)
        acc = Fraction(m + 1)
        for i, b in enumerate(_BERNOULLI):
            acc -= comb(m + 1, i) * b
        _BERNOULLI.append(acc / (m + 1))
    return _BERNOULLI[j]
