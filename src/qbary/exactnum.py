"""Exact scalar and univariate algebra: rationals, dense polynomials,
rational functions, Laurent expansions at infinity, Bernoulli numbers.

Conventions
-----------
* A polynomial in the dilation variable ``k`` holds integer numerators over
  one positive denominator, lowest degree first, in lowest terms with
  trailing zeros trimmed.  The zero polynomial is ``((), 1)``.
* Arithmetic, interpolation, values, gcds and Laurent expansions run on
  those integers, with one gcd normalization per result.
* ``fractions.Fraction`` values appear only at the API: coefficients,
  values, series terms and scalars passed in.  ``Rational`` is an alias for
  it.
* A Laurent series at infinity stores ``c_0, c_1, ...`` where the ``j``-th
  entry multiplies ``k^(-j)``.
* Bernoulli numbers follow the Todd normalization ``x / (1 - exp(-x))``,
  which fixes ``B_1 = +1/2``; all other values agree with the classical
  convention.

JSON encoding: rationals serialize as bare integers when integral and as
``"p/q"`` strings otherwise; polynomials serialize as coefficient arrays,
lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import InvalidInput, NotBoundedAtInfinity
from .linalg import int_value

Rational = Fraction
RationalLike = Union[int, Fraction]
Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# rational serialization

def rational_to_json(q: RationalLike) -> int | str:
    """Encode a rational as a bare int when integral, else as ``"p/q"``.
    An int is returned as it is and a Fraction read as it is; any other
    value, a bool included, goes through ``Fraction`` first."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return q.numerator
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
# immutable values

class Immutable:
    """Base of the slotted value types that a tuple would not serve.

    A value compares and hashes by its type and its fields, the names in
    ``__slots__`` in order, and prints as ``Name(field=value, ...)``.
    Assigning to it raises ``AttributeError``; ``__init__`` sets the fields
    through ``object.__setattr__``.  A pickle rebuilds the value through its
    constructor.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


# ---------------------------------------------------------------------------
# polynomials

def rational_value(value: object, what: str) -> RationalLike:
    """``value`` if it is an ``int`` or a ``Fraction``; a bool, float or str
    is refused, the message naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InvalidInput(f"{what} must be an integer or a Fraction, got {value!r}")
    return value


def rational_vector(values: object, what: str) -> tuple[RationalLike, ...]:
    """The entries of an array, each read by :func:`rational_value`; a str,
    a dict or anything else that is not an array is refused."""
    if isinstance(values, (str, dict)) or not isinstance(values, Iterable):
        raise InvalidInput(f"expected a {what}, an array of rationals")
    return tuple(rational_value(x, f"{what} entry") for x in values)


def integer_numerators(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    values = list(values)
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


class Polynomial(Immutable):
    """Dense univariate polynomial: integer numerators over one denominator.

    ``numerators[i] / denominator`` is the coefficient of ``k**i``.  The form
    is canonical, so equal polynomials compare and hash equal: trailing zeros
    are trimmed, the denominator is positive and shares no factor with all
    the numerators, and the zero polynomial is ``((), 1)``.  Build instances
    through :meth:`of` or :meth:`over`.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: tuple[int, ...], denominator: int = 1) -> None:
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    @staticmethod
    def over(numerators: Iterable[int], denominator: int) -> "Polynomial":
        """``numerators[i] / denominator`` at ``k**i``, in lowest terms."""
        if not denominator:
            raise InvalidInput("polynomial with zero denominator")
        nums = list(numerators)
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return _ZERO
        g = gcd(denominator, *nums)
        if denominator < 0:
            g = -g
        return Polynomial(tuple(c // g for c in nums), denominator // g)

    @staticmethod
    def of(coeffs: Iterable[RationalLike]) -> "Polynomial":
        return Polynomial.over(*integer_numerators(rational_value(c, "coefficient") for c in coeffs))

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        return Polynomial.of([c])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return Fraction(self.numerators[-1], self.denominator)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of ``k**i`` (zero outside the stored range)."""
        if 0 <= i < len(self.numerators):
            return Fraction(self.numerators[i], self.denominator)
        return Fraction(0)

    def __call__(self, k: RationalLike) -> Fraction:
        # Horner homogenized in k = u/v: the sum of n_i u^i v^(d-i), then
        # divided by v^d and the denominator.
        k = rational_value(k, "argument")
        u, v = k.numerator, k.denominator
        acc, scale = 0, 1
        for c in reversed(self.numerators):
            acc = acc * u + c * scale
            scale *= v
        return Fraction(acc, self.denominator * scale // v) if acc else Fraction(0)

    def numerator_at(self, k: int) -> int:
        """``denominator * self(k)``, an integer for integer ``k``."""
        acc = 0
        for c in reversed(self.numerators):
            acc = acc * k + c
        return acc

    def _plus(self, other: "Polynomial | RationalLike", sign: int) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = rational_value(other, "term")
            other = Polynomial.over([other.numerator], other.denominator)
        a, b = self.numerators, other.numerators
        den = lcm(self.denominator, other.denominator)
        sa, sb = den // self.denominator, sign * (den // other.denominator)
        out = [c * sa for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c * sb
        return Polynomial.over(out, den)

    def __add__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other: RationalLike) -> "Polynomial":
        return -self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.numerators), self.denominator)

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = rational_value(other, "factor")
            nums = (c * other.numerator for c in self.numerators)
            return Polynomial.over(nums, self.denominator * other.denominator)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial.over(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise InvalidInput("polynomial division by zero")
        # s a = q b + r on the numerators, so self = q db / (s da) other + r / (s da)
        q, r, s = _pseudo_divide(self.numerators, other.numerators)
        den = s * self.denominator
        return Polynomial.over((c * other.denominator for c in q), den), Polynomial.over(r, den)

    def shift_down(self) -> "Polynomial":
        """Exact division by ``k``; the constant term must vanish."""
        if self.is_zero:
            return self
        if self.numerators[0]:
            raise InvalidInput("polynomial has nonzero constant term")
        return Polynomial(self.numerators[1:], self.denominator)

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


_ZERO = Polynomial(())


def _pseudo_divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of coefficient lists, lowest degree first:
    ``s a = q b + r`` with ``deg r < deg b`` and ``s`` a power of b's leading
    coefficient.  Each step scales by that coefficient, so nothing divides."""
    rem, lead, d = list(a), b[-1], len(b) - 1
    q, s = [0] * max(0, len(a) - d), 1
    for i in range(len(a) - 1, d - 1, -1):
        c = rem[i]
        if not c:
            continue
        s *= lead
        q = [x * lead for x in q]
        q[i - d] = c
        for j in range(i - d):
            rem[j] *= lead
        for j, y in enumerate(b[:-1], i - d):
            rem[j] = rem[j] * lead - c * y
        rem[i] = 0
    return q, rem[:d], s


def _primitive(a: Sequence[int]) -> list[int]:
    """Trimmed integer coefficients divided by their content."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (the constant 1 for coprime inputs).

    A primitive remainder sequence on the integer numerators: each
    pseudo-remainder is divided by its content, which keeps the
    coefficients small and changes the gcd only by a constant factor."""
    x, y = _primitive(a.numerators), _primitive(b.numerators)
    while y:
        x, y = y, _primitive(_pseudo_divide(x, y)[1])
    return Polynomial.over(x, x[-1]) if x else _ZERO


@lru_cache(maxsize=32)
def _lagrange_basis(xs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer Lagrange basis at distinct integer abscissae: row ``i`` over
    the common denominator is the polynomial that is 1 at ``xs[i]`` and 0
    at the others, lowest degree first.

    The master product ``M(k) = prod_j (k - x_j)`` is built once; row ``i``
    is ``M(k) / (k - x_i)``, got by synthetic division, over
    ``prod_{j != i} (x_i - x_j)``.
    """
    master = [1]  # lowest degree first
    for x in xs:
        master = [a - x * b for a, b in zip([0] + master, master + [0])]
    rows, weights = [], []
    for i, xi in enumerate(xs):
        weight = 1
        for j, xj in enumerate(xs):
            if j != i:
                weight *= xi - xj
        quotient = [1]  # highest degree first while dividing by (k - xi)
        for c in master[-2:0:-1]:
            quotient.append(c + xi * quotient[-1])
        rows.append(quotient[::-1])
        weights.append(weight)
    common = lcm(*weights)
    return tuple(tuple(c * (common // w) for c in row) for row, w in zip(rows, weights)), common


def poly_fit(samples: Sequence[tuple[RationalLike, RationalLike]]) -> Polynomial:
    """Unique interpolating polynomial of degree < len(samples).

    The abscissae must be pairwise distinct; interpolation is exact and runs
    on integers.  The abscissae ``x_i = X_i / V`` and the samples
    ``y_i = Y_i / W`` are brought to common denominators.  The fit at the
    integers ``X_i`` sums the integer Lagrange basis rows times ``Y_i``,
    and its coefficient of ``k^e``, times ``V^e``, is that of the fit at
    ``x_i``.  The basis depends only on the abscissae and is cached for a
    few of them.

    Samples that are all plain ``int``, as the Ehrhart fits give, are their
    own numerators over ``V = W = 1`` and are read as they are; any other
    sample takes the general read, which refuses a bool, float or str.
    """
    if not isinstance(samples, (list, tuple)) or not all(isinstance(s, (list, tuple)) and len(s) == 2 for s in samples):
        raise InvalidInput("samples must be a list of pairs (x, y)")
    if not samples:
        raise InvalidInput("need at least one sample")
    xs, ys = zip(*samples)
    plain = all(type(q) is int for q in xs + ys)
    v = w = 1
    if not plain:
        xs, v = integer_numerators(rational_value(x, "abscissa") for x in xs)
    if len(set(xs)) != len(xs):
        raise InvalidInput("duplicate abscissa in interpolation samples")
    if not plain:
        ys, w = integer_numerators(rational_value(y, "sample value") for y in ys)
    rows, common = _lagrange_basis(tuple(xs))
    total = [0] * len(xs)
    for y, row in zip(ys, rows):
        if y:
            for e, c in enumerate(row):
                total[e] += y * c
    if v != 1:
        total = [c * v**e for e, c in enumerate(total)]
    return Polynomial.over(total, common * w)


# ---------------------------------------------------------------------------
# rational functions and Laurent expansion

class RationalFunction(Immutable):
    """Reduced quotient of two polynomials.

    Canonical form: numerator and denominator share no polynomial factor, the
    denominator has coprime integer coefficients, and its leading coefficient
    is positive.  Build instances through :meth:`of`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(num: Polynomial, den: Polynomial) -> "RationalFunction":
        if den.is_zero:
            raise InvalidInput("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        # scale so the denominator has coprime integer coefficients and a
        # positive leading coefficient
        content = gcd(*den.numerators)
        scale = Fraction(den.denominator, content if den.numerators[-1] > 0 else -content)
        return RationalFunction(num * scale, den * scale)

    def __call__(self, k: RationalLike) -> Fraction:
        d = self.den(k)
        if d == 0:
            raise InvalidInput(f"denominator vanishes at {k}")
        return self.num(k) / d


class LaurentSeries(Immutable):
    """Truncated expansion sum_j c_j k^(-j); entry j multiplies k^(-j)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "coefficients", coefficients)

    def coefficient(self, j: int) -> Fraction:
        return self.coefficients[j]


def laurent_expand(num: Polynomial, den: Polynomial, order: int) -> LaurentSeries:
    """First ``order`` coefficients of the expansion of ``num / den`` at
    ``k = oo``.

    Substituting ``t = 1/k`` turns the quotient into one of polynomials in
    ``t`` with invertible (nonzero constant term) denominator, which is then
    divided as a formal power series.  The expansion is that of the function,
    so a factor common to ``num`` and ``den`` need not be cancelled first.
    Requires deg(num) <= deg(den).
    """
    if int_value(order, "expansion order") < 0:
        raise InvalidInput("order must be nonnegative")
    if den.is_zero:
        raise InvalidInput("rational function with zero denominator")
    if num.degree > den.degree:
        raise NotBoundedAtInfinity(
            f"numerator degree {num.degree} exceeds denominator degree {den.degree}"
        )
    # num / den = (N / D) (den.denominator / num.denominator) for the integer
    # numerators N and D, with coefficients n_j and d_j at k^(deg den - j).
    # Term j of N / D times l^(j+1), with l = d_0, is the integer
    # t_j = l^j n_j - sum_{i<j} t_i d_{j-i} l^(j-1-i), where d_{j-i} = 0
    # once j - i > deg den: only the last deg den terms are read.
    d = den.degree
    n_rev, d_rev = (
        [p.numerators[e] if 0 <= e < len(p.numerators) else 0 for e in range(d, d - order, -1)]
        for p in (num, den)
    )
    lead = den.numerators[-1]
    powers, terms = [1], []
    for j in range(order):
        t = n_rev[j] * powers[j]
        for i in range(max(0, j - d), j):
            t -= terms[i] * d_rev[j - i] * powers[j - 1 - i]
        terms.append(t)
        powers.append(powers[j] * lead)
    return LaurentSeries(
        tuple(Fraction(t * den.denominator, l * num.denominator) for t, l in zip(terms, powers[1:]))
    )


# ---------------------------------------------------------------------------
# Bernoulli numbers (Todd normalization)

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(j: int) -> Fraction:
    """The ``j``-th Bernoulli number with ``B_1 = +1/2``.

    These are the numbers in ``x/(1-exp(-x)) = sum_j B_j x^j / j!``; computed
    from the recurrence ``sum_{i<=m} C(m+1, i) B_i = m+1``.
    """
    if int_value(j, "Bernoulli index") < 0:
        raise InvalidInput("Bernoulli index must be nonnegative")
    while len(_BERNOULLI) <= j:
        m = len(_BERNOULLI)
        acc = Fraction(m + 1)
        for i, b in enumerate(_BERNOULLI):
            acc -= comb(m + 1, i) * b
        _BERNOULLI.append(acc / (m + 1))
    return _BERNOULLI[j]
