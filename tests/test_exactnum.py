from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbary as qb
from qbary.exactnum import Polynomial, RationalFunction, rational_from_json, rational_to_json
from qbary.linalg import solve


# ---------------------------------------------------------------------------
# polynomials and interpolation

def test_poly_fit_quadratic_counting_samples():
    fit = qb.poly_fit([(0, 1), (1, 10), (2, 28)])
    assert fit.coefficients == (F(1), F(9, 2), F(9, 2))


def test_poly_fit_constant_and_line():
    assert qb.poly_fit([(0, F(7, 3))]).coefficients == (F(7, 3),)
    assert qb.poly_fit([(0, 1), (1, 3), (2, 5)]).coefficients == (F(1), F(2))


def test_poly_fit_duplicate_abscissa_rejected():
    with pytest.raises(qb.InvalidInput):
        qb.poly_fit([(1, 1), (1, 2)])
    with pytest.raises(qb.InvalidInput):
        qb.poly_fit([])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=1,
        max_size=6,
    )
)
def test_poly_fit_reproduces_held_out_samples(coeffs):
    poly = Polynomial.of(coeffs)
    n_samples = max(len(poly.coefficients), 1) + 1
    fit = qb.poly_fit([(k, poly(k)) for k in range(n_samples)])
    assert fit == poly
    for k in range(n_samples, n_samples + 4):
        assert fit(k) == poly(k)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
            st.one_of(st.just(F(0)), st.fractions(min_value=-20, max_value=20, max_denominator=7)),
        ),
        min_size=1,
        max_size=7,
        unique_by=lambda sample: sample[0],
    )
)
@example([(F(-3, 2), F(0)), (F(4), F(0)), (F(0), F(0))])
@example([(F(-7, 3), F(5, 2))])
def test_poly_fit_matches_the_vandermonde_solve_on_general_abscissae(samples):
    # distinct rational abscissae in any order; the oracle is Gaussian
    # elimination on the Vandermonde system, not interpolation
    fit = qb.poly_fit(samples)
    assert fit.degree < len(samples)
    for x, y in samples:
        assert fit(x) == y
    vandermonde = [[x**e for e in range(len(samples))] for x, _ in samples]
    assert fit == Polynomial.of(solve(vandermonde, [y for _, y in samples]))


def test_polynomial_divmod_exact():
    a = Polynomial.of([1, 4, 4])  # (2k+1)^2 / ... ish
    b = Polynomial.of([1, 2])
    q, r = a.divmod(b)
    assert q * b + r == a
    with pytest.raises(qb.InvalidInput):
        a.divmod(Polynomial.zero())


def test_shift_down_requires_zero_constant():
    assert Polynomial.of([0, 2, 3]).shift_down() == Polynomial.of([2, 3])
    with pytest.raises(qb.InvalidInput):
        Polynomial.of([1, 2]).shift_down()


# ---------------------------------------------------------------------------
# rational functions and Laurent expansion

def test_laurent_barycenter_coordinate_example():
    # numerator/denominator of a quantized-barycenter coordinate; the value
    # at k=1 must be 1/9 and the leading expansion terms are fixed
    f = RationalFunction.of(Polynomial.of([1, 3, 2]), Polynomial.of([6, 24, 24]))
    assert f(1) == F(1, 9)
    series = qb.laurent_expand(f.num, f.den, 3)
    assert series.coefficients == (F(1, 12), F(1, 24), F(-1, 48))
    # the expansion is that of the function: a common factor changes nothing
    common = Polynomial.of([3, -1, 2])
    unreduced = qb.laurent_expand(f.num * common, f.den * common, 3)
    assert unreduced == series


def test_laurent_identity_and_geometric():
    k = Polynomial.of([0, 1])
    assert qb.laurent_expand(k, k, 4).coefficients == (F(1), F(0), F(0), F(0))
    assert qb.laurent_expand(Polynomial.of([1]), Polynomial.of([1, 1]), 3).coefficients == (F(0), F(1), F(-1))


def test_laurent_rejects_growth_at_infinity():
    with pytest.raises(qb.NotBoundedAtInfinity):
        qb.laurent_expand(Polynomial.of([0, 0, 1]), Polynomial.of([1, 1]), 2)
    # the degrees decide, whatever factor the two share
    with pytest.raises(qb.NotBoundedAtInfinity):
        qb.laurent_expand(Polynomial.of([0, 0, 1, 1]), Polynomial.of([1, 2, 1]), 2)
    with pytest.raises(qb.InvalidInput, match="zero denominator"):
        qb.laurent_expand(Polynomial.of([1]), Polynomial.zero(), 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=8),
)
def test_laurent_prefix_stability(num, den, order):
    den_poly = Polynomial.of(den + [1])
    num_poly = Polynomial.of(num[: len(den_poly.coefficients)])
    long = qb.laurent_expand(num_poly, den_poly, order + 3)
    short = qb.laurent_expand(num_poly, den_poly, order)
    assert long.truncate(order) == short
    f = RationalFunction.of(num_poly, den_poly)
    assert qb.laurent_expand(f.num, f.den, order) == short


def reference_laurent(num: Polynomial, den: Polynomial, order: int) -> tuple[F, ...]:
    """Long division of power series in t = 1/k over Fractions: term j is
    ``(n_j - sum_{i<j} t_i d_{j-i}) / d_0`` with ``n_j``, ``d_j`` the
    coefficients of ``k^(deg den - j)``."""
    d = den.degree
    out: list[F] = []
    for j in range(order):
        acc = num.coefficient(d - j)
        for i in range(j):
            acc -= out[i] * den.coefficient(d - j + i)
        out.append(acc / den.leading)
    return tuple(out)


COEFFICIENT = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def quotients(draw):
    """A numerator of degree at most that of a nonzero denominator, and an
    order from 0 to 2 deg + 3."""
    den = Polynomial.of(draw(st.lists(COEFFICIENT, max_size=5)) + [draw(COEFFICIENT.filter(bool))])
    num = Polynomial.of(draw(st.lists(COEFFICIENT, max_size=den.degree + 1)))
    return num, den, draw(st.integers(min_value=0, max_value=2 * den.degree + 3))


@settings(max_examples=150, deadline=None)
@given(quotients())
@example((Polynomial.of([1, F(1, 2), 3]), Polynomial.of([F(3, 4), 5, F(-2, 7)]), 7))  # negative leading coefficient
@example((Polynomial.zero(), Polynomial.of([1, 1]), 5))  # zero numerator
@example((Polynomial.of([F(-5, 3)]), Polynomial.of([F(2, 9)]), 3))  # constant denominator
@example((Polynomial.of([1, 2]), Polynomial.of([3, 4]), 0))  # order 0
def test_laurent_matches_fraction_long_division(case):
    num, den, order = case
    assert qb.laurent_expand(num, den, order).coefficients == reference_laurent(num, den, order)


def reference_value(poly: Polynomial, k) -> F:
    acc = F(0)
    for c in reversed(poly.coefficients):
        acc = acc * k + c
    return acc


@settings(max_examples=150, deadline=None)
@given(
    st.lists(COEFFICIENT, max_size=7),
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-10, max_value=10, max_denominator=30),
)
def test_polynomial_value_matches_fraction_horner(coeffs, n, q):
    poly = Polynomial.of(coeffs)
    for k in (n, q):
        value = poly(k)
        assert type(value) is F and value == reference_value(poly, k)


def test_zero_polynomial_vanishes_everywhere():
    for k in (0, -3, F(5, 7)):
        assert Polynomial.zero()(k) == 0 and type(Polynomial.zero()(k)) is F


def test_rational_function_canonical_form():
    # common factor removed, denominator integer-primitive with positive lead
    f = RationalFunction.of(Polynomial.of([1, 3, 2]), Polynomial.of([2, 6, 4]))
    g = RationalFunction.of(Polynomial.of([F(1, 2)]), Polynomial.of([1]))
    assert f == g
    h = RationalFunction.of(Polynomial.of([0, 1]), Polynomial.of([0, -2]))
    assert h.den.leading > 0
    assert h(5) == F(-1, 2)


# ---------------------------------------------------------------------------
# Bernoulli numbers

def _bernoulli_by_series_inversion(count: int) -> list[F]:
    # invert g(x) = (1 - exp(-x))/x = sum (-x)^m / (m+1)! term by term
    g = [F((-1) ** m, factorial(m + 1)) for m in range(count)]
    t = [F(1)]
    for j in range(1, count):
        t.append(-sum(g[i] * t[j - i] for i in range(1, j + 1)))
    return [t[j] * factorial(j) for j in range(count)]


def test_bernoulli_small_values():
    assert qb.bernoulli(0) == 1
    assert qb.bernoulli(1) == F(1, 2)  # the sign that makes x/(1-exp(-x)) work
    assert qb.bernoulli(2) == F(1, 6)
    assert qb.bernoulli(3) == 0
    # the x^4 series coefficient is -1/720, so B_4 = 4! * (-1/720)
    assert qb.bernoulli(4) == F(-1, 30)
    assert qb.bernoulli(4) / factorial(4) == F(-1, 720)


def test_bernoulli_matches_series_inversion():
    oracle = _bernoulli_by_series_inversion(14)
    for j, expected in enumerate(oracle):
        assert qb.bernoulli(j) == expected


def test_bernoulli_rejects_negative_index():
    with pytest.raises(qb.InvalidInput):
        qb.bernoulli(-1)


# ---------------------------------------------------------------------------
# rational serialization

@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=1000))
def test_rational_json_round_trip(q):
    encoded = rational_to_json(q)
    assert isinstance(encoded, (int, str))
    assert rational_from_json(encoded) == q
    # stored form is always reduced with positive denominator
    assert q.denominator > 0
    from math import gcd

    assert gcd(q.numerator, q.denominator) == 1


def test_rational_json_rejects_floats():
    with pytest.raises(qb.InvalidInput):
        rational_from_json(0.5)
    with pytest.raises(qb.InvalidInput):
        rational_from_json("not-a-number")
