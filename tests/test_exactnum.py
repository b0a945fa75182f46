from __future__ import annotations

from decimal import Decimal
from fractions import Fraction as F
import json
from math import factorial, gcd, lcm
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbary as qb
from qbary.exactnum import Polynomial, RationalFunction, poly_gcd, rational_from_json, rational_to_json
from qbary.linalg import solve

from conftest import FIXTURE_NAMES


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


@pytest.mark.parametrize("samples", (5, "01", [(1,)], [(0, 1), (1, 2, 3)], {(0, 1): 2}), ids=repr)
def test_poly_fit_refuses_samples_that_are_not_pairs(samples):
    with pytest.raises(qb.InvalidInput, match="samples must be a list of pairs"):
        qb.poly_fit(samples)


HUGE = 10**40


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(min_value=-12, max_value=12), st.integers(min_value=-HUGE, max_value=HUGE)),
            st.one_of(st.integers(min_value=-30, max_value=30), st.integers(min_value=-HUGE, max_value=HUGE)),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda sample: sample[0],
    )
)
@example([(-(HUGE - 1), HUGE), (0, -HUGE), (HUGE, 0)])
def test_poly_fit_reads_plain_ints_as_it_reads_fractions(samples):
    # plain ints are read as they are; the same values as Fractions, or one
    # Fraction among ints, take the general read through their normal forms
    fit = qb.poly_fit(samples)
    assert fit == qb.poly_fit([(F(x), F(y)) for x, y in samples])
    assert fit == qb.poly_fit([(F(samples[0][0]), samples[0][1]), *samples[1:]])
    assert all(fit(x) == y for x, y in samples)


@pytest.mark.parametrize("bad", (True, 1.0, "1"), ids=repr)
def test_poly_fit_refuses_a_bool_float_or_str_among_int_samples(bad):
    cases = [
        ([(0, 1), (bad, 2), (2, 5)], f"abscissa must be an integer or a Fraction, got {bad!r}"),
        ([(0, 1), (1, bad), (2, 5)], f"sample value must be an integer or a Fraction, got {bad!r}"),
        # the abscissae are read, and checked for duplicates, before the values
        ([(0, 1), (2, bad), (2, 5)], "duplicate abscissa in interpolation samples"),
    ]
    for samples, message in cases:
        with pytest.raises(qb.InvalidInput, match=f"^{re.escape(message)}$"):
            qb.poly_fit(samples)
    with pytest.raises(qb.InvalidInput, match="^duplicate abscissa in interpolation samples$"):
        qb.poly_fit([(0, 1), (3, 2), (3, 5)])


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
    assert long.coefficients[:order] == short.coefficients
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


def full_recurrence(num: Polynomial, den: Polynomial, order: int) -> tuple[F, ...]:
    """:func:`qbary.laurent_expand`'s integer recurrence with term j run
    over all j earlier terms, the products with coefficients of den past its
    degree, which vanish, included."""
    d = den.degree
    n_rev, d_rev = (
        [p.numerators[e] if 0 <= e < len(p.numerators) else 0 for e in range(d, d - order, -1)]
        for p in (num, den)
    )
    lead = den.numerators[-1]
    powers, terms = [1], []
    for j in range(order):
        t = n_rev[j] * powers[j]
        for i in range(j):
            t -= terms[i] * d_rev[j - i] * powers[j - 1 - i]
        terms.append(t)
        powers.append(powers[j] * lead)
    return tuple(F(t * den.denominator, l * num.denominator) for t, l in zip(terms, powers[1:]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_windowed_expansion_matches_the_full_recurrence(fixtures, name):
    # term j reads only the last deg E terms; up to order 300 on every fixture
    bf = qb.barycenter_function(fixtures[name])
    for num in bf.numerators:
        assert qb.laurent_expand(num, bf.denominator, 300).coefficients == full_recurrence(num, bf.denominator, 300)


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
# the integer representation against a Fraction reference: coefficient
# tuples lowest degree first, trailing zeros trimmed

def ref_trim(coeffs) -> tuple[F, ...]:
    cs = [F(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1) -> tuple[F, ...]:
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b) -> tuple[F, ...]:
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b) -> tuple[tuple[F, ...], tuple[F, ...]]:
    rem, d = list(a), len(b) - 1
    q = [F(0)] * max(0, len(a) - d)
    for i in range(len(a) - 1, d - 1, -1):
        factor = rem[i] / b[-1]
        q[i - d] = factor
        for j, c in enumerate(b):
            rem[i - d + j] -= factor * c
    return ref_trim(q), ref_trim(rem)


def ref_gcd(a, b) -> tuple[F, ...]:
    """Monic gcd by Euclid over Fractions."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def ref_canonical(num, den) -> tuple[tuple[F, ...], tuple[F, ...]]:
    """The reduced pair with a primitive integer denominator of positive lead."""
    g = ref_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    common = lcm(*(c.denominator for c in den))
    scale = F(common, gcd(*(int(c * common) for c in den)))
    if den[-1] < 0:
        scale = -scale
    return ref_trim(c * scale for c in num), ref_trim(c * scale for c in den)


def is_canonical(p: Polynomial) -> bool:
    return p.denominator > 0 and gcd(p.denominator, *p.numerators) == 1 and (not p.numerators or p.numerators[-1] != 0)


POLY = st.lists(COEFFICIENT, max_size=6)


@settings(max_examples=200, deadline=None)
@given(POLY, POLY, COEFFICIENT, st.integers(min_value=-30, max_value=30), st.fractions(min_value=-6, max_value=6, max_denominator=9))
@example([], [], F(0), 0, F(0))
@example([F(1, 2), 0, 0], [F(-1, 2)], F(-3, 4), 7, F(1, 3))  # trailing zeros, a sum that cancels to a constant
def test_polynomial_arithmetic_matches_the_fraction_reference(a, b, q, n, x):
    pa, pb = Polynomial.of(a), Polynomial.of(b)
    ra, rb = ref_trim(a), ref_trim(b)
    results = {
        "of": (pa, ra),
        "+": (pa + pb, ref_add(ra, rb)),
        "-": (pa - pb, ref_add(ra, rb, -1)),
        "neg": (-pa, ref_add((), ra, -1)),
        "*poly": (pa * pb, ref_mul(ra, rb)),
        "*int": (pa * n, ref_trim(c * n for c in ra)),
        "int*": (n * pa, ref_trim(c * n for c in ra)),
        "*fraction": (pa * q, ref_trim(c * q for c in ra)),
        "fraction*": (q * pa, ref_trim(c * q for c in ra)),
        "+int": (pa + n, ref_add(ra, (F(n),))),
        "fraction+": (q + pa, ref_add(ra, (q,))),
        "-fraction": (pa - q, ref_add(ra, (q,), -1)),
        "int-": (n - pa, ref_add((F(n),), ra, -1)),
        "shift_down": ((pa * Polynomial.of([0, 1])).shift_down(), ra),
    }
    if rb:
        results["divmod q"] = (pa.divmod(pb)[0], ref_divmod(ra, rb)[0])
        results["divmod r"] = (pa.divmod(pb)[1], ref_divmod(ra, rb)[1])
    for what, (got, want) in results.items():
        assert got.coefficients == want, what
        assert is_canonical(got), what
    assert pa.degree == len(ra) - 1
    assert Polynomial.of((0, *ra)).shift_down() == pa
    for k in (n, x):
        assert pa(k) == reference_value(pa, k) == sum((c * F(k) ** i for i, c in enumerate(ra)), F(0))
    assert pa.numerator_at(n) == pa(n) * pa.denominator


@settings(max_examples=100, deadline=None)
@given(POLY, POLY.filter(any), st.integers(min_value=-9, max_value=9).filter(bool))
def test_one_polynomial_built_by_different_routes_is_one_value(a, b, n):
    pa, pb = Polynomial.of(a), Polynomial.of(b)
    routes = [
        Polynomial.of(pa.coefficients),
        Polynomial.over([c * 6 * n for c in pa.numerators], pa.denominator * 6 * n),
        (pa + pb) - pb,
        pb + pa - pb,
        -(-pa),
        pa * 1,
        pa * F(3, 7) * F(7, 3),
        (pa * pb).divmod(pb)[0],
        (pa * Polynomial.of([0, 1])).shift_down(),
        qb.poly_fit([(k, pa(k)) for k in range(-2, len(a) + 1)]),
        qb.poly_fit([(F(k, 3), pa(F(k, 3))) for k in range(len(a) + 1)]),
    ]
    for route in routes:
        assert route == pa and hash(route) == hash(pa)
        assert (route.numerators, route.denominator) == (pa.numerators, pa.denominator)
    assert Polynomial.zero() == Polynomial.of([0, 0]) == pa - pa
    assert (Polynomial.zero().numerators, Polynomial.zero().denominator) == ((), 1)


def test_over_rejects_a_zero_denominator():
    with pytest.raises(qb.InvalidInput):
        Polynomial.over([1, 2], 0)


@st.composite
def gcd_cases(draw):
    """Two polynomials with a planted common factor of degree 0 to 3."""
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    factor = draw(st.lists(small, max_size=3)) + [draw(small.filter(bool))]
    u, v = draw(st.lists(small, max_size=3)), draw(st.lists(small, max_size=3))
    return Polynomial.of(ref_mul(factor, ref_trim(u))), Polynomial.of(ref_mul(factor, ref_trim(v)))


@settings(max_examples=150, deadline=None)
@given(gcd_cases())
@example((Polynomial.zero(), Polynomial.zero()))
@example((Polynomial.zero(), Polynomial.of([F(-2, 3), 4])))
@example((Polynomial.of([F(5, 2)]), Polynomial.of([1, 2, 3])))  # a constant
@example((Polynomial.of([1, 1]), Polynomial.of([-1, 1])))  # coprime
@example((Polynomial.of([2, -3, 1]), Polynomial.of([-6, 5, -1])))  # (k-1)(k-2) and -(k-2)(k-3)
def test_poly_gcd_matches_fraction_euclid(case):
    a, b = case
    g = poly_gcd(a, b)
    assert g.coefficients == ref_gcd(a.coefficients, b.coefficients)
    assert is_canonical(g)
    if not b.is_zero:
        f = RationalFunction.of(a, b)
        assert (f.num.coefficients, f.den.coefficients) == ref_canonical(a.coefficients, b.coefficients)


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


def fraction_then_format(q):
    """How every number was encoded before ints and Fractions were read as
    they are: through a new Fraction."""
    q = F(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(), st.integers(-(10**60), 10**60), st.booleans(), st.fractions(), st.fractions(max_denominator=10**30)
    )
)
def test_rational_json_reads_ints_and_fractions_as_they_are(q):
    encoded = rational_to_json(q)
    assert (encoded, type(encoded)) == (fraction_then_format(q), type(fraction_then_format(q)))


@pytest.mark.parametrize(
    "q, printed",
    [(True, "1"), (False, "0"), (Decimal("2.5"), '"5/2"'), (Decimal(-3), "-3"), (F(7, 1), "7"), (F(-3, 4), '"-3/4"')],
    ids=repr,
)
def test_rational_json_of_bools_decimals_and_whole_fractions(q, printed):
    # a bool prints as 1 or 0, never as true or false
    assert json.dumps(rational_to_json(q)) == printed == json.dumps(fraction_then_format(q))


def test_rational_json_rejects_floats():
    with pytest.raises(qb.InvalidInput):
        rational_from_json(0.5)
    with pytest.raises(qb.InvalidInput):
        rational_from_json("not-a-number")
