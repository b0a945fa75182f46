"""Acceptance suite.

One test per criterion; every comparison is exact (tolerance zero
throughout).  Each test prints a single PASS line when its criterion holds;
a failing assertion marks the criterion failed.  Run with ``pytest -s
tests/test_acceptance.py`` (or ``-rA``) to see the lines.
"""

from __future__ import annotations

from fractions import Fraction as F

import qbary as qb
from qbary.exactnum import Polynomial, poly_fit
from qbary.linalg import dot

from conftest import DEL_PEZZO_NAMES, FIXTURE_NAMES, random_corpus


def tor(name: str) -> qb.ToricData:
    from qbary.data import fixture_document

    doc = fixture_document(name)
    if "normals" in doc:
        return qb.toric_data(doc["normals"], doc["offsets"])
    return qb.toric_from_polytope(qb.load_fixture(name))


def _passed(i: int, text: str) -> None:
    print(f"ACCEPTANCE CRITERION {i}: PASS - {text}")


def _three_route_barycenters(p: qb.Polytope, expected: dict[int, tuple]) -> None:
    bf = qb.barycenter_function(p)
    for k, value in expected.items():
        assert qb.quantized_barycenter(p, k).value == value
        assert qb.reflexive_polygon_bck(p, k) == value
        assert bf.evaluate(k) == value


def test_criterion_1_f1_barycenters(fixtures):
    f1 = fixtures["f1"]
    _three_route_barycenters(
        f1,
        {
            1: (F(1, 9), F(1, 9)),
            2: (F(1, 10), F(1, 10)),
            3: (F(2, 21), F(2, 21)),
        },
    )
    assert qb.measure(f1).barycenter == (F(1, 12), F(1, 12))
    _passed(1, "degree-8 polygon barycenters agree across all three routes")


def test_criterion_2_blowup_barycenters(fixtures):
    blowup = fixtures["blowup-p1xp1"]
    _three_route_barycenters(
        blowup,
        {
            1: (F(-1, 8), F(-1, 8)),
            2: (F(-5, 44), F(-5, 44)),
            3: (F(-14, 129), F(-14, 129)),
        },
    )
    assert qb.measure(blowup).barycenter == (F(-2, 21), F(-2, 21))
    _passed(2, "degree-7 polygon barycenters agree across all three routes")


def test_criterion_3_projective_plane(fixtures):
    p2 = fixtures["p2"]
    t = tor("p2")
    fd = qb.facet_data(p2)
    assert fd.boundary_normalized_volume == 9
    assert fd.boundary_barycenter == (F(0), F(0))
    assert fd.boundary_normalized_volume / qb.measure(p2).volume == 2
    fitted = qb.ehrhart_polynomial(p2).poly.coefficients
    assert fitted == (F(1), F(9, 2), F(9, 2))
    assert qb.hrr_coefficients(t) == fitted
    for k in range(1, 11):
        assert qb.quantized_barycenter(p2, k).value == (F(0), F(0))
        assert qb.delta_k(t, k)[0] == 1
    assert qb.rooftop_coefficients(t, (1, 0)).values == (F(0), F(0), F(0))
    _passed(3, "projective-plane data: boundary, coefficients, thresholds all exact")


def test_criterion_4_f1_boundary_and_a1(fixtures):
    f1 = fixtures["f1"]
    fd = qb.facet_data(f1)
    assert fd.boundary_normalized_volume == 8
    assert fd.boundary_barycenter == (F(1, 8), F(1, 8))
    a1 = qb.a1_closed_form(f1)
    assert a1 == (F(1, 24), F(1, 24))
    assert qb.asymptotic_coefficients(f1, 2)[1] == a1
    assert a1 == tuple(b / 2 for b in qb.measure(f1).barycenter)
    _passed(4, "first-order coefficient matches closed form, expansion, and half-barycenter")


def test_criterion_5_fano_threefold(fixtures):
    fano = fixtures["fano-3-29"]
    values = {
        1: (F(6, 28), F(-12, 28), F(3, 28)),
        2: (F(51, 260), F(-99, 260), F(24, 260)),
        3: (F(201, 1071), F(-387, 1071), F(93, 1071)),
    }
    for k, value in values.items():
        assert qb.quantized_barycenter(fano, k).value == value
    assert qb.colinearity_check(list(values.values())) is False
    closed = qb.reflexive_closed_form(fano)
    assert closed.poly == qb.ehrhart_polynomial(fano).poly
    _passed(5, "Fano threefold barycenters exact, not colinear, closed form matches fit")


def test_criterion_6_reciprocity(fixtures):
    for name, p in fixtures.items():
        ehr = qb.ehrhart_polynomial(p).poly
        sign = (-1) ** p.dim
        reflexive = qb.classify(p).reflexive
        for k in range(1, 5):
            assert ehr(-k) == sign * qb.interior_count(p, k), (name, k)
            if reflexive:
                assert ehr(-k) == sign * qb.count_points(p, k - 1), (name, k)
        assert qb.reciprocity_check(p, 4).all_passed
    _passed(6, "reciprocity holds on all fixtures through k=4, reflexive variant included")


def test_criterion_7_randomized_first_order_suite():
    corpus = random_corpus()
    assert len(corpus) >= 50
    assert {p.dim for p in corpus} == {2, 3}
    for p in corpus:
        # construction asserts the exactness of the division by k and the
        # constant-term cancellation; it raises InternalInconsistency otherwise
        bf = qb.barycenter_function(p)
        coeffs = qb.asymptotic_coefficients(p, 2)
        assert coeffs[0] == qb.measure(p).barycenter
        assert coeffs[1] == qb.a1_closed_form(p)
        for k in range(1, 6):
            assert bf.evaluate(k) == qb.quantized_barycenter(p, k).value
    _passed(7, f"first-order identities hold on {len(corpus)} random lattice polytopes")


def test_criterion_8_delta_suite(fixtures):
    f1 = tor("f1")
    assert qb.delta_k(f1, 1)[0] == F(9, 11)
    assert qb.delta_k(f1, 2)[0] == F(5, 6)
    assert qb.delta(f1)[0] == F(6, 7)
    blowup = tor("blowup-p1xp1")
    assert qb.delta_k(blowup, 1)[0] == F(4, 5)
    assert qb.delta(blowup)[0] == F(21, 25)
    for name in DEL_PEZZO_NAMES:
        t = tor(name)
        for k in range(1, 7):
            assert qb.del_pezzo_closed_form(t, k) == qb.delta_k(t, k)[0], (name, k)
    for name in FIXTURE_NAMES:
        t = tor(name)
        if not qb.classify(t.polytope).reflexive:
            continue
        seq = qb.delta_sequence(t, [1], order=2)
        d = seq.limit
        assert seq.asymptotics.coefficients[1] == -d * (1 - d) / 2, name
    _passed(8, "thresholds, del Pezzo closed forms, and first-order terms all exact")


def test_criterion_9_delzant_cross_validation(fixtures):
    targets = [tor("p2"), tor("f1"), tor("blowup-p1xp1"), tor("cube2")]
    targets.append(
        qb.toric_from_polytope(qb.hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]))
    )
    directions = ((1, 0), (0, 1), (1, 1))
    for t in targets:
        fitted = qb.ehrhart_polynomial(t.polytope).poly
        assert qb.hrr_coefficients(t) == fitted.coefficients
        bf = qb.barycenter_function(t.polytope)
        n = t.polytope.dim
        a = fitted.coefficient
        for v in directions:
            rc = qb.rooftop_coefficients(t, v)
            assert rc.formula_available and rc.formula_values == rc.values
            assert Polynomial.of(rc.values) == bf.pairing_numerator(v)
            # count the actual rooftops at two offsets: subtracting the prism
            # (q k + 1) E(k) from either count leaves the same c'_j
            for q in (rc.q, rc.q + 3):
                roof = qb.rooftop(t.polytope, v, q)
                counts = [qb.count_points(roof, k) for k in range(n + 3)]
                fit = poly_fit(list(enumerate(counts[: n + 2])))
                assert fit(n + 2) == counts[n + 2]
                cprime = tuple(
                    fit.coefficient(j) - q * a(j - 1) - a(j) for j in range(n + 2)
                )
                assert cprime == (0,) + rc.values, (v, q)
    _passed(9, "coefficient formula matches fits; rooftop coefficients offset-independent")


def test_criterion_10_df_suite(fixtures):
    for name, p in fixtures.items():
        ones = (1,) * p.dim
        e1 = tuple(1 if i == 0 else 0 for i in range(p.dim))
        for v in (e1, ones):
            coeffs = qb.df_coefficients(p, v, 3)
            assert coeffs[0] == dot(qb.measure(p).barycenter, v), name
            assert coeffs[1] == dot(qb.a1_closed_form(p), v), name
    p2 = fixtures["p2"]
    for v in ((1, 0), (1, 1), (2, -3)):
        assert qb.df_coefficients(p2, v, 6) == (F(0),) * 6
    blowup = fixtures["blowup-p1xp1"]
    a = qb.df_coefficients(blowup, (1, 0), 5)
    b = qb.df_coefficients(blowup, (0, 1), 5)
    combo = qb.df_coefficients(blowup, (2, 5), 5)
    assert combo == tuple(2 * x + 5 * y for x, y in zip(a, b))
    _passed(10, "weight coefficients: leading identities, vanishing, and linearity exact")


def test_criterion_11_stabilization_dichotomy(fixtures):
    for name, p in fixtures.items():
        if p.dim != 2:
            continue
        samples = [qb.quantized_barycenter(p, k).value for k in (1, 2, 3)]
        if samples[0] == samples[1] == samples[2]:
            verdict = qb.stabilization_check(p, [1, 2, 3])
            assert verdict.stabilizes and verdict.value == qb.measure(p).barycenter
            bf = qb.barycenter_function(p)
            for coord, num in enumerate(bf.numerators):
                assert num == bf.denominator * verdict.value[coord], name
    f1 = fixtures["f1"]
    verdict = qb.stabilization_check(f1, [1, 2, 3])
    assert not verdict.stabilizes and verdict.witness is not None
    _passed(11, "constant samples force the constant rational form; non-constants witnessed")
