from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import qbary as qb
import qbary.expansion
from qbary.exactnum import Polynomial
from qbary.linalg import dot

from conftest import apply_map, brute_count, brute_vertex_sum, polytope_and_map


def test_quantized_barycenter_f1_figure_values(fixtures):
    f1 = fixtures["f1"]
    assert qb.quantized_barycenter(f1, 1).value == (F(1, 9), F(1, 9))
    assert qb.quantized_barycenter(f1, 2).value == (F(1, 10), F(1, 10))
    assert qb.quantized_barycenter(f1, 3).value == (F(2, 21), F(2, 21))


def test_quantized_barycenter_symmetric_and_fano(fixtures):
    for k in (1, 2, 3):
        assert qb.quantized_barycenter(fixtures["cube2"], k).value == (F(0), F(0))
    fano = fixtures["fano-3-29"]
    assert qb.quantized_barycenter(fano, 2).value == (F(51, 260), F(-99, 260), F(24, 260))


def test_quantized_barycenter_matches_brute_force(fixtures):
    for p in (fixtures["f1"], fixtures["blowup-p1xp1"], fixtures["fano-3-29"]):
        for k in (1, 2):
            sums = brute_vertex_sum(p, k)
            count = brute_count(p, k)
            expected = tuple(F(s, k * count) for s in sums)
            assert qb.quantized_barycenter(p, k).value == expected


def test_a_quantized_barycenter_outside_kp_is_an_inconsistency(monkeypatch, fixtures):
    # f1 is {x >= -1, y >= -1, -1 <= x + y <= 1}: coordinate sums whose
    # average is its vertex (-1, 0) pass; one unit past a facet, or far
    # outside, they are caught
    f1 = fixtures["f1"]
    true_stats = qbary.expansion.checked_stats

    def patch(sums):
        def stats(p, k):
            r = true_stats(p, k)
            return r._replace(sums=sums(k * r.count))
        monkeypatch.setattr(qbary.expansion, "checked_stats", stats)

    for k in (1, 3):
        patch(lambda scale: (-scale, 0))
        assert qb.quantized_barycenter(f1, k).value == (-1, 0)
        for outside in (lambda scale: (-scale - 1, 0), lambda scale: (0, -scale - 1), lambda scale: (5 * scale, 5 * scale)):
            patch(outside)
            with pytest.raises(qb.InternalInconsistency, match="escaped the polytope"):
                qb.quantized_barycenter(f1, k)


# ---------------------------------------------------------------------------
# rooftops

def test_rooftop_segment_example():
    segment = qb.hull_from_vertices([(-1,), (1,)])
    roof = qb.rooftop(segment, (1,), 2)
    assert roof.vertices == ((-1, 0), (-1, 1), (1, 0), (1, 3))


def test_rooftop_zero_direction_is_prism(fixtures):
    f1 = fixtures["f1"]
    prism = qb.rooftop(f1, (0, 0), 1)
    assert prism.vertices == tuple(
        sorted([v + (0,) for v in f1.vertices] + [v + (1,) for v in f1.vertices])
    )


def test_rooftop_facet_count_and_counting_identity(fixtures):
    f1 = fixtures["f1"]
    roof = qb.rooftop(f1, (1, 0), 2)
    assert len(roof.facets) == len(f1.facets) + 2
    normals = {f.normal for f in roof.facets}
    assert (0, 0, 1) in normals and (1, 0, -1) in normals
    for k in (1, 2, 3):
        direct = brute_count(roof, k)  # independent 3d enumeration
        count_k = qb.count_points(f1, k)
        pairing = brute_vertex_sum(f1, k)[0]
        assert direct == (2 * k + 1) * count_k + pairing
        assert qb.count_points(roof, k) == direct


def test_rooftop_counting_identity_across_fixtures(fixtures):
    for name in ("p2", "cube3", "fano-3-29"):
        p = fixtures[name]
        v = tuple(1 for _ in range(p.dim))
        q = 1 - qb.support_value(p, v)
        roof = qb.rooftop(p, v, q)
        for k in (1, 2, 3):
            direct = brute_count(roof, k)
            cnt = qb.count_points(p, k)
            pairing = dot(brute_vertex_sum(p, k), v)
            assert direct == (q * k + 1) * cnt + pairing


def test_rooftop_equals_the_hull_of_its_points(fixtures, corpus):
    # the rooftop is read off P's face lattice; the hull engine on the same
    # 2|V| points is the second route, and must give the identical Polytope
    rng = random.Random(20261018)
    cases = 0
    for p in [*fixtures.values(), *corpus, qb.hull_from_vertices([(-1,), (1,)])]:
        directions = [(0,) * p.dim, (1,) + (0,) * (p.dim - 1)]
        directions += [tuple(rng.randint(-3, 3) for _ in range(p.dim)) for _ in range(3)]
        for v in directions:
            low = 1 - qb.support_value(p, v)
            for q in (low, low + rng.randint(1, 5)):
                roof = qb.rooftop(p, v, q)
                points = [u + (0,) for u in p.vertices] + [u + (dot(u, v) + q,) for u in p.vertices]
                assert roof == qb.hull_from_vertices(points), (p, v, q)
                cases += 1
    assert cases >= 500


def test_rooftop_offset_precondition(fixtures):
    f1 = fixtures["f1"]
    assert qb.support_value(f1, (1, 0)) == -1
    with pytest.raises(qb.PreconditionViolation):
        qb.rooftop(f1, (1, 0), 1)  # support reaches -1, so q must exceed 1
    qb.rooftop(f1, (1, 0), 2)


# ---------------------------------------------------------------------------
# the rational-function form

def test_barycenter_function_f1(fixtures):
    bf = qb.barycenter_function(fixtures["f1"])
    expected = Polynomial.of([F(1, 6), F(1, 2), F(1, 3)])
    assert bf.numerators == (expected, expected)
    assert bf.denominator.coefficients == (F(1), F(4), F(4))


def test_barycenter_function_vanishes_for_symmetric_and_p2(fixtures):
    assert all(n.is_zero for n in qb.barycenter_function(fixtures["cube2"]).numerators)
    assert all(n.is_zero for n in qb.barycenter_function(fixtures["p2"]).numerators)


def test_barycenter_function_evaluates_to_enumeration(fixtures):
    for p in fixtures.values():
        bf = qb.barycenter_function(p)
        for k in range(1, 6):
            assert bf.evaluate(k) == qb.quantized_barycenter(p, k).value


def test_evaluate_refuses_a_zero_of_the_counting_polynomial():
    # E(-1) of the unit square is its interior count, 0
    square = qb.hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    bf = qb.barycenter_function(square)
    assert bf.denominator(-1) == 0
    with pytest.raises(qb.InvalidInput, match="^denominator vanishes at -1$"):
        bf.evaluate(-1)
    assert bf.evaluate(-2) == (F(1, 2), F(1, 2))


def test_coordinate_sums_satisfy_reciprocity_on_the_interior(fixtures, corpus):
    # S_i(-k) = (-1)^(n+1) times the sum of coordinate i over the interior of
    # kP, with S_i(k) = k Q_i(k): the box-scan oracle, not the counting pass,
    # pins the sign that validates every coordinate-sum fit
    for p in list(fixtures.values()) + corpus[:8]:
        n = p.dim
        numerators = qb.barycenter_function(p).numerators
        for k in range(1, n + 2):
            expected = tuple((-1) ** (n + 1) * s for s in brute_vertex_sum(p, k, strict=True))
            assert tuple(-k * q(-k) for q in numerators) == expected, (p.vertices, k)


@settings(max_examples=40, deadline=None)
@given(polytope_and_map(max_dim=3))
def test_barycenter_numerators_move_with_unimodular_maps(case):
    # The sums over k(UP + t) are U S(k) + k t E(k), so Q(UP + t) = U Q + t E
    # as exact polynomials, and E does not move.
    p, u, t = case
    image = qb.hull_from_vertices([tuple(a + b for a, b in zip(apply_map(u, v), t)) for v in p.vertices])
    bf = qb.barycenter_function(p)
    moved = qb.barycenter_function(image)
    assert moved.denominator == bf.denominator
    for row, ti, num in zip(u, t, moved.numerators):
        assert num == bf.pairing_numerator(row) + bf.denominator * ti


# ---------------------------------------------------------------------------
# asymptotic coefficients

def test_asymptotics_f1(fixtures):
    coeffs = qb.asymptotic_coefficients(fixtures["f1"], 3)
    assert coeffs.terms == (
        (F(1, 12), F(1, 12)),
        (F(1, 24), F(1, 24)),
        (F(-1, 48), F(-1, 48)),
    )


def test_asymptotics_vanish_for_symmetric(fixtures):
    for name in ("p2", "cube2", "cube3", "hexagon"):
        coeffs = qb.asymptotic_coefficients(fixtures[name], 4)
        assert all(term == (F(0),) * fixtures[name].dim for term in coeffs.terms)


def test_default_order(fixtures):
    coeffs = qb.asymptotic_coefficients(fixtures["f1"])
    assert len(coeffs) == 2 * 2 + 2


def test_a1_closed_form(fixtures):
    assert qb.a1_closed_form(fixtures["f1"]) == (F(1, 24), F(1, 24))
    assert qb.a1_closed_form(fixtures["p2"]) == (F(0), F(0))
    for name in ("f1", "blowup-p1xp1", "cube3", "fano-3-29", "hexagon"):
        p = fixtures[name]
        if qb.classify(p).reflexive:
            bc = qb.measure(p).barycenter
            assert qb.a1_closed_form(p) == tuple(b / 2 for b in bc), name


def test_corpus_first_order_identities(corpus):
    # randomized corpus: a_0 is the barycenter, a_1 the boundary formula, and
    # the rational form evaluates to the enumeration
    assert len(corpus) >= 50
    for p in corpus:
        coeffs = qb.asymptotic_coefficients(p, 2)
        geo = qb.measure(p)
        assert coeffs[0] == geo.barycenter
        assert coeffs[1] == qb.a1_closed_form(p)
        bf = qb.barycenter_function(p)
        for k in range(1, 6):
            assert bf.evaluate(k) == qb.quantized_barycenter(p, k).value


# ---------------------------------------------------------------------------
# reflexive polygon closed form

def test_reflexive_polygon_closed_form(fixtures):
    blowup = fixtures["blowup-p1xp1"]
    assert qb.reflexive_polygon_bck(blowup, 1) == (F(-1, 8), F(-1, 8))
    assert qb.reflexive_polygon_bck(blowup, 2) == (F(-5, 44), F(-5, 44))
    assert qb.reflexive_polygon_bck(blowup, 3) == (F(-14, 129), F(-14, 129))
    assert qb.reflexive_polygon_bck(fixtures["p2"], 4) == (F(0), F(0))
    for k in range(1, 7):
        assert (
            qb.reflexive_polygon_bck(fixtures["f1"], k)
            == qb.quantized_barycenter(fixtures["f1"], k).value
        )


def test_reflexive_polygon_closed_form_scope(fixtures):
    with pytest.raises(qb.Unsupported):
        qb.reflexive_polygon_bck(fixtures["cube3"], 1)
    with pytest.raises(qb.Unsupported):
        qb.reflexive_polygon_bck(fixtures["square-delzant-nonreflexive"], 1)


def test_reflexive_polygons_closed_form_and_colinearity(fixtures):
    # every reflexive polygon: closed form equals enumeration for k <= 6 and
    # the whole barycenter sequence lies on the line through the barycenter
    for name, p in fixtures.items():
        if p.dim != 2 or not qb.classify(p).reflexive:
            continue
        for k in range(1, 7):
            assert qb.reflexive_polygon_bck(p, k) == qb.quantized_barycenter(p, k).value
        points = [qb.quantized_barycenter(p, k).value for k in range(1, 7)]
        points.append(qb.measure(p).barycenter)
        assert qb.colinearity_check(points), name


# ---------------------------------------------------------------------------
# stabilization and colinearity

def test_stabilization_verdicts(fixtures):
    verdict = qb.stabilization_check(fixtures["p2"], [1, 2, 3])
    assert verdict.stabilizes and verdict.value == (F(0), F(0))
    verdict = qb.stabilization_check(fixtures["f1"], [1, 2, 3])
    assert not verdict.stabilizes and verdict.witness == (1, 2)
    verdict = qb.stabilization_check(fixtures["cube3"], [1, 2, 3, 4])
    assert verdict.stabilizes and verdict.value == (F(0), F(0), F(0))


def test_stabilization_needs_enough_samples(fixtures):
    with pytest.raises(qb.InsufficientSamples):
        qb.stabilization_check(fixtures["f1"], [1, 2])
    with pytest.raises(qb.InsufficientSamples):
        qb.stabilization_check(fixtures["f1"], [1, 1, 1])


def test_stabilization_dichotomy_on_polygons(fixtures):
    # agreement of the first two values already forces constancy in 2d
    for name, p in fixtures.items():
        if p.dim != 2:
            continue
        bc1 = qb.quantized_barycenter(p, 1).value
        bc2 = qb.quantized_barycenter(p, 2).value
        if bc1 == bc2:
            verdict = qb.stabilization_check(p, [1, 2, 3])
            assert verdict.stabilizes, name
            for k in range(1, 7):
                assert qb.quantized_barycenter(p, k).value == verdict.value


def test_colinearity(fixtures):
    fano = fixtures["fano-3-29"]
    bcs = [qb.quantized_barycenter(fano, k).value for k in (1, 2, 3)]
    assert qb.colinearity_check(bcs) is False
    f1 = fixtures["f1"]
    line = [qb.quantized_barycenter(f1, k).value for k in (1, 2, 3)]
    line.append(qb.measure(f1).barycenter)
    assert qb.colinearity_check(line) is True
    assert qb.colinearity_check([(F(0), F(0)), (F(0), F(0))]) is True
    with pytest.raises(qb.InvalidInput):
        qb.colinearity_check([(F(1), F(1))])
    # in either order: the minors of the shorter vector alone are no answer
    for vectors in ([(1, 2, 3), (1, 2)], [(1, 2), (1, 2, 3)]):
        with pytest.raises(qb.InvalidInput, match="different lengths"):
            qb.colinearity_check(vectors)
    # no array of vectors, a vector that is no array, entries that are not
    # ints or Fractions: floats, which would be no exact answer, among them
    for vectors in (None, [1, 2], [["a", "b"], ["c", "d"]], [[0.5, 1.0], [1.0, 2.0]], [(1, 2), (F(1), True)]):
        with pytest.raises(qb.InvalidInput):
            qb.colinearity_check(vectors)
    assert qb.colinearity_check(iter([(1, 2), (F(1, 2), 1)])) is True


# ---------------------------------------------------------------------------
# Donaldson-Futaki coefficients

def test_df_examples(fixtures):
    assert qb.df_coefficients(fixtures["p2"], (1, 0), 5) == (F(0),) * 5
    assert qb.df_coefficients(fixtures["f1"], (1, 1), 3) == (F(1, 6), F(1, 12), F(-1, 24))
    assert qb.df_coefficients(fixtures["f1"], (0, 0), 4) == (F(0),) * 4


def test_df_linearity(fixtures):
    p = fixtures["blowup-p1xp1"]
    a = qb.df_coefficients(p, (1, 0), 4)
    b = qb.df_coefficients(p, (0, 1), 4)
    combo = qb.df_coefficients(p, (3, -2), 4)
    assert combo == tuple(3 * x - 2 * y for x, y in zip(a, b))


def test_df_leading_terms(fixtures):
    for name in ("f1", "blowup-p1xp1", "fano-3-29"):
        p = fixtures[name]
        v = tuple(1 for _ in range(p.dim))
        coeffs = qb.df_coefficients(p, v, 2)
        assert coeffs[0] == dot(qb.measure(p).barycenter, v)
        assert coeffs[1] == dot(qb.a1_closed_form(p), v)
