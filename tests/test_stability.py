from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import qbary as qb
import qbary.stability
from qbary.linalg import dot, vec_add

from conftest import DEL_PEZZO_NAMES, apply_map, fraction_solve, polytope_and_map


def tor(name: str) -> qb.ToricData:
    doc = __import__("qbary.data", fromlist=["fixture_document"]).fixture_document(name)
    if "normals" in doc:
        return qb.toric_data(doc["normals"], doc["offsets"])
    return qb.toric_from_polytope(qb.load_fixture(name))


F1 = qb.toric_data([(1, 0), (0, 1), (-1, -1), (1, 1)], [1, 1, 1, 1])
P2 = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])


def test_delta_k_f1_values():
    value, argmin = qb.delta_k(F1, 1)
    assert value == F(9, 11)
    assert argmin == (3,)  # the ray (1, 1)
    assert qb.delta_k(F1, 2)[0] == F(5, 6)


def test_delta_k_p2_is_one_for_all_k():
    for k in range(1, 11):
        value, argmin = qb.delta_k(P2, k)
        assert value == 1
        assert argmin == (0, 1, 2)


def test_delta_limits():
    value, argmin = qb.delta(F1)
    assert value == F(6, 7) and argmin == (3,)
    assert qb.delta(P2) == (F(1), (0, 1, 2))
    blowup = tor("blowup-p1xp1")
    assert qb.delta(blowup)[0] == F(21, 25)
    assert qb.delta_k(blowup, 1)[0] == F(4, 5)
    fano = tor("fano-3-29")
    bc = qb.measure(fano.polytope).barycenter
    expected = 1 / (1 + max(dot(bc, r) for r in fano.rays))
    assert qb.delta(fano)[0] == expected


def test_delta_polarization_guard():
    # data with an offset that would push a pairing negative cannot be
    # built (test_toric_data_that_misses_its_polytope_is_refused); what is
    # left to refuse here is the index
    with pytest.raises(qb.InvalidInput):
        qb.delta_k(F1, 0)


def test_a_barycenter_outside_the_polytope_does_not_polarize():
    # <bc, v_i> + b_i over one denominator: f1 is {x >= -1, y >= -1,
    # x + y <= 1, x + y >= -1}, so (-3/2, 1/3) is outside the first facet,
    # (-1, 1/3) on it and (-1/2, 1/3) inside; a point is given as integer
    # numerators over a positive denominator, in lowest terms or not
    top_pairing = qbary.stability._top_pairing
    for coords, den in (((-9, 2), 6), ((-3, 1), 3), ((3, 2), 4), ((-18, 4), 12)):
        with pytest.raises(qb.InvalidPolarization, match="nonpositive"):
            top_pairing(F1, coords, den)
    # the threshold is den over the top pairing: 3/4 at (-1/2, 1/3)
    assert top_pairing(F1, (-3, 2), 6) == (8, (1,))
    assert top_pairing(F1, (-6, 4), 12) == (16, (1,))
    assert top_pairing(F1, (0, 0), 1) == (1, (0, 1, 2, 3))


# Polytopes whose dominant facet takes over only from k0 = 6 and k0 = 10:
# every other facet ties or wins at k0 - 1, so the scan must reach there.
LATE_DOMINANCE = (
    (((-3, -1), (-3, 0), (-1, 2), (1, -2), (2, 1)), 6),
    (((-3, 1, 1), (-2, -3, 3), (-1, 1, 3), (1, 0, -1), (2, -2, 0)), 10),
)


@pytest.mark.parametrize("vertices, k0", LATE_DOMINANCE)
def test_k0_is_where_the_dominant_facet_takes_over(vertices, k0):
    # the oracle is the enumerated threshold at each k, not the root scan
    t = qb.toric_from_polytope(qb.hull_from_vertices(vertices))
    seq = qb.delta_sequence(t, [1])
    assert seq.k0 == k0
    for k in range(k0, k0 + 3):
        value, argmin = qb.delta_k(t, k)
        assert argmin == seq.dominant_rays and value == seq.dominant(k)
    assert qb.delta_k(t, k0 - 1)[1] != seq.dominant_rays


def test_delta_sequence_f1():
    seq = qb.delta_sequence(F1, [1, 2], order=3)
    assert [(v.k, v.value) for v in seq.values] == [(1, F(9, 11)), (2, F(5, 6))]
    assert seq.limit == F(6, 7)
    assert seq.asymptotics.coefficients[0] == F(6, 7)
    assert seq.asymptotics.coefficients[1] == F(-3, 49)
    assert seq.dominant_rays == (3,)
    # the dominant rational function takes over at k0 and onward
    for k in range(seq.k0, seq.k0 + 6):
        assert seq.dominant(k) == qb.delta_k(F1, k)[0]


def test_delta_sequence_constant_case():
    seq = qb.delta_sequence(P2, [1, 2, 3], order=4)
    assert seq.limit == 1
    assert seq.asymptotics.coefficients == (F(1), F(0), F(0), F(0))
    assert seq.k0 == 1
    assert all(v.value == 1 for v in seq.values)


def test_delta_sequence_fano_first_order_identity(fixtures):
    # for anticanonical data the first-order term is -delta(1-delta)/2
    for name in FIXTURES_REFLEXIVE:
        t = tor(name)
        seq = qb.delta_sequence(t, [1], order=2)
        d = seq.limit
        assert seq.asymptotics.coefficients[1] == -d * (1 - d) / 2, name


FIXTURES_REFLEXIVE = (
    "p2",
    "f1",
    "blowup-p1xp1",
    "cube2",
    "cube3",
    "square-reflexive-nondelzant",
    "fano-3-29",
    "hexagon",
)


def test_delta_sequence_general_first_order_identity(fixtures):
    # recompute the first-order coefficient from the boundary data directly
    for name in ("f1", "blowup-p1xp1", "square-delzant-nonreflexive", "fano-3-29"):
        t = tor(name)
        seq = qb.delta_sequence(t, [1], order=2)
        geo = qb.measure(t.polytope)
        fd = qb.facet_data(t.polytope)
        drift = tuple(b1 - b0 for b1, b0 in zip(fd.boundary_barycenter, geo.barycenter))
        expected = (
            -(fd.boundary_normalized_volume / (2 * geo.volume))
            * max(dot(drift, t.rays[i]) for i in seq.limit_argmin)
            * seq.limit**2
        )
        assert seq.asymptotics.coefficients[1] == expected, name


def test_del_pezzo_closed_form_on_all_five(fixtures):
    for name in DEL_PEZZO_NAMES:
        t = tor(name)
        for k in range(1, 7):
            assert qb.del_pezzo_closed_form(t, k) == qb.delta_k(t, k)[0], (name, k)


def test_del_pezzo_closed_form_scope(fixtures):
    with pytest.raises(qb.Unsupported):
        qb.del_pezzo_closed_form(tor("square-reflexive-nondelzant"), 1)
    with pytest.raises(qb.Unsupported):
        qb.del_pezzo_closed_form(tor("cube3"), 1)
    with pytest.raises(qb.Unsupported):
        qb.del_pezzo_closed_form(tor("square-delzant-nonreflexive"), 1)


def test_fano_stabilization_dichotomy(fixtures):
    # threshold 1 at dim+1 dilations forces the barycenter sequence to vanish
    for name in ("p2", "cube2", "cube3", "hexagon", "square-reflexive-nondelzant"):
        t = tor(name)
        n = t.polytope.dim
        assert all(qb.delta_k(t, k)[0] == 1 for k in range(1, n + 2))
        verdict = qb.stabilization_check(t.polytope, list(range(1, n + 2)))
        assert verdict.stabilizes and all(x == 0 for x in verdict.value)
        for k in range(1, 11):
            assert qb.delta_k(t, k)[0] == 1


def test_delta_equals_valuative_formula_over_rays(fixtures):
    # min over rays of A(v_i) / S(v_i) with S = <Bc, v_i> - psi(v_i)
    for name in ("f1", "p2", "blowup-p1xp1", "fano-3-29"):
        t = tor(name)
        bc = qb.measure(t.polytope).barycenter
        ratios = []
        for ray in t.rays:
            s_inf = dot(bc, ray) - qb.support_value(t.polytope, ray)
            ratios.append(qb.log_discrepancy(t, ray) / s_inf)
        assert min(ratios) == qb.delta(t)[0], name


def test_expected_vanishing_order():
    assert qb.expected_vanishing_order(F1, (1, 1), 1) == F(11, 9)
    assert qb.expected_vanishing_order(F1, (0, 0), 3) == 0
    for k in (1, 2, 5):
        assert qb.expected_vanishing_order(P2, (1, 0), k) == 1


def test_log_discrepancy():
    for ray in P2.rays:
        assert qb.log_discrepancy(P2, ray) == 1
    assert qb.log_discrepancy(F1, (1, 1)) == 1  # itself a ray
    assert qb.log_discrepancy(P2, (1, 1)) == 2
    assert qb.log_discrepancy(P2, (2, 3)) == 5


def test_log_discrepancy_unsupported_outside_simplicial_cones():
    octahedron = qb.toric_from_polytope(
        qb.hull_from_vertices(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
    )
    # vertex cones of the octahedron have four rays each
    with pytest.raises(qb.Unsupported):
        qb.log_discrepancy(octahedron, (1, 1, 1))


@pytest.mark.parametrize("ks", (["1"], 5, "12", [1.5, 2], [True, 2], None), ids=repr)
def test_delta_sequence_reads_its_dilations_as_integers(ks):
    with pytest.raises(qb.InvalidInput, match="expected an array of integers"):
        qb.delta_sequence(P2, ks)


def test_delta_sequence_takes_dilations_from_any_iterable():
    listed = qb.delta_sequence(P2, [1, 2, 3])
    assert qb.delta_sequence(P2, range(1, 4)) == qb.delta_sequence(P2, iter((1, 2, 3))) == listed
    assert [v.k for v in listed.values] == [1, 2, 3]


@pytest.mark.parametrize("direction", [(1,), (1, 0, 0)])
def test_direction_of_the_wrong_length_is_invalid(direction):
    message = f"direction has length {len(direction)}, expected 2"
    with pytest.raises(qb.InvalidInput, match=message):
        qb.log_discrepancy(P2, direction)
    with pytest.raises(qb.InvalidInput, match=message):
        qb.expected_vanishing_order(P2, direction, 1)


@settings(max_examples=30, deadline=None)
@given(polytope_and_map(max_dim=3))
def test_thresholds_follow_unimodular_maps(case):
    # under x -> Ux + t a ray v becomes U^{-T} v, and since
    # <Ux + t, U^{-T} v> = <x, v> + <t, U^{-T} v> the offset b becomes
    # b - <t, U^{-T} v>; every pairing <Bc_k, v_i> + b_i is then unchanged
    p, u, t = case
    tp = qb.toric_from_polytope(p)
    transpose = list(zip(*u))
    rays = [tuple(int(x) for x in fraction_solve(transpose, ray)) for ray in tp.rays]
    offsets = [b - dot(t, ray) for b, ray in zip(tp.offsets, rays)]
    tq = qb.toric_data(rays, offsets)
    assert tq.polytope == qb.hull_from_vertices([vec_add(apply_map(u, v), t) for v in p.vertices])
    for k in (1, 2, 3):
        assert qb.delta_k(tq, k) == qb.delta_k(tp, k)
    assert qb.delta_sequence(tq, [1, 2], order=3) == qb.delta_sequence(tp, [1, 2], order=3)
