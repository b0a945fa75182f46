from __future__ import annotations

from fractions import Fraction as F
from functools import reduce
from itertools import permutations
from math import comb, factorial, prod
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbary as qb
import qbary.hull
from qbary.exactnum import Polynomial
from qbary.linalg import int_det, solve, vec_add
from qbary.polytope import Body, vertex_cones
from qbary import toric
from qbary.toric import DelzantFan, RooftopFan, VirtualPolytope, delzant_fan

from conftest import DEL_PEZZO_NAMES, apply_map, count_hulls, fraction_det, polytope_and_map, unimodular


def tor(name: str) -> qb.ToricData:
    doc = __import__("qbary.data", fromlist=["fixture_document"]).fixture_document(name)
    if "normals" in doc:
        return qb.toric_data(doc["normals"], doc["offsets"])
    return qb.toric_from_polytope(qb.load_fixture(name))


# ---------------------------------------------------------------------------
# toric data

def test_toric_data_rejects_redundancy():
    with pytest.raises(qb.InvalidInput):
        qb.toric_data([(1, 0), (0, 1), (-1, -1), (1, 1)], [1, 1, 1, 5])
    with pytest.raises(qb.InvalidInput):
        qb.toric_data([(1, 0), (2, 0), (0, 1), (-1, -1)], [1, 1, 1, 1])


def test_rooftop_fan_examples():
    p2 = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    fan = qb.rooftop_fan(p2, (1, 0))
    assert fan.rays == ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, -1))
    assert fan.q == 2
    trivial = qb.rooftop_fan(p2, (0, 0))
    assert trivial.rays[-2:] == ((0, 0, 1), (0, 0, -1))
    assert trivial.q == 1
    seg = qb.toric_data([(1,), (-1,)], [1, 1])
    fan1 = qb.rooftop_fan(seg, (1,))
    assert fan1.rays == ((1, 0), (-1, 0), (0, 1), (1, -1))
    assert fan1.q == 2


# ---------------------------------------------------------------------------
# mixed volumes

def test_mixed_volume_normalization(fixtures):
    for name, p in fixtures.items():
        assert qb.mixed_volume([(p, p.dim)]) == qb.measure(p).volume, name


def test_mixed_volume_pair_matches_polarization_oracle(fixtures, corpus):
    polygons = [p for p in corpus if p.dim == 2][:6] + [fixtures["f1"]]
    q = fixtures["cube2"]
    for p in polygons:
        s = qb.minkowski_sum(p, q)
        oracle = (qb.measure(s).volume - qb.measure(p).volume - qb.measure(q).volume) / 2
        assert qb.mixed_volume([(p, 1), (q, 1)]) == oracle


def test_mixed_volume_virtual_zero(fixtures):
    # P - P and the combination of no terms both represent zero
    p = fixtures["f1"]
    q = fixtures["cube2"]
    for zero in (VirtualPolytope(2, ((1, p), (-1, p))), VirtualPolytope(2, ())):
        assert qb.mixed_volume([(zero, 1), (q, 1)]) == 0
        assert qb.mixed_volume([(q, 1), (zero, 1)]) == 0


def test_mixed_volume_symmetry(fixtures):
    polytopes = [fixtures["f1"], qb.hull_from_vertices([(0, 0), (1, 0), (0, 1)])]
    base = qb.mixed_volume([(polytopes[0], 1), (polytopes[1], 1)])
    for perm in permutations(polytopes):
        assert qb.mixed_volume([(p, 1) for p in perm]) == base


def test_mixed_volume_multilinearity(fixtures):
    p, q, r = fixtures["f1"], fixtures["cube2"], fixtures["p2"]
    s = qb.minkowski_sum(p, q)
    left = qb.mixed_volume([(s, 1), (r, 1)])
    right = qb.mixed_volume([(p, 1), (r, 1)]) + qb.mixed_volume([(q, 1), (r, 1)])
    assert left == right


def test_mixed_volume_argument_validation(fixtures):
    p = fixtures["f1"]
    with pytest.raises(qb.InvalidInput):
        qb.mixed_volume([(p, 1)])
    with pytest.raises(qb.InvalidInput):
        qb.mixed_volume([(p, 0), (p, 2)])
    with pytest.raises(qb.InvalidInput):
        qb.mixed_volume([])


def distributed_mixed_volume(args) -> F:
    """The mixed volume by distributing each slot's multiplicity over its
    terms with multinomial weights, one recursion per level, and evaluating
    each assignment by inclusion-exclusion over dilated sub-sums; the
    construction the one product over all slots replaced, kept as the
    reference.  Each sub-sum is a fold of ``qb.minkowski_sum`` of its own,
    measured by ``qb.measure``."""
    virtuals = [(v if isinstance(v, VirtualPolytope) else VirtualPolytope(v.dim, ((1, v),)), m) for v, m in args]

    def assignments(terms, mult):
        # (polytope -> multiplicity, multinomial count times coefficients);
        # a polytope in two terms gets the multiplicities of both
        if len(terms) == 1:
            (c, p), = terms
            return [({p: mult}, c**mult)]
        (c, p), rest = terms[0], terms[1:]
        out = []
        for take in range(mult + 1):
            for chosen, w in assignments(rest, mult - take):
                out.append(({**chosen, p: chosen.get(p, 0) + take} if take else chosen, w * comb(mult, take) * c**take))
        return out

    def by_inclusion_exclusion(items) -> F:
        n = sum(m for _, m in items)
        total = F(0)

        def rec(idx, chosen):
            nonlocal total
            if idx == len(items):
                if sum(chosen):
                    parts = [qb.dilate(p, c) for (p, _), c in zip(items, chosen) if c]
                    weight = prod(comb(m, c) for (_, m), c in zip(items, chosen))
                    total += (-1) ** (n - sum(chosen)) * weight * qb.measure(reduce(qb.minkowski_sum, parts)).volume
                return
            for c in range(items[idx][1] + 1):
                rec(idx + 1, chosen + [c])

        rec(0, [])
        return total / factorial(n)

    total = F(0)

    def rec(idx, coeff, acc):
        nonlocal total
        if idx == len(virtuals):
            total += coeff * by_inclusion_exclusion(tuple(sorted(acc.items(), key=lambda kv: kv[0].vertices)))
            return
        vp, mult = virtuals[idx]
        if not vp.terms:
            return
        for chosen, w in assignments(vp.terms, mult):
            nxt = dict(acc)
            for p, m in chosen.items():
                nxt[p] = nxt.get(p, 0) + m
            rec(idx + 1, coeff * w, nxt)

    rec(0, 1, {})
    return total


@st.composite
def full_polytopes(draw, dim: int) -> qb.Polytope:
    """The hull of one to five points with entries in [-2, 2], together with
    the unit simplex at the first point when the points alone do not span."""
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=5))
    try:
        return qb.hull_from_vertices(points)
    except qb.DegenerateInput:
        return qb.hull_from_vertices(points + [vec_add(points[0], unit(dim, i)) for i in range(dim)])


@st.composite
def virtual_slots(draw):
    """Slots of multiplicities summing to 2 or 3, each a virtual polytope of
    1 to 3 terms with coefficients +-1 and +-2 over a pool of random
    polygons or 3-polytopes, some repeated across terms and slots."""
    dim = draw(st.integers(2, 3))
    pool = [draw(full_polytopes(dim)) for _ in range(draw(st.integers(1, 4)))]
    mults = draw(st.sampled_from(((2,), (1, 1)) if dim == 2 else ((3,), (2, 1), (1, 2), (1, 1, 1))))
    slots = []
    for m in mults:
        terms = draw(st.lists(st.tuples(st.sampled_from((-2, -1, 1, 2)), st.sampled_from(pool)), min_size=1, max_size=3))
        slots.append((VirtualPolytope(dim, tuple(terms)), m))
    return slots


@settings(max_examples=150, deadline=None)
@given(virtual_slots())
def test_mixed_volume_matches_the_distributed_reference(slots):
    assert qb.mixed_volume(slots) == distributed_mixed_volume(slots)


NOT_BODIES = {
    "mixed_volume of rows": lambda: qb.mixed_volume([([(0, 0), (1, 0)], 2)]),
    "mixed_volume of a fixture name": lambda: qb.mixed_volume([("p2", 2)]),
    "VirtualPolytope of rows": lambda: VirtualPolytope(2, ((1, [(0, 0), (1, 0)]),)),
    "dilate of rows": lambda: qb.dilate([(0, 0), (1, 0)], 2),
    "translate of rows": lambda: qb.translate([(0, 0), (1, 0)], (1, 1)),
    "minkowski_sum of rows": lambda: qb.minkowski_sum([(0, 0), (1, 0)], F1),
}


@pytest.mark.parametrize("name", NOT_BODIES)
def test_arguments_that_are_not_bodies_are_refused(name):
    with pytest.raises(qb.InvalidInput, match="^expected a Polytope( or a VirtualPolytope)?, got (list|str)$"):
        NOT_BODIES[name]()


# a Body, even one of full dimension, is not an operand of the Minkowski layer
BODY = Body(2, ((-1, -1), (-1, 0), (0, -1), (1, 0), (0, 1)))
BODY_ARGUMENTS = {
    "mixed_volume": lambda: qb.mixed_volume([(BODY, 1), (F1, 1)]),
    "VirtualPolytope": lambda: VirtualPolytope(2, ((1, BODY),)),
    "dilate": lambda: qb.dilate(BODY, 2),
    "translate": lambda: qb.translate(BODY, (1, 1)),
    "minkowski_sum": lambda: qb.minkowski_sum(F1, BODY),
}


@pytest.mark.parametrize("name", BODY_ARGUMENTS)
def test_a_body_is_refused_where_a_polytope_belongs(name):
    with pytest.raises(qb.InvalidInput, match="^expected a Polytope( or a VirtualPolytope)?, got Body$"):
        BODY_ARGUMENTS[name]()


# argument lists and virtual terms of the wrong kind, each refused with the
# name of what it should have been or of the dimension it had
HOSTILE_MINKOWSKI = {
    "mixed_volume of a Polytope": (lambda: qb.mixed_volume(F1), "list of pairs"),
    "mixed_volume of a 1-tuple": (lambda: qb.mixed_volume([(F1,)]), "list of pairs"),
    "mixed_volume of bare polytopes": (lambda: qb.mixed_volume([F1, P2.polytope]), "list of pairs"),
    "mixed_volume across dimensions": (lambda: qb.mixed_volume([(F1, 1), (qb.load_fixture("cube3"), 1)]), "across ambient dimensions"),
    "VirtualPolytope of a list of terms": (lambda: VirtualPolytope(2, [(1, F1)]), "tuple of pairs"),
    "VirtualPolytope of a 1-tuple term": (lambda: VirtualPolytope(2, ((F1,),)), "tuple of pairs"),
    "VirtualPolytope of another dimension": (lambda: VirtualPolytope(3, ((1, F1),)), "dimension 2, expected 3"),
}


@pytest.mark.parametrize("name", HOSTILE_MINKOWSKI)
def test_hostile_minkowski_arguments_are_refused(name):
    call, message = HOSTILE_MINKOWSKI[name]
    with pytest.raises(qb.InvalidInput, match=message):
        call()


def test_mixed_volume_of_two_polygons_takes_one_hull(fixtures, monkeypatch):
    # a summand alone is its own sum, and the sum of both is the one hull
    calls = count_hulls(monkeypatch)
    qb.mixed_volume([(fixtures["p2"], 1), (fixtures["f1"], 1)])
    assert len(calls) == 1


def test_mixed_volume_above_the_dimension_cap_is_refused_at_once():
    # nine translated unit 9-simplices, which the hull engine, uncapped,
    # builds; their mixed volume would take 2^9 - 1 Minkowski sums
    simplices = [
        qbary.hull.convex_hull([unit(9, i), *(vec_add(unit(9, i), unit(9, j)) for j in range(9))]) for i in range(9)
    ]
    start = time.process_time()
    with pytest.raises(qb.Unsupported, match="dimension 9 above the configured cap 7"):
        qb.mixed_volume([(s, 1) for s in simplices])
    with pytest.raises(qb.Unsupported, match="dimension 9 above the configured cap 7"):
        VirtualPolytope(9, ((1, simplices[0]),))
    assert time.process_time() - start < 1


# ---------------------------------------------------------------------------
# the Grothendieck relation, checked by the tests' own Minkowski folds

def grothendieck_equivalent(a: VirtualPolytope, b: VirtualPolytope) -> bool:
    """Whether a and b are equal once every negative term is moved to the
    other side, each side a fold of ``qb.minkowski_sum``; an empty side is
    the origin, which no sum of polytopes equals."""
    left, right = [], []
    for c, p in a.terms:
        (left if c > 0 else right).extend([p] * abs(c))
    for c, p in b.terms:
        (right if c > 0 else left).extend([p] * abs(c))
    if not left or not right:
        return not left and not right
    return reduce(qb.minkowski_sum, left) == reduce(qb.minkowski_sum, right)


def test_virtual_equivalence_is_translation_sensitive(fixtures):
    p = fixtures["f1"]
    a = VirtualPolytope(2, ((1, p),))
    b = VirtualPolytope(2, ((1, qb.translate(p, (1, 0))),))
    assert grothendieck_equivalent(a, a)
    assert not grothendieck_equivalent(a, b)


def test_virtual_cancellation(fixtures):
    p, q = fixtures["f1"], fixtures["cube2"]
    s = qb.minkowski_sum(p, q)
    # (P + Q) - Q ~ P
    assert grothendieck_equivalent(VirtualPolytope(2, ((1, s), (-1, q))), VirtualPolytope(2, ((1, p),)))


# ---------------------------------------------------------------------------
# divisor polytopes

def test_divisor_polytope_anticanonical_is_direct():
    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert qb.divisor_polytope(t, (1, 1, 1)) == VirtualPolytope(2, ((1, t.polytope),))


def test_divisor_polytope_zero_has_no_terms():
    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert qb.divisor_polytope(t, (0, 0, 0)) == VirtualPolytope(2, ())


def test_divisor_polytope_single_ray_grothendieck_equivalence():
    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    d1 = qb.divisor_polytope(t, (1, 0, 0))
    # the divisor is ample on the projective plane, so the direct polytope
    # appears as one term and must match both difference representatives
    assert len(d1.terms) == 1
    for m in (1, 2):
        shifted = qb.polytope_from_halfspaces(t.rays, [m + 1, m, m])
        base = qb.polytope_from_halfspaces(t.rays, [m, m, m])
        assert grothendieck_equivalent(d1, VirtualPolytope(2, ((1, shifted), (-1, base))))
        assert not grothendieck_equivalent(d1, VirtualPolytope(2, ((1, base), (-1, shifted))))


def test_divisor_polytope_needs_shift_on_product():
    square = qb.toric_data([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 1, 0, 1])
    # fiber divisor: direct data degenerates, an ample shift is required
    vp = qb.divisor_polytope(square, (1, 0, 0, 0))
    assert len(vp.terms) == 2
    coeffs = sorted(c for c, _ in vp.terms)
    assert coeffs == [-1, 1]
    # its polytope is a segment; the difference at the shift 2 represents it too
    shifted = qb.polytope_from_halfspaces(square.rays, [1, 2, 0, 2])
    base = qb.polytope_from_halfspaces(square.rays, [0, 2, 0, 2])
    assert grothendieck_equivalent(vp, VirtualPolytope(2, ((1, shifted), (-1, base))))


def test_divisor_polytope_requires_delzant(fixtures):
    t = qb.toric_from_polytope(fixtures["square-reflexive-nondelzant"])
    with pytest.raises(qb.PreconditionViolation):
        qb.divisor_polytope(t, (1, 0, 0, 0))


# ---------------------------------------------------------------------------
# surface intersection numbers

def test_p2_pairwise_divisor_mixed_volumes_are_half():
    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    divisors = [qb.divisor_polytope(t, tuple(int(i == j) for j in range(3))) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert qb.mixed_volume([(divisors[i], 1), (divisors[j], 1)]) == F(1, 2)


# ---------------------------------------------------------------------------
# the fan's cones against inclusion-exclusion, one intersection number at a
# time (the Todd evaluation only ever sees them summed)

DELZANT_2D = ("p2", "f1", "blowup-p1xp1", "cube2", "hexagon", "square-delzant-nonreflexive")
DELZANT_FIXTURES = DELZANT_2D + ("cube3", "fano-3-29")


def unit(d: int, i: int) -> tuple[int, ...]:
    return tuple(int(i == j) for j in range(d))


def lawrence_mixed_volume(fan, args) -> F:
    """V(P(h_1), m_1; ..) as the polarization of Lawrence's volume
    polynomial on the fan's cones: (1/n!) sum_cones prod_k (sum_i gamma_i
    h_k,i)^m_k / prod_i gamma_i."""
    total = F(0)
    for cone, gamma in fan.cones:
        num = 1
        for h, m in args:
            num *= sum(g * h[i] for i, g in zip(cone, gamma)) ** m
        total += F(num, prod(gamma))
    return total / factorial(fan.dim)


def oracle_mixed_volume(t: qb.ToricData, indices) -> F:
    d = len(t.rays)
    return qb.mixed_volume([(qb.divisor_polytope(t, unit(d, i)), 1) for i in indices])


@pytest.mark.parametrize("name", DELZANT_2D)
def test_fan_pairs_match_inclusion_exclusion(name):
    # every D_i.D_j, including self-intersections, which are negative on
    # blowup-p1xp1 and need a shifted (non-ample) divisor polytope
    t = tor(name)
    d = len(t.rays)
    fan = delzant_fan(t)
    for i in range(d):
        for j in range(i, d):
            via_fan = lawrence_mixed_volume(fan, [(unit(d, i), 1), (unit(d, j), 1)])
            assert via_fan == oracle_mixed_volume(t, (i, j)), (name, i, j)
    assert lawrence_mixed_volume(fan, [(t.offsets, 2)]) == qb.measure(t.polytope).volume


@pytest.mark.parametrize(
    "name, triples",
    [
        ("cube3", ((0, 1, 2), (0, 0, 1), (1, 3, 5))),
        ("fano-3-29", ((0, 1, 2), (2, 4, 4), (0, 0, 0))),
    ],
)
def test_fan_triples_match_inclusion_exclusion(name, triples):
    # fano-3-29 has V(D_2, D_4, D_4) = -1/3 and V(D_0, D_0, D_0) = -1/2
    t = tor(name)
    d = len(t.rays)
    fan = delzant_fan(t)
    for triple in triples:
        via_fan = lawrence_mixed_volume(fan, [(unit(d, i), 1) for i in triple])
        assert via_fan == oracle_mixed_volume(t, triple), (name, triple)
    assert lawrence_mixed_volume(fan, [(t.offsets, 3)]) == qb.measure(t.polytope).volume


# ---------------------------------------------------------------------------
# the paper's composition formula, evaluated as written

def compositions(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


def paper_formula(t: qb.ToricData, lead, slots: int, js) -> tuple[F, ...]:
    """a_j = sum over compositions (l_1..l_slots) of dim - j of
    dim! B(l_1)..B(l_slots) / (j! l_1!..l_slots!) V(P(lead), j; D_1, l_1; ..),
    every mixed volume by inclusion-exclusion over Minkowski sums."""
    n = t.polytope.dim
    leading = qb.divisor_polytope(t, lead)
    divisors = [qb.divisor_polytope(t, unit(len(t.rays), i)) for i in range(slots)]
    out = []
    for j in js:
        total = F(0)
        for comp in compositions(n - j, slots):
            weight = F(factorial(n), factorial(j))
            for l in comp:
                weight *= qb.bernoulli(l) / factorial(l)
            if weight:
                args = [(leading, j)] if j else []
                args += [(divisors[i], l) for i, l in enumerate(comp) if l]
                total += weight * qb.mixed_volume(args)
        out.append(total)
    return tuple(out)


def rooftop_toric(t: qb.ToricData, v) -> qb.ToricData:
    """The rooftop in direction v at the canonical q, with its half-spaces in
    the rooftop fan's ray order."""
    fan = qb.rooftop_fan(t, v)
    roof = qb.rooftop(t.polytope, v, fan.q)
    offsets = {f.normal: f.offset for f in roof.facets}
    return qb.ToricData(fan.rays, tuple(offsets[r] for r in fan.rays), roof)


@pytest.mark.parametrize("name", DELZANT_2D + ("cube3",))
def test_paper_formula_gives_hrr_coefficients(name):
    t = tor(name)
    n = t.polytope.dim
    assert paper_formula(t, t.offsets, len(t.rays), range(n + 1)) == qb.hrr_coefficients(t)


@pytest.mark.parametrize(
    "name, v", [("p2", (1, 0)), ("f1", (1, 1)), ("f1", (-1, 2))], ids=("p2-(1,0)", "f1-(1,1)", "f1-(-1,2)")
)
def test_paper_formula_gives_rooftop_coefficients(name, v):
    # the rooftop minus q times its roof divisor: P's offsets, then 0 on the
    # floor and q - q on the roof; on f1 in direction (-1, 2) that divisor
    # is not ample and its shifted representative must keep the normal fan
    t = tor(name)
    tbar = rooftop_toric(t, v)
    assert len(tbar.polytope.facets) == len(tbar.rays) and tbar.offsets[-2:] == (0, qb.rooftop_fan(t, v).q)
    n = t.polytope.dim
    via_paper = paper_formula(tbar, t.offsets + (0, 0), len(t.rays), range(1, n + 2))
    assert via_paper == qb.rooftop_coefficients(t, v).values


def swap_ray_and_floor(fan):
    # the floor gets P's offset and a Todd factor, the ray neither
    return RooftopFan((fan.rays[-2], *fan.rays[1:-2], fan.rays[0], fan.rays[-1]), fan.q)


def reverse_rays(fan):
    # P's rays meet each other's offsets
    return RooftopFan((*fan.rays[-3::-1], *fan.rays[-2:]), fan.q)


@pytest.mark.parametrize(
    "corrupt, make, v",
    [
        (swap_ray_and_floor, lambda: tor("p2"), (1, 0)),
        (swap_ray_and_floor, lambda: tor("f1"), (-1, 2)),
        (swap_ray_and_floor, lambda: tor("cube3"), (1, 0, 0)),
        # f1 moved off the origin, so that its offsets differ
        (reverse_rays, lambda: qb.toric_from_polytope(qb.translate(qb.load_fixture("f1"), (2, 1))), (1, 1)),
    ],
    ids=("p2-swapped", "f1-swapped", "cube3-swapped", "shifted-f1-reversed"),
)
def test_rooftop_formula_catches_corrupted_fan_rays(monkeypatch, corrupt, make, v):
    # the rooftop is built from P, not from the fan, so only the formula
    # sees the rays: it must then disagree with the counted c'_j
    t = make()
    real = toric.rooftop_fan
    monkeypatch.setattr(toric, "rooftop_fan", lambda t, d: corrupt(real(t, d)))
    with pytest.raises(qb.InternalInconsistency, match="mixed-volume rooftop coefficients disagree with counting"):
        qb.rooftop_coefficients(t, v)


def shift_q(real, shift):
    def fan(t, direction):
        f = real(t, direction)
        return RooftopFan(f.rays, f.q + shift)

    return fan


@pytest.mark.parametrize("name, v", [("p2", (1, 0)), ("f1", (-1, 2)), ("cube3", (1, 0, 0))])
def test_rooftop_checks_catch_a_corrupted_q(monkeypatch, name, v):
    t = tor(name)
    expected = qb.rooftop_coefficients(t, v).values
    real_fan, real_roof = toric.rooftop_fan, toric.rooftop
    # a q one too low puts the roof on the floor, which the rooftop refuses
    monkeypatch.setattr(toric, "rooftop_fan", shift_q(real_fan, -1))
    with pytest.raises(qb.PreconditionViolation, match="rooftop offset too small"):
        qb.rooftop_coefficients(t, v)
    # a rooftop one higher than the q it is counted against is caught by
    # the counts at k = 1, 2
    monkeypatch.setattr(toric, "rooftop_fan", real_fan)
    monkeypatch.setattr(toric, "rooftop", lambda p, d, q: real_roof(p, d, q + 1))
    with pytest.raises(qb.InternalInconsistency, match="rooftop count disagrees with the coordinate-sum polynomial at k=1"):
        qb.rooftop_coefficients(t, v)
    # a q one too high is no fault: the c'_j do not depend on q, and the
    # rooftop counts hold at every q above the floor
    monkeypatch.setattr(toric, "rooftop", real_roof)
    monkeypatch.setattr(toric, "rooftop_fan", shift_q(real_fan, 1))
    assert qb.rooftop_coefficients(t, v).values == expected


def test_fan_cones_are_unimodular_vertex_cones(fixtures):
    t = tor("hexagon")
    fan = delzant_fan(t)
    assert len(fan.cones) == len(t.polytope.vertices)
    for cone, gamma in fan.cones:
        assert len(cone) == 2 and all(gamma)
        assert abs(int_det([t.rays[i] for i in cone])) == 1
    with pytest.raises(qb.PreconditionViolation):
        delzant_fan(qb.toric_from_polytope(fixtures["square-reflexive-nondelzant"]))


# ---------------------------------------------------------------------------
# counting coefficients via Bernoulli numbers and mixed volumes

def test_hrr_known_values(fixtures):
    p2 = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    assert qb.hrr_coefficients(p2) == (F(1), F(9, 2), F(9, 2))
    f1 = tor("f1")
    assert qb.hrr_coefficients(f1) == (F(1), F(4), F(4))
    unit_square = qb.toric_from_polytope(
        qb.hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    )
    assert qb.hrr_coefficients(unit_square) == (F(1), F(2), F(1))


def test_hrr_matches_fit_on_delzant_fixtures():
    for name in DELZANT_FIXTURES:
        t = tor(name)
        assert qb.hrr_coefficients(t) == qb.ehrhart_polynomial(t.polytope).poly.coefficients, name


def test_hrr_three_dimensional_values():
    assert qb.hrr_coefficients(tor("cube3")) == (F(1), F(6), F(12), F(8))
    assert qb.hrr_coefficients(tor("fano-3-29")) == (F(1), F(37, 6), F(25, 2), F(25, 3))


def test_hrr_requires_delzant(fixtures):
    t = qb.toric_from_polytope(fixtures["square-reflexive-nondelzant"])
    with pytest.raises(qb.PreconditionViolation):
        qb.hrr_coefficients(t)


# f1's facets, in an order of their own
F1_RAYS = ((1, 1), (-1, -1), (1, 0), (0, 1))
MISMATCHED_TORIC_DATA = {
    # P^2's rays miss the facet normal (1, 1) of f1
    "missing ray": (((1, 0), (0, 1), (-1, -1)), (1, 1, 1)),
    # f1's rays with the offset of (1, 1) one too large
    "wrong offset": (F1_RAYS, (2, 1, 1, 1)),
    # f1's rays and (1, -1), which only touches f1 at the vertex (-1, 2)
    "extra ray": (F1_RAYS + ((1, -1),), (1, 1, 1, 1, 3)),
    # f1's rays with (0, 1) listed twice
    "ray listed twice": (F1_RAYS + ((0, 1),), (1, 1, 1, 1, 1)),
    # f1's rays with one offset too many
    "extra offset": (F1_RAYS, (1, 1, 1, 1, 1)),
}


@pytest.mark.parametrize("case", MISMATCHED_TORIC_DATA)
def test_toric_data_that_misses_its_polytope_is_refused(case):
    # the constructor compares the half-spaces with the facets, so no entry
    # point ever sees ray data that is not its polytope's; f1's own data,
    # in the caller's order, is built
    f1 = qb.load_fixture("f1")
    assert qb.ToricData(F1_RAYS, (1, 1, 1, 1), f1).rays == F1_RAYS
    rays, offsets = MISMATCHED_TORIC_DATA[case]
    with pytest.raises(qb.PreconditionViolation, match="redundant or non-facet"):
        qb.ToricData(rays, offsets, f1)


# ---------------------------------------------------------------------------
# rooftop coefficients

def test_rooftop_coefficients_p2_vanish():
    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    rc = qb.rooftop_coefficients(t, (1, 0))
    assert rc.values == (F(0), F(0), F(0))
    assert rc.q == 2
    assert rc.formula_available
    assert rc.formula_values == rc.values


def test_rooftop_coefficients_f1():
    rc = qb.rooftop_coefficients(tor("f1"), (1, 1))
    assert rc.values == (F(1, 3), F(1), F(2, 3))


def test_rooftop_coefficients_zero_direction():
    rc = qb.rooftop_coefficients(tor("f1"), (0, 0))
    assert rc.values == (F(0), F(0), F(0))
    assert rc.q == 1


def test_rooftop_coefficients_match_pairing_polynomial():
    # sum_j c'_{j+1} k^j must equal the numerator of <Bc_k, v> over E(k),
    # and the fan formula on the (Delzant) rooftop must agree with counting
    cases = [(name, ((1, 0), (0, 1), (1, 1))) for name in ("p2", "f1", "blowup-p1xp1", "cube2", "hexagon")]
    cases += [(name, ((1, 0, 0), (1, 1, 1), (-1, 2, 0))) for name in ("cube3", "fano-3-29")]
    for name, directions in cases:
        t = tor(name)
        bf = qb.barycenter_function(t.polytope)
        for v in directions:
            rc = qb.rooftop_coefficients(t, v)
            assert Polynomial.of(rc.values) == bf.pairing_numerator(v), (name, v)
            assert rc.formula_available and rc.formula_values == rc.values, (name, v)


def test_rooftop_count_check_rejects_swapped_numerators(monkeypatch):
    # numerators handed out in the wrong axis order must fail against the
    # actual count of the rooftop
    true_function = qb.barycenter_function

    def swapped(p):
        bf = true_function(p)
        return qb.BarycenterFunction(bf.numerators[::-1], bf.denominator)

    trapezoid = qb.toric_from_polytope(qb.hull_from_vertices([(0, 0), (3, 0), (0, 1), (2, 1)]))
    monkeypatch.setattr("qbary.toric.barycenter_function", swapped)
    with pytest.raises(qb.InternalInconsistency, match="rooftop count"):
        qb.rooftop_coefficients(trapezoid, (1, 0))


def test_rooftop_coefficients_fano_threefold():
    rc = qb.rooftop_coefficients(tor("fano-3-29"), (1, 0, 0))
    assert rc.values == (F(1, 4), F(13, 8), F(11, 4), F(11, 8))


# ---------------------------------------------------------------------------
# the Todd route under lattice maps, and mutants of it

@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hrr_and_rooftop_coefficients_under_unimodular_maps(data):
    # hrr is invariant under x -> Ux + s; <Bc_k, v> is invariant under
    # x -> Ux when the direction maps to U^{-T} v
    t = tor(data.draw(st.sampled_from(DELZANT_FIXTURES)))
    n = t.polytope.dim
    u = data.draw(unimodular(n))
    s = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    v = data.draw(st.tuples(*[st.integers(-2, 2)] * n))

    def image(shift):
        return qb.toric_from_polytope(
            qb.hull_from_vertices([vec_add(apply_map(u, x), shift) for x in t.polytope.vertices])
        )

    assert qb.hrr_coefficients(image(s)) == qb.hrr_coefficients(t)
    w = tuple(int(x) for x in solve(list(zip(*u)), v))
    assert qb.rooftop_coefficients(image((0,) * n), w).values == qb.rooftop_coefficients(t, v).values


@pytest.mark.parametrize("mutant, name", (("drop-cone", "cube3"), ("bernoulli-2", "fano-3-29")))
def test_todd_route_mutants_fail_the_checks(monkeypatch, mutant, name):
    # B(2) only ever multiplies some D_i^2, and every D_i^2 vanishes on the
    # cube, so that mutant needs a threefold with curved divisors
    if mutant == "drop-cone":
        true_fan = delzant_fan

        def fan_without_a_cone(t):
            fan = true_fan(t)
            return DelzantFan(fan.dim, fan.cones[1:])

        monkeypatch.setattr("qbary.toric.delzant_fan", fan_without_a_cone)
    else:
        true_bernoulli = qb.bernoulli
        monkeypatch.setattr("qbary.toric.bernoulli", lambda l: true_bernoulli(l) + (l == 2))
    with pytest.raises(qb.InternalInconsistency):
        qb.hrr_coefficients(tor(name))
    with pytest.raises(qb.InternalInconsistency):
        qb.rooftop_coefficients(tor("f1"), (1, 1))


@pytest.mark.parametrize("name", ("f1", "cube3", "fano-3-29"))
def test_hrr_count_check_catches_a_constant_term_off_by_one(monkeypatch, name):
    # a_0 + 1 keeps the volume and boundary identities, which read a_n and
    # a_(n-1) alone, so only the counts can refuse it, at E(0) = 1
    true_todd = toric._todd_coefficients

    def a0_plus_one(fan, lead, slots, js):
        coeffs = true_todd(fan, lead, slots, js)
        return (coeffs[0] + 1,) + coeffs[1:]

    monkeypatch.setattr(toric, "_todd_coefficients", a0_plus_one)
    with pytest.raises(qb.InternalInconsistency, match="^Bernoulli/mixed-volume coefficients disagree with the counts at k=0$"):
        qb.hrr_coefficients(tor(name))


# ---------------------------------------------------------------------------
# the integer Todd kernel against a Fraction reference, and closed forms

ROOFTOP_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (-1, 2))


def reference_todd(fan, lead, slots, js) -> tuple[F, ...]:
    """The sum of ``toric._todd_coefficients`` term by term in Fractions:
    for each j, over the cones, L^j / (j! prod gamma) times the x^(dim - j)
    coefficient of the product of Td(gamma_i x) over the cone's rays i <
    slots."""
    n = fan.dim
    todd = [qb.bernoulli(l) / factorial(l) for l in range(n + 1)]
    out = dict.fromkeys(js, F(0))
    for cone, gamma in fan.cones:
        series = [F(1)] + [F(0)] * n
        for i, g in zip(cone, gamma):
            if i < slots:
                factor = [b * g**l for l, b in enumerate(todd)]
                series = [sum(series[a] * factor[m - a] for a in range(m + 1)) for m in range(n + 1)]
        lin = sum(g * lead[i] for i, g in zip(cone, gamma))
        for j in js:
            out[j] += F(lin**j, factorial(j) * prod(gamma)) * series[n - j]
    return tuple(out.values())


def box(n: int) -> qb.ToricData:
    """[-1, 1]^n."""
    rays = [unit(n, i) for i in range(n)] + [tuple(-x for x in unit(n, i)) for i in range(n)]
    return qb.toric_data(rays, [1] * (2 * n))


def anticanonical(n: int) -> qb.ToricData:
    """{x_i >= -1, sum x_i <= 1}, a translate of (n + 1) Delta_n."""
    return qb.toric_data([unit(n, i) for i in range(n)] + [(-1,) * n], [1] * (n + 1))


def todd_cases():
    """(fan, lead, slots, js) for the hrr sum on every Delzant fixture, the
    boxes and anticanonical simplices of dimension 2..7, and the rooftop sum
    on every fixture's rooftop in each direction."""
    inputs = [tor(name) for name in DELZANT_FIXTURES]
    inputs += [make(n) for n in range(2, 8) for make in (box, anticanonical)]
    for t in inputs:
        n = t.polytope.dim
        yield delzant_fan(t), t.offsets, len(t.rays), range(n + 1)
    for name in DELZANT_FIXTURES:
        t = tor(name)
        n = t.polytope.dim
        for v in ROOFTOP_DIRECTIONS:
            roof = rooftop_toric(t, v + (0,) * (n - 2))
            assert qb.classify(roof.polytope).delzant
            # P's offsets, then 0 on the floor and q - q on the roof
            yield delzant_fan(roof), t.offsets + (0, 0), len(t.rays), range(1, n + 2)


def test_todd_kernel_matches_the_fraction_reference():
    for fan, lead, slots, js in todd_cases():
        assert toric._todd_coefficients(fan, lead, slots, js) == reference_todd(fan, lead, slots, js), (fan.dim, lead)


def expand_linear_factors(factors, scale) -> tuple[F, ...]:
    """Coefficients of prod (a k + b) / scale over the (a, b) in factors."""
    coeffs = [F(1, scale)]
    for a, b in factors:
        coeffs = [b * c + a * (coeffs[m - 1] if m else 0) for m, c in enumerate(coeffs + [0])]
    return tuple(coeffs)


def test_todd_kernel_gives_closed_forms_at_the_dimension_cap():
    # no counting: [-1,1]^7 holds (2k+1)^7 points of kP and the anticanonical
    # 7-simplex, a translate of 8 Delta_7, holds C(8k+7, 7)
    cases = ((box(7), [(2, 1)] * 7, 1), (anticanonical(7), [(8, i) for i in range(1, 8)], factorial(7)))
    for t, factors, scale in cases:
        got = toric._todd_coefficients(delzant_fan(t), t.offsets, len(t.rays), range(8))
        assert got == expand_linear_factors(factors, scale)


# ---------------------------------------------------------------------------
# the fan read off the incidence against a cross-product reference

def cross_product_fan(t: qb.ToricData) -> DelzantFan:
    """Each vertex cone's dual basis as cofactor cross products of the other
    rays, scaled by the pairing with the ray itself; the same choice of c as
    ``delzant_fan``."""
    p = t.polytope
    n = p.dim
    index = {r: i for i, r in enumerate(t.rays)}
    # the facets through each vertex from its coordinates, not the incidence
    cones = [
        tuple(sorted(index[f.normal] for f in p.facets if sum(a * b for a, b in zip(v, f.normal)) == -f.offset))
        for v in p.vertices
    ]
    duals = []
    for cone in cones:
        rows = [t.rays[i] for i in cone]
        ws = []
        for j in range(n):
            others = rows[:j] + rows[j + 1 :]
            w = tuple((-1) ** c * fraction_det([r[:c] + r[c + 1 :] for r in others]) for c in range(n))
            pairing = sum(a * b for a, b in zip(rows[j], w))
            assert abs(pairing) == 1
            ws.append(tuple(int(x * pairing) for x in w))
        duals.append(ws)
    s = 2
    while True:
        c = tuple(s**k for k in range(n))
        gammas = [tuple(sum(a * b for a, b in zip(c, w)) for w in ws) for ws in duals]
        if all(all(g) for g in gammas):
            return DelzantFan(n, tuple(zip(cones, gammas)))
        s += 1


def test_fan_reader_matches_the_cross_product_reference():
    inputs = [tor(name) for name in DELZANT_FIXTURES]
    inputs += [make(n) for n in range(2, 6) for make in (box, anticanonical)]
    inputs += [
        rooftop_toric(tor(name), v + (0,) * (tor(name).polytope.dim - 2))
        for name in DELZANT_FIXTURES
        for v in ROOFTOP_DIRECTIONS
    ]
    for t in inputs:
        assert delzant_fan(t) == cross_product_fan(t), t.rays


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fan_reader_on_lattice_images_of_the_fixtures(data):
    t = tor(data.draw(st.sampled_from(DELZANT_FIXTURES)))
    n = t.polytope.dim
    u = data.draw(unimodular(n))
    s = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    image = qb.toric_from_polytope(
        qb.hull_from_vertices([vec_add(apply_map(u, x), s) for x in t.polytope.vertices])
    )
    assert delzant_fan(image) == cross_product_fan(image)


@settings(max_examples=40, deadline=None)
@given(polytope_and_map(max_dim=3))
def test_fan_reader_on_random_lattice_images(case):
    # the Delzant ones match the reference; the others are refused up front
    p, u, s = case
    t = qb.toric_from_polytope(qb.hull_from_vertices([vec_add(apply_map(u, x), s) for x in p.vertices]))
    if qb.classify(t.polytope).delzant:
        assert delzant_fan(t) == cross_product_fan(t)
    else:
        with pytest.raises(qb.PreconditionViolation):
            delzant_fan(t)


@pytest.mark.parametrize("name", ("cube2", "f1", "hexagon", "cube3", "fano-3-29"))
def test_fan_reader_catches_an_incidence_that_misplaces_a_vertex(name):
    # two vertices trade coordinates: the incidence still names Delzant
    # cones, but the edges it names no longer run along the dual basis
    t = tor(name)
    p = t.polytope
    for a in range(len(p.vertices)):
        for b in range(a + 1, len(p.vertices)):
            vertices = list(p.vertices)
            vertices[a], vertices[b] = vertices[b], vertices[a]
            bad = qb.Polytope(p.dim, tuple(vertices), p.facets, p.incidence)
            assert qb.classify(bad).delzant
            with pytest.raises(qb.InternalInconsistency, match="not the dual basis"):
                delzant_fan(qb.ToricData(t.rays, t.offsets, bad))


@pytest.mark.parametrize("name", ("cube2", "f1", "hexagon", "cube3", "fano-3-29"))
def test_fan_reader_catches_a_cone_with_a_swapped_facet(monkeypatch, name):
    # one facet of one cone is replaced by a facet that misses the vertex:
    # some "edge" then does not have the vertex and one other as its ends
    t = tor(name)
    true_cones = toric.vertex_cones(t.polytope)
    for vi, cone in enumerate(true_cones):
        for pos in range(len(cone)):
            for k in range(len(t.polytope.facets)):
                if k in cone:
                    continue
                swapped = tuple(sorted(cone[:pos] + (k,) + cone[pos + 1 :]))
                cones = true_cones[:vi] + (swapped,) + true_cones[vi + 1 :]
                monkeypatch.setattr(toric, "vertex_cones", lambda p, cones=cones: cones)
                with pytest.raises(qb.InternalInconsistency):
                    delzant_fan(t)


# ---------------------------------------------------------------------------
# ample shifts against a search over the shifts

def fan_polytope(t: qb.ToricData, offsets):
    """The polytope of ``t.rays`` at ``offsets`` when every inequality is a
    facet at exactly that offset and the vertex cones are those of
    ``t.polytope``; None otherwise."""
    try:
        p = qb.ToricData(t.rays, tuple(offsets), qb.polytope_from_halfspaces(t.rays, offsets)).polytope
    except qb.InvalidInput:
        return None
    return p if set(vertex_cones(p)) == set(vertex_cones(t.polytope)) else None


def searched_divisor_polytope(t: qb.ToricData, coeffs) -> tuple[int, VirtualPolytope]:
    """The least m = 0, 1, 2, .. at which ``m * offsets + coeffs`` passes
    :func:`fan_polytope`, found by trying each in turn, and the divisor's
    virtual polytope at that shift."""
    m = 0
    while (shifted := fan_polytope(t, [m * b + c for b, c in zip(t.offsets, coeffs)])) is None:
        m += 1
    if m == 0:
        return m, VirtualPolytope(t.polytope.dim, ((1, shifted),))
    base = fan_polytope(t, [m * b for b in t.offsets])
    assert base is not None
    return m, VirtualPolytope(t.polytope.dim, ((1, shifted), (-1, base)))


@st.composite
def divisors(draw):
    """A Delzant fixture or a box in dimension 2 or 3, with one coefficient
    in [-60, 10] per ray, which takes shifts past 16."""
    if draw(st.booleans()):
        t = tor(draw(st.sampled_from(DELZANT_FIXTURES)))
    else:
        dim = draw(st.integers(2, 3))
        lows = draw(st.lists(st.integers(-2, 0), min_size=dim, max_size=dim))
        sides = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        rays = [tuple(s * x for x in unit(dim, i)) for i in range(dim) for s in (1, -1)]
        t = qb.toric_data(rays, [b for low, side in zip(lows, sides) for b in (-low, low + side)])
    coeffs = draw(st.lists(st.integers(-60, 10), min_size=len(t.rays), max_size=len(t.rays)))
    return t, tuple(coeffs)


@settings(max_examples=100, deadline=None)
@given(divisors())
def test_ample_shift_is_the_least_shift_the_search_finds(divisor):
    t, coeffs = divisor
    m, searched = searched_divisor_polytope(t, coeffs)
    assert toric._ample_shift(t, coeffs) == m
    if any(coeffs):
        assert qb.divisor_polytope(t, coeffs) == searched


def test_divisor_polytope_past_a_shift_of_16():
    # m = 16 leaves the triangle x >= 33, y >= -16, x + y <= 16 empty
    t = P2
    assert toric._ample_shift(t, (-49, 0, 0)) == 17
    shifted = qb.polytope_from_halfspaces(t.rays, (-32, 17, 17))
    base = qb.polytope_from_halfspaces(t.rays, (17, 17, 17))
    for p in (shifted, base):
        assert set(vertex_cones(p)) == set(vertex_cones(t.polytope))
    assert qb.divisor_polytope(t, (-49, 0, 0)) == VirtualPolytope(2, ((1, shifted), (-1, base)))


@pytest.mark.parametrize(
    "name, coeffs, hulls",
    [("p2", (1, 0, 0), 2), ("p2", (-49, 0, 0), 4), ("fano-3-29", (0, 0, -1, 0, 0, 0), 4)],
)
def test_divisor_polytope_builds_at_most_two_polarizations(name, coeffs, hulls, monkeypatch):
    # each polarization is one half-space system, which takes two hulls
    t = tor(name)
    calls = count_hulls(monkeypatch)
    qb.divisor_polytope(t, coeffs)
    assert len(calls) == hulls


# ---------------------------------------------------------------------------
# arguments that are not integers

P2 = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
F1 = qb.load_fixture("f1")
# each call with one entry 1.5 or 0.5 where an integer belongs, which int()
# would truncate to a valid call
NON_INTEGER_ENTRIES = {
    "rooftop_fan direction": lambda: qb.rooftop_fan(P2, (1.5, 0)),
    "rooftop_coefficients direction": lambda: qb.rooftop_coefficients(P2, (1.5, 0)),
    "rooftop direction": lambda: qb.rooftop(P2.polytope, (1.5, 0), 5),
    "expected_vanishing_order direction": lambda: qb.expected_vanishing_order(P2, (1.5, 0), 2),
    "log_discrepancy direction": lambda: qb.log_discrepancy(P2, (1.5, 0)),
    "divisor_polytope coefficients": lambda: qb.divisor_polytope(P2, (1.5, 0, 0)),
    "mixed_volume multiplicities": lambda: qb.mixed_volume([(P2.polytope, 1.5), (P2.polytope, 0.5)]),
    "stabilization_check dilations": lambda: qb.stabilization_check(P2.polytope, [1, 2.5, 3]),
    "df_coefficients direction": lambda: qb.df_coefficients(F1, (1.5, 0), 3),
    "df_coefficients direction on p2": lambda: qb.df_coefficients(P2.polytope, (1.5, 0), 3),
    "pairing_numerator direction": lambda: qb.barycenter_function(P2.polytope).pairing_numerator((1.5, 0)),
    "translate shift": lambda: qb.translate(F1, (0.5, 0)),
    "support_value direction": lambda: qb.support_value(F1, (0.5, 0)),
    "primitive vector": lambda: qb.primitive((1.5, 0)),
}


@pytest.mark.parametrize("name", NON_INTEGER_ENTRIES)
def test_non_integer_vector_entries_are_refused(name):
    with pytest.raises(qb.InvalidInput, match="expected an array of integers"):
        NON_INTEGER_ENTRIES[name]()


NON_INTEGER_SCALARS = {
    "reciprocity_check k_max": (lambda: qb.reciprocity_check(P2.polytope, 1.5), "k_max"),
    "asymptotic_coefficients order": (lambda: qb.asymptotic_coefficients(P2.polytope, 1.5), "expansion order"),
    "delta_sequence order": (lambda: qb.delta_sequence(P2, [1], order=2.5), "expansion order"),
    "dilate factor": (lambda: qb.dilate(P2.polytope, 1.5), "dilation factor"),
    "VirtualPolytope coefficient": (lambda: VirtualPolytope(2, ((1.5, F1),)), "virtual coefficient"),
    "VirtualPolytope dimension": (lambda: VirtualPolytope(2.0, ((1, F1),)), "dimension"),
    "VirtualPolytope coefficient True": (lambda: VirtualPolytope(2, ((True, F1),)), "virtual coefficient"),
    "df_coefficients order": (lambda: qb.df_coefficients(F1, (1, 0), 1.5), "expansion order"),
    "df_coefficients order True": (lambda: qb.df_coefficients(F1, (1, 0), True), "expansion order"),
    "rooftop offset": (lambda: qb.rooftop(F1, (1, 0), 1.5), "rooftop offset"),
    "reflexive_polygon_bck k": (lambda: qb.reflexive_polygon_bck(P2.polytope, 1.5), "dilation factor"),
    "del_pezzo_closed_form k": (lambda: qb.del_pezzo_closed_form(P2, 1.5), "threshold index"),
    "laurent_expand order": (
        lambda: qb.laurent_expand(Polynomial.of([1]), Polynomial.of([1, 1]), 1.5),
        "expansion order",
    ),
    "bernoulli index": (lambda: qb.bernoulli(1.5), "Bernoulli index"),
    "delta_k k": (lambda: qb.delta_k(P2, 1.5), "threshold index"),
    "delta_k k str": (lambda: qb.delta_k(P2, "2"), "threshold index"),
}


@pytest.mark.parametrize("name", NON_INTEGER_SCALARS)
def test_non_integer_orders_and_factors_are_refused(name):
    call, what = NON_INTEGER_SCALARS[name]
    with pytest.raises(qb.InvalidInput, match=f"{what} must be an integer, got"):
        call()


# rationals are int or Fraction; Fraction(0.1) would read a float as its
# binary expansion, 3602879701896397/36028797018963968
NON_RATIONAL_SCALARS = {
    "poly_fit abscissa": (lambda: qb.poly_fit([(1.5, 1)]), "abscissa"),
    "poly_fit value": (lambda: qb.poly_fit([(0, 1), (1, 0.5)]), "sample value"),
    "Polynomial.of coefficient": (lambda: Polynomial.of([0.1]), "coefficient"),
    "Polynomial.of bool": (lambda: Polynomial.of([1, True]), "coefficient"),
    "Polynomial argument": (lambda: Polynomial.of([1, 2])(0.5), "argument"),
    "Polynomial times a float": (lambda: Polynomial.of([1, 2]) * 0.5, "factor"),
    "float times a Polynomial": (lambda: 0.5 * Polynomial.of([1, 2]), "factor"),
    "Polynomial plus a float": (lambda: Polynomial.of([1, 2]) + 0.5, "term"),
    "Polynomial minus a bool": (lambda: Polynomial.of([1, 2]) - True, "term"),
    "float plus a Polynomial": (lambda: 0.5 + Polynomial.of([1, 2]), "term"),
    "float minus a Polynomial": (lambda: 0.5 - Polynomial.of([1, 2]), "term"),
    "Polynomial plus a str": (lambda: Polynomial.of([1, 2]) + "1", "term"),
}


@pytest.mark.parametrize("name", NON_RATIONAL_SCALARS)
def test_non_rational_scalars_are_refused(name):
    call, what = NON_RATIONAL_SCALARS[name]
    with pytest.raises(qb.InvalidInput, match=f"{what} must be an integer or a Fraction, got"):
        call()


@pytest.mark.parametrize("matrix", ([[1, 2], [3]], [[1.5, 0]], [], "12"), ids=repr)
def test_hermite_normal_form_refuses_ragged_or_non_integer_rows(matrix):
    with pytest.raises(qb.InvalidInput):
        qb.hermite_normal_form(matrix)
