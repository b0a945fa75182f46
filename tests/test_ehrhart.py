from __future__ import annotations

import ast
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
import io
import itertools
import json
from math import comb, factorial, prod
import operator
from pathlib import Path
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qbary as qb
import qbary.exactnum
import qbary.polytope
from qbary import ehrhart, lattice
from qbary.cli import execute
from qbary.ehrhart import lattice_point_stats
from qbary.exactnum import Polynomial
from qbary.hull import volume_and_barycenter

from conftest import FRESH, apply_map, brute_count, brute_vertex_sum, fresh_hull, polytope_and_map, unimodular


def test_count_points_paper_examples(fixtures):
    assert qb.count_points(fixtures["p2"], 1) == 10
    assert qb.count_points(fixtures["cube3"], 2) == 125
    assert qb.count_points(fixtures["f1"], 1) == 9
    assert qb.count_points(fixtures["f1"], 0) == 1


def test_count_points_matches_brute_force(fixtures, corpus):
    sample = list(fixtures.values()) + corpus[:8]
    for p in sample:
        for k in range(4):
            assert qb.count_points(p, k) == brute_count(p, k), (p.vertices, k)


def test_interior_count_examples_and_oracle(fixtures):
    assert qb.interior_count(fixtures["f1"], 1) == 1
    assert qb.interior_count(fixtures["cube2"], 1) == 1
    p2 = fixtures["p2"]
    assert qb.interior_count(p2, 2) == 10
    # cross-check through the counting polynomial at a negative argument
    ehr = qb.ehrhart_polynomial(p2).poly
    assert (-1) ** p2.dim * ehr(-2) == qb.interior_count(p2, 2)
    for p in fixtures.values():
        for k in (1, 2):
            assert qb.interior_count(p, k) == brute_count(p, k, strict=True)


# Shapes that take each path of the projection-bounded scan: no outer
# coordinate (dim 1), skinny simplices that fill little of their box and
# whose widest axis has the shortest fibers, shapes planned out of index
# order (a widest axis first or second), facets parallel to the innermost
# axis, negative coordinates, and a product whose longest fibers run along
# an axis other than the widest (box(1, 2) x 2 * triangle: widths 1, 2, 2,
# 2, shadows 4, 2, 4, 4).
SCAN_SHAPES = {
    "segment": [(0,), (1,)],
    "negative segment": [(-3,), (2,)],
    "skinny 3-simplex": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (4, 3, 5)],
    "skinny 4-simplex": [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 2, 3, 4)],
    "4-simplex": [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 2)],
    "widest axis first": [(0, 0, 0), (5, 0, 0), (0, 1, 0), (0, 0, 2)],
    "widest axis second of four": [(0, 0, 0, 0), (1, 0, 0, 0), (0, 4, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)],
    "trapezoid": [(0, 0), (3, 0), (0, 1), (2, 1)],
    "prism": [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 3), (2, 0, 3), (0, 1, 3)],
    "negative coordinates": [(-3, -1, -2), (1, -2, 0), (-1, 2, -1), (0, -1, 3)],
    "box times twice a triangle": [
        (a, b, c, d) for a in (0, 1) for b in (0, 2) for c, d in ((0, 0), (2, 0), (0, 2))
    ],
    # each facet involves one axis: a step moves 2 of the 10 slacks
    "unit 5-cube": list(itertools.product((0, 1), repeat=5)),
    "box times a quadrilateral": [
        (a, b, c, d) for a in (0, 1) for b in (0, 1) for c, d in ((0, 0), (2, 0), (0, 1), (1, 2))
    ],
    # every facet involves every axis
    "4-D cross-polytope": [tuple(s * (i == j) for i in range(4)) for j in range(4) for s in (1, -1)],
    # last-axis coefficients -2, -1, 0 and 3 in the planner's order
    "mixed coefficients": [(0, 0, 0), (3, -2, -1), (-1, -2, 1), (2, 2, -2)],
    # the facets x_0 = 0 and x_0 = 1 are parallel to both inner axes
    "prism over a 3-simplex": [(a, *v) for a in (0, 1) for v in ((0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3))],
}


def box_scan(p, k):
    """The four fields of the counting record from one scan of the bounding
    box of ``k*P``: a point counts when its least facet slack is >= 0, and
    is interior when it is >= 1."""
    ranges = [range(k * min(v[i] for v in p.vertices), k * max(v[i] for v in p.vertices) + 1) for i in range(p.dim)]
    facets = [(f.normal, k * f.offset) for f in p.facets]
    count = interior = 0
    sums, interior_sums = [0] * p.dim, [0] * p.dim
    for head in itertools.product(*ranges[:-1]):
        # each slack on the line through head, as r + c * x_last
        lines = [(sum(map(operator.mul, u, head)) + offset, u[-1]) for u, offset in facets]
        for z in ranges[-1]:
            slack = min([r + c * z for r, c in lines])
            if slack >= 0:
                x = (*head, z)
                count += 1
                sums = [s + xi for s, xi in zip(sums, x)]
                if slack >= 1:
                    interior += 1
                    interior_sums = [s + xi for s, xi in zip(interior_sums, x)]
    return count, tuple(sums), interior, tuple(interior_sums)


def assert_scan_matches(p, ks, expected):
    # the records do not depend on the plan: the planner's axis order and
    # every other one count the same points, with the outer coordinates
    # bounded by P's blocks or by whole prefixes.  The passes are called
    # directly, since a product of dimension 4 or more is counted through
    # its factors and passes over P itself only at k = 1.
    assert [lattice_point_stats(p, k) for k in ks] == expected
    passes = [(k, record) for k, record in zip(ks, expected) if k]
    whole = (tuple(range(p.dim)),)
    for blocks in {tuple(block for block, _, _ in qbary.polytope._split(p)) or whole, whole}:
        for order in itertools.permutations(range(p.dim)):
            plan = ehrhart._plan(p, order, blocks)
            assert [ehrhart._pass(plan, k) for k, _ in passes] == [record for _, record in passes], (order, blocks)


@pytest.mark.parametrize("name", SCAN_SHAPES)
def test_scan_matches_brute_force_oracles(name):
    p = qb.hull_from_vertices(SCAN_SHAPES[name])
    assert_scan_matches(p, range(5), [box_scan(p, k) for k in range(5)])


OCTAGON = [(0, 0), (3, -1), (5, 0), (6, 2), (5, 4), (3, 5), (0, 4), (-1, 2)]
# Long rows of several envelope pieces.  The octagon's solved axis has
# coefficients +-1 and +-2, four facets on each side; the prism's first
# scan axis is its height, so its two end facets are parallel to both
# inner axes.
LONG_ROWS = {
    "octagon": (OCTAGON, (1, 2, 3, 4, 7, 10, 13, 14, 15)),
    "prism over the octagon": ([(h, *v) for h in (0, 1) for v in OCTAGON], (1, 2, 5, 15)),
}


@pytest.mark.parametrize("name", LONG_ROWS)
def test_long_multi_piece_rows_match_a_box_scan(name):
    vertices, ks = LONG_ROWS[name]
    p = qb.hull_from_vertices(vertices)
    plan = ehrhart._scan_plan(p)
    facets = plan.bounds[-1]
    assert sorted(c for c in facets.coefs if c) == [-2, -2, -1, -1, 1, 1, 2, 2]
    if p.dim == 3:
        assert plan.order[0] == 0
        assert sum(not c and not s for s, c in zip(facets.cols[-1], facets.coefs)) == 2
    assert_scan_matches(p, ks, [box_scan(p, k) for k in ks])


# Hulls with facets parallel to the last axis that bound the row coordinate
# from below and from above in the identity order: a prism over a
# triangle, and a 3-simplex in 4-D swept one step along the last axis.
PARALLEL_ENDS = {
    "prism over a triangle": [(0, -3, 0), (4, 1, 0), (-2, 3, 0), (0, -3, 2), (4, 1, 2), (-2, 3, 2)],
    "swept 3-simplex": [
        (*v[:3], v[3] + h) for h in (0, 1) for v in ((0, 0, -4, 0), (3, 0, 1, 0), (0, 2, 3, 0), (-1, -1, 0, 2))
    ],
}


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 4).flatmap(lambda n: st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=5, max_size=8)))
@example(PARALLEL_ENDS["prism over a triangle"])
@example(PARALLEL_ENDS["swept 3-simplex"])
def test_rows_that_find_their_own_extent_match_a_box_scan(points):
    # A row runs over the row coordinate's whole range over k*P, wider than
    # its fiber on most rows, and finds its own extent: closed and
    # interior, in every axis order.
    try:
        p = qb.hull_from_vertices(points)
    except qb.DegenerateInput:
        assume(False)
    records = [box_scan(p, k) for k in (1, 2, 3)]
    whole = (tuple(range(p.dim)),)
    for blocks in {tuple(block for block, _, _ in qbary.polytope._split(p)) or whole, whole}:
        for order in itertools.permutations(range(p.dim)):
            plan = ehrhart._plan(p, order, blocks)
            assert [ehrhart._pass(plan, k) for k in (1, 2, 3)] == records, (order, blocks)


@pytest.mark.parametrize("name", PARALLEL_ENDS)
def test_the_parallel_end_shapes_bound_rows_at_both_ends(name):
    p = qb.hull_from_vertices(PARALLEL_ENDS[name])
    plan = ehrhart._plan(p, tuple(range(p.dim)), [tuple(range(p.dim))])
    assert plan.rising and plan.falling and plan.below and plan.above


def direct_sums(values):
    """Sums of q, y q and q^2 over pairs (y, q)."""
    return sum(q for _, q in values), sum(y * q for y, q in values), sum(q * q for _, q in values)


RANGE_LENGTHS = st.one_of(st.just(0), st.just(1), st.integers(-2, 30), st.integers(0, 2000))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(-60, 60), st.integers(-(10**25), 10**25)),
    st.one_of(st.integers(-500, 500), st.integers(-(10**30), 10**30)),
    st.integers(1, 50),
    st.integers(-100, 100),
    RANGE_LENGTHS,
)
def test_floor_sums_match_direct_summation(s, r, c, lo, length):
    hi = lo + length - 1
    expected = direct_sums([(y, (r + s * y) // c) for y in range(lo, hi + 1)])
    assert ehrhart._floor_sums(r, s, c, lo, hi) == expected


@st.composite
def line_sets(draw, max_lines=5):
    """1..max_lines lines (s, c, r), the value at y being (r + s y) / c;
    some share a slope, and some may pass through one lattice point."""
    lines = []
    tie = (draw(st.integers(-10, 10)), draw(st.integers(-6, 6)))
    for _ in range(draw(st.integers(1, max_lines))):
        s, c = draw(st.integers(-6, 6)), draw(st.integers(1, 6))
        if lines and draw(st.booleans()):
            s0, c0, _ = draw(st.sampled_from(lines))
            m = draw(st.integers(1, 3))
            s, c = s0 * m, c0 * m
        if draw(st.booleans()):
            r = c * tie[1] - s * tie[0]
        else:
            r = draw(st.integers(-60, 60))
        lines.append((s, c, r))
    return lines


def envelope(lines, lo, hi):
    """The envelope pieces of ``lines`` over ``lo..hi``, built as the
    counting pass builds them: lines sorted by slope, slacks by index."""
    ordered = sorted([(f, s, c) for f, (s, c, _) in enumerate(lines)], key=ehrhart._by_slope)
    return ehrhart._envelope(ordered, [r for _, _, r in lines], 0, lo, hi)


@settings(max_examples=300, deadline=None)
@given(line_sets(), st.integers(-15, 15), st.integers(1, 40), st.data())
def test_envelope_sums_match_the_pointwise_minimum(lines, lo, length, data):
    hi = lo + length - 1
    pieces = envelope(lines, lo, hi)
    least = {y: min((r + s * y) // c for s, c, r in lines) for y in range(lo, hi + 1)}
    assert ehrhart._piece_sums(pieces, lo, hi, hi) == direct_sums(least.items())
    a = data.draw(st.integers(lo, hi))
    b = data.draw(st.integers(a - 1, hi))
    assert ehrhart._piece_sums(pieces, a, b, hi) == direct_sums([(y, least[y]) for y in range(a, b + 1)])


@settings(max_examples=300, deadline=None)
@given(line_sets(3), line_sets(3), st.integers(-15, 15), st.integers(1, 40))
def test_nonnegative_range_matches_the_real_envelopes(low, high, lo, length):
    hi = lo + length - 1

    def real(lines, y):
        return min(F(r + s * y, c) for s, c, r in lines)

    where = [y for y in range(lo, hi + 1) if real(low, y) + real(high, y) >= 0]
    first, last = ehrhart._nonnegative(envelope(low, lo, hi), envelope(high, lo, hi), lo, hi)
    assert list(range(first, last + 1)) == where


def projection_shadow(p, axis):
    """(dim-1)! times the volume of the hull of P's vertices projected along
    e_axis; a point, in dimension 1, has volume 1."""
    if p.dim == 1:
        return 1
    volume, _ = volume_and_barycenter([v[:axis] + v[axis + 1 :] for v in p.vertices])
    return factorial(p.dim - 1) * volume


def shadow_mismatches(shadows, polytopes):
    return [(p.vertices, i) for p in polytopes for i, s in enumerate(shadows(p)) if s != projection_shadow(p, i)]


def test_shadows_are_projection_volumes(fixtures, corpus):
    polytopes = [*fixtures.values(), *corpus, *map(qb.hull_from_vertices, SCAN_SHAPES.values())]
    assert shadow_mismatches(ehrhart._shadow_weights, polytopes) == []

    def unhalved(p):
        # both sides of the projection: twice the shadow
        facets = qb.facet_data(p).facets
        return [factorial(p.dim - 1) * sum(abs(fm.normal[i]) * fm.normalized_volume for fm in facets) for i in range(p.dim)]

    assert len(shadow_mismatches(unhalved, polytopes)) == sum(p.dim for p in polytopes)


@settings(max_examples=60, deadline=None)
@given(polytope_and_map(), st.data())
def test_shadows_and_scan_order_follow_signed_permutations(case, data):
    # coordinate i of the image is signs[i] times coordinate perm[i] of P
    p, _, _ = case
    assert shadow_mismatches(ehrhart._shadow_weights, [p]) == []
    perm = data.draw(st.permutations(range(p.dim)))
    signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * p.dim))
    image = qb.hull_from_vertices([tuple(s * v[j] for s, j in zip(signs, perm)) for v in p.vertices])
    shadows = ehrhart._shadow_weights(p)
    assert ehrhart._shadow_weights(image) == [shadows[j] for j in perm]
    if len(set(shadows)) == p.dim:
        assert tuple(perm[i] for i in ehrhart._scan_plan(image).order) == ehrhart._scan_plan(p).order


def test_plane_order_solves_the_wider_axis(fixtures, corpus):
    # in dimension 2 a shadow is the width of the other axis, so the wider
    # axis is solved in closed form, the higher index on a tie
    for p in [*fixtures.values(), *corpus]:
        if p.dim == 2:
            widths = [max(v[i] for v in p.vertices) - min(v[i] for v in p.vertices) for i in range(2)]
            assert ehrhart._scan_plan(p).order[-1] == max(range(2), key=lambda i: (widths[i], i))


def test_longest_fibers_are_solved_rather_than_the_widest_axis():
    p = qb.hull_from_vertices(SCAN_SHAPES["box times twice a triangle"])
    # 3! times the shadows 4, 2, 4 and 4
    assert ehrhart._shadow_weights(p) == [24, 12, 24, 24]
    assert ehrhart._scan_plan(p).order == (0, 2, 3, 1)


@settings(max_examples=60, deadline=None)
@given(polytope_and_map())
def test_counts_and_sums_are_unimodular_invariant(case):
    # k(UP + t) = U(kP) + kt: the counts agree and the sums move by U and kt,
    # for the closed and the interior points alike.
    p, u, t = case
    image = qb.hull_from_vertices([tuple(a + b for a, b in zip(apply_map(u, v), t)) for v in p.vertices])

    def moved(k, count, sums):
        return count, tuple(s + k * ti * count for s, ti in zip(apply_map(u, sums), t))

    for k in range(1, 4):
        count, sums, interior, interior_sums = lattice_point_stats(p, k)
        expected = moved(k, count, sums) + moved(k, interior, interior_sums)
        assert lattice_point_stats(image, k) == expected, k


@st.composite
def mapped_simplices(draw):
    """A lattice simplex P of dimension 3-5 with entries |x| <= 4, its image
    Q under a map of GL_n(Z) and a translation, and a dilation k, at most
    40, 12 and 5 in dimensions 3, 4 and 5, so that a pass over k*Q stays
    cheap."""
    n = draw(st.integers(3, 5))
    coord = st.integers(-4, 4)
    vertices = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 1, unique=True))
    try:
        p = qb.hull_from_vertices(vertices)
    except qb.DegenerateInput:
        assume(False)
    assume(len(p.vertices) == n + 1)
    u, t = draw(unimodular(n)), draw(st.tuples(*[st.integers(-5, 5)] * n))
    image = qb.hull_from_vertices([tuple(a + b for a, b in zip(apply_map(u, v), t)) for v in p.vertices])
    return p, image, draw(st.integers(1, {3: 40, 4: 12, 5: 5}[n]))


def box_points(p, k):
    return prod(k * (max(c) - min(c)) + 1 for c in zip(*p.vertices))


@settings(max_examples=60, deadline=None)
@given(mapped_simplices())
@example((qb.hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)]), qb.hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, -3)]), 7))
def test_parallelepiped_records_match_a_pass_and_brute_force(case):
    # the example reflects the last axis, which turns the determinant of the
    # rows (v_j, 1), in the order of P's vertices, from 3 to -3.  Both
    # halves: the interior is read off the reflections of the points of
    # the parallelepiped.
    p, image, k = case

    def record(q, k):
        return lattice._parallelepiped_record(q.vertices, qbary.polytope._measures(q).volume, k)

    assert record(image, k) == ehrhart._pass(ehrhart._scan_plan(image), k)
    for q, j in ((p, 1), (image, k)):
        if box_points(q, j) <= 5000:
            brute = [(brute_count(q, j, strict), brute_vertex_sum(q, j, strict)) for strict in (False, True)]
            assert record(q, j) == (*brute[0], *brute[1])


def fresh_simplex(n, height=None):
    """A skinny n-simplex conv(0, e_1, .., e_{n-1}, (2, .., n, height)),
    height n + 1 unless given, translated to where no other test's cached
    polytope lies, so every counting pass on it is new.  Its n! vol is
    ``height``: at a height of TALL a pass, not its fundamental
    parallelepiped, serves its reads above the fitted dilations up to k = 12
    in dimension 4."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)]
    shift = next(FRESH)
    corners = [(0,) * n, *units, (*range(2, n + 1), n + 1 if height is None else height)]
    return qb.hull_from_vertices([tuple(x + shift for x in c) for c in corners])


TALL = 10_000


def passes_on(monkeypatch, mutate=None):
    """Record the arguments, the plan and the dilation, of every counting
    pass, optionally corrupting the record it returns by ``mutate(k,
    record)``."""
    seen = []
    real = ehrhart._pass

    def counted(*args):
        seen.append(args)
        record = real(*args)
        return mutate(args[1], record) if mutate else record

    monkeypatch.setattr(ehrhart, "_pass", counted)
    return seen


def dilations(seen):
    return [k for _, k in seen]


def test_a_polytope_is_planned_once_and_every_pass_reads_its_plan(monkeypatch):
    # the plan holds all that a pass reads, so a polytope's passes share
    # the one plan the cache keeps and its translate is planned anew
    before = ehrhart._scan_plan.cache_info().misses
    seen = passes_on(monkeypatch)
    for _ in range(2):
        p = fresh_simplex(4, TALL)
        qb.ehrhart_polynomial(p)
        qb.count_points(p, 12)
        assert all(plan is ehrhart._scan_plan(p) for plan, _ in seen[-4:])
    assert len(seen) == 8 and ehrhart._scan_plan.cache_info().misses - before == 2


def test_the_scan_plans_kept_are_bounded():
    maxsize = ehrhart._scan_plan.cache_info().maxsize
    for _ in range(maxsize + 3):
        qb.count_points(fresh_simplex(3), 1)
    assert ehrhart._scan_plan.cache_info().currsize == maxsize == 8


@pytest.mark.parametrize("n", (3, 4))
def test_one_pass_per_dilation(monkeypatch, n):
    # every fit and its validation read k = 0..n and nothing above; TALL,
    # so that a pass, not the parallelepiped, serves k = n
    p = fresh_simplex(n, TALL)
    seen = passes_on(monkeypatch)
    qb.ehrhart_polynomial(p)
    qb.barycenter_function(p)
    qb.reciprocity_check(p, n)
    assert sorted(dilations(seen)) == list(range(1, n + 1))


def test_a_session_counts_each_dilation_once(monkeypatch, tmp_path):
    # every record holds both halves, so a dilation that delta-seq reads
    # for its closed half and reciprocity for its interior is one pass
    p = fresh_simplex(3, TALL)
    assert not ehrhart._takes_parallelepiped(p, 3)
    document = tmp_path / "simplex.json"
    document.write_text(json.dumps({"vertices": p.vertices}))
    seen = passes_on(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert execute(["delta-seq", "--ks", "1,2,3", "--input", str(document)]) == 0
        assert execute(["reciprocity", "--kmax", "4", "--input", str(document)]) == 0
    assert sorted(dilations(seen)) == [1, 2, 3, 4]


def anticanonical_vertex(n, j, shift, stretch=1):
    """Vertex j of {x_i >= -1, sum x_i <= 1} moved by ``shift`` on every
    axis, its last coordinate scaled by ``stretch`` first."""
    v = [-1 + (n + 1) * (i == j) for i in range(n)]
    v[-1] *= stretch
    return tuple(x + shift for x in v)


@pytest.mark.parametrize("n", (5, 6))
def test_the_anticanonical_simplex_counts_only_what_is_read(monkeypatch, tmp_path, n):
    # {x_i >= -1, sum x_i <= 1}, its last axis stretched 100 times so that a
    # pass, not its fundamental parallelepiped, serves k = 12, and moved
    # where no other test counts: the fits read k = 1..m, m = ceil((n+1)/2),
    # and bck --k 12 adds one pass.  That pass takes seconds on the
    # 6-simplex, so it is answered from E(+-12) and S(+-12), which the read
    # check holds it to.
    m = (n + 2) // 2
    shift = next(FRESH)
    vertices = [anticanonical_vertex(n, j, shift, stretch=100) for j in range(n + 1)]
    p = qb.hull_from_vertices(vertices)
    real, sign = ehrhart._pass, (-1) ** n

    def answered(plan, k):
        if k != 12:
            return real(plan, k)
        counting, sums = ehrhart.ehrhart_data(p)
        closed = int(counting(k)), tuple(int(s(k)) for s in sums)
        return ehrhart.LatticeStats(*closed, int(sign * counting(-k)), tuple(int(-sign * s(-k)) for s in sums))

    monkeypatch.setattr(ehrhart, "_pass", answered)
    seen = passes_on(monkeypatch)
    qb.asymptotic_coefficients(p, 3)
    assert dilations(seen) == list(range(1, m + 1))
    seen.clear()
    document = tmp_path / "simplex.json"
    document.write_text(json.dumps({"vertices": vertices}))
    with redirect_stdout(io.StringIO()):
        assert execute(["bck", "--k", "12", "--input", str(document)]) == 0
    assert dilations(seen) == [12]


def test_bck_on_the_anticanonical_5_simplex_reads_its_parallelepiped(monkeypatch, tmp_path):
    # n! vol = 6^5 points cost less than a pass at k = 12: the fits read
    # k = 1..3 and bck --k 12 runs no pass
    shift = next(FRESH)
    vertices = [anticanonical_vertex(5, j, shift) for j in range(6)]
    seen = passes_on(monkeypatch)
    document = tmp_path / "simplex.json"
    document.write_text(json.dumps({"vertices": vertices}))
    with redirect_stdout(io.StringIO()):
        assert execute(["bck", "--k", "12", "--input", str(document)]) == 0
    assert dilations(seen) == [1, 2, 3]


def test_the_reeve_tetrahedron_of_volume_a_million_keeps_the_scan(monkeypatch):
    # conv(0, e_1, e_2, (1, 1, 10^6)) has n! vol = 10^6 points in its
    # parallelepiped, against k + 1 rows of a pass
    p = fresh_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 10**6)])
    seen = passes_on(monkeypatch)
    monkeypatch.setattr(lattice, "_parallelepiped", None)
    for k in (12, 40, 1000):
        qb.quantized_barycenter(p, k)
    assert sorted(dilations(seen)) == [1, 2, 12, 40, 1000]


def off_by_one_at(bad_k, field, axis=None):
    def mutate(k, stats):
        if k != bad_k:
            return stats
        value = getattr(stats, field)
        if axis is None:
            return stats._replace(**{field: value + 1})
        return stats._replace(**{field: value[:axis] + (value[axis] + 1,) + value[axis + 1 :]})

    return mutate


# Each field of each counted dilation k = 1..n of a 4-simplex, corrupted
# alone, must be caught.  The fits read k = 0..M only.
N = 4
M = 3


# The check a record corrupted at k <= M fails first.  The samples run 0, 1,
# -1, 2, -2, 3, -3: the closed value at k sits at k, the interior value at
# -k.  The counting fit (degree 4) passes through the first five and the
# coordinate-sum fit (degree 5) through the first six, and each is checked
# on the rest in that order.  A corrupted sample among the rest fails its
# own check; one the fit passes through moves the fit off every other
# sample, so the first of the rest fails.
HELD_OUT_3, RECIPROCITY_3 = "held-out validation at k=3", "reciprocity at k=3"
FIRST_MISS = {
    "count": (HELD_OUT_3, HELD_OUT_3, HELD_OUT_3),
    "interior": (HELD_OUT_3, HELD_OUT_3, RECIPROCITY_3),
    "sums": (RECIPROCITY_3, RECIPROCITY_3, RECIPROCITY_3),
    "interior_sums": (RECIPROCITY_3, RECIPROCITY_3, RECIPROCITY_3),
}


def failed_reciprocity(p) -> list[int]:
    """The dilations up to N + 1 whose general reciprocity entry fails."""
    return [e.k for e in qb.reciprocity_check(p, N + 1).entries if not e.general_ok]


@pytest.mark.parametrize("k", range(1, N + 1))
def test_reciprocity_catches_an_interior_count_off_by_one(monkeypatch, k):
    # above M no fit reads the interior record: reciprocity_check reports
    # it, and it is refused where interior_count reads it.  A pass serves
    # every dilation here, not the parallelepiped that would above M.
    passes_on(monkeypatch, off_by_one_at(k, "interior"))
    monkeypatch.setattr(ehrhart, "_takes_parallelepiped", lambda p, k: False)
    p = fresh_simplex(N)
    if k > M:
        assert failed_reciprocity(p) == [k]
        with pytest.raises(qb.InternalInconsistency, match=f"counting polynomial disagrees with the interior count read at k={k}"):
            qb.interior_count(p, k)
        return
    with pytest.raises(qb.InternalInconsistency, match=f"counting polynomial fails {FIRST_MISS['interior'][k - 1]}"):
        qb.ehrhart_polynomial(p)


@pytest.mark.parametrize("k", range(1, N + 1))
def test_held_out_counts_catch_a_closed_count_off_by_one(monkeypatch, k):
    # a count the fit passes through moves it off the first held-out count;
    # above M the closed count is refused where count_points reads it
    passes_on(monkeypatch, off_by_one_at(k, "count"))
    p = fresh_simplex(N, TALL)
    if k > M:
        with pytest.raises(qb.InternalInconsistency, match=f"counting polynomial disagrees with the closed count read at k={k}"):
            qb.count_points(p, k)
        return
    with pytest.raises(qb.InternalInconsistency, match=f"counting polynomial fails {FIRST_MISS['count'][k - 1]}"):
        qb.ehrhart_polynomial(p)


@pytest.mark.parametrize("k", range(1, N + 1))
@pytest.mark.parametrize("axis", range(N))
@pytest.mark.parametrize("field", ("sums", "interior_sums"))
def test_reciprocity_catches_a_coordinate_sum_off_by_one(monkeypatch, field, axis, k):
    # above M the closed sums are refused where quantized_barycenter reads
    # them, and the interior sums are reported by reciprocity_check and
    # refused where interior_count reads their record
    passes_on(monkeypatch, off_by_one_at(k, field, axis))
    p = fresh_simplex(N, TALL)
    if k > M and field == "sums":
        with pytest.raises(qb.InternalInconsistency, match=f"coordinate-sum polynomial disagrees with the closed sums read at k={k}"):
            qb.quantized_barycenter(p, k)
        return
    if k > M:
        assert failed_reciprocity(p) == [k]
        with pytest.raises(qb.InternalInconsistency, match=f"coordinate-sum polynomial disagrees with the interior sums read at k={k}"):
            qb.interior_count(p, k)
        return
    with pytest.raises(qb.InternalInconsistency, match=f"coordinate-sum polynomial fails {FIRST_MISS[field][k - 1]}"):
        qb.barycenter_function(p)


# conv(0, (2,1,0), (0,3,1), (1,0,9)): in dimension 3 the fits read k <= 2
FITTED_AT_2 = [(0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 0, 9)]


@pytest.mark.parametrize("field, read", [("interior", qb.interior_count), ("count", qb.count_points)])
def test_a_record_the_fits_read_reaches_no_caller_before_them(monkeypatch, field, read):
    # a record at k <= m is a sample of the fits, and is handed out only
    # once they have read it
    passes_on(monkeypatch, off_by_one_at(2, field))
    with pytest.raises(qb.InternalInconsistency, match="counting polynomial fails reciprocity at k=2"):
        read(fresh_hull(FITTED_AT_2), 2)


def parallelepiped_records(monkeypatch, mutate):
    """Pass every record read off a fundamental parallelepiped through
    ``mutate(k, record)``."""
    real = ehrhart._parallelepiped_record

    def corrupted(vertices, volume, k):
        return mutate(k, ehrhart.LatticeStats(*real(vertices, volume, k)))

    monkeypatch.setattr(ehrhart, "_parallelepiped_record", corrupted)


def test_reciprocity_catches_a_parallelepiped_interior_count_off_by_one(monkeypatch):
    # the twin of an interior count off by one above M, on a simplex whose
    # parallelepiped serves k = N
    p = fresh_simplex(N)
    assert ehrhart._takes_parallelepiped(p, N)
    parallelepiped_records(monkeypatch, off_by_one_at(N, "interior"))
    assert failed_reciprocity(p) == [N]
    with pytest.raises(qb.InternalInconsistency, match=f"counting polynomial disagrees with the interior count read at k={N}"):
        qb.interior_count(p, N)


def test_the_reflections_must_sum_to_the_vertex_sums_minus_the_height_sums(monkeypatch):
    # the h*_h points of the parallelepiped at height h reflect to points
    # that sum to h*_h V - X_h; a mutant that takes X_h for their sums
    # keeps every count right
    p = fresh_simplex(N)
    hstar, heights = lattice._parallelepiped(p.vertices)
    vertex_sum = [sum(column) for column in zip(*p.vertices)]

    def mutant(k, record):
        ways = [(comb(k + h - 1, N), comb(k + h - 1, N + 1)) for h in range(N + 1)]
        wrong = [sum(x[i] * w + c * vertex_sum[i] * m for c, x, (w, m) in zip(hstar, heights, ways)) for i in range(N)]
        return record._replace(interior_sums=tuple(wrong))

    parallelepiped_records(monkeypatch, mutant)
    with pytest.raises(qb.InternalInconsistency, match=f"coordinate-sum polynomial disagrees with the interior sums read at k={N}"):
        qb.interior_count(p, N)
    assert failed_reciprocity(p) == [N, N + 1]


def corrupt_parallelepiped(monkeypatch, mutate):
    """Corrupt the h*-vector and height sums that every read from a
    fundamental parallelepiped gets."""
    real = lattice._parallelepiped

    def corrupted(vertices):
        hstar, sums = real(vertices)
        return mutate(list(hstar), [list(x) for x in sums])

    monkeypatch.setattr(lattice, "_parallelepiped", corrupted)


def point_moved_up(h):
    """One point of the parallelepiped at height h moved up by one: h* keeps
    its sum, and h*_0 as well for h above 0."""

    def mutate(hstar, sums):
        assert hstar[h]
        hstar[h] -= 1
        hstar[h + 1] += 1
        return hstar, sums

    return mutate


def test_the_read_check_catches_a_parallelepiped_point_at_the_wrong_height(monkeypatch):
    # the twin of a closed count off by one above M, on a simplex whose
    # parallelepiped serves k = N, with h* = (1, 0, 2, 2, 0)
    p = fresh_simplex(N)
    assert ehrhart._takes_parallelepiped(p, N)
    corrupt_parallelepiped(monkeypatch, point_moved_up(2))
    with pytest.raises(qb.InternalInconsistency, match=f"counting polynomial disagrees with the closed count read at k={N}"):
        qb.count_points(p, N)


@pytest.mark.parametrize("axis", range(N))
def test_the_read_check_catches_a_height_sum_off_by_one(monkeypatch, axis):
    # the twin of a closed coordinate sum off by one above M
    def mutate(hstar, sums):
        sums[max(h for h, c in enumerate(hstar) if c)][axis] += 1
        return hstar, sums

    p = fresh_simplex(N)
    corrupt_parallelepiped(monkeypatch, mutate)
    with pytest.raises(qb.InternalInconsistency, match=f"coordinate-sum polynomial disagrees with the closed sums read at k={N}"):
        qb.quantized_barycenter(p, N)


def test_a_parallelepiped_must_have_n_factorial_vol_points_one_at_height_0(monkeypatch):
    one_more = lambda hstar, sums: ([*hstar[:-1], hstar[-1] + 1], sums)  # noqa: E731
    for mutate, message in ((one_more, "has 6 points, not n! vol = 5"), (point_moved_up(0), "has 0 points at height 0, not 1")):
        with monkeypatch.context() as patch:
            corrupt_parallelepiped(patch, mutate)
            with pytest.raises(qb.InternalInconsistency, match=f"fundamental parallelepiped {message}"):
                qb.count_points(fresh_simplex(N), N)


def test_top_coefficients_alone_check_the_sums_of_a_segment(monkeypatch):
    # in dimension 1 each coordinate-sum fit passes through all three
    # samples k = 0, 1, -1, so only its top two coefficients check it
    passes_on(monkeypatch, off_by_one_at(1, "sums", 0))
    segment = qb.hull_from_vertices([(next(FRESH),), (next(FRESH) + 3,)])
    with pytest.raises(qb.InternalInconsistency, match="coordinate-sum polynomial has leading coefficient"):
        qb.barycenter_function(segment)


def wrong_measure(which):
    """The face-walk integers a fit's top two coefficients are checked
    against, one of them off by one."""
    real = ehrhart._measures

    def first_plus_one(v):
        return [v[0] + 1, *v[1:]]

    def measures(p):
        walk = real(p)
        if which == "volume":
            return walk._replace(volume=walk.volume + 1)
        if which == "boundary volume":
            return walk._replace(boundary=walk.boundary + 1)
        if which == "barycenter":
            return walk._replace(moment=first_plus_one(walk.moment))
        return walk._replace(boundary_moment=first_plus_one(walk.boundary_moment))

    return measures


@pytest.mark.parametrize(
    "which, module, message",
    [
        ("volume", ehrhart, "counting polynomial has leading coefficient"),
        ("boundary volume", ehrhart, "counting polynomial has subleading coefficient"),
        ("barycenter", ehrhart, "coordinate-sum polynomial has leading coefficient"),
        ("boundary barycenter", ehrhart, "coordinate-sum polynomial has subleading coefficient"),
    ],
)
def test_each_top_coefficient_identity_can_fail(monkeypatch, which, module, message):
    p = fresh_simplex(3)
    monkeypatch.setattr(module, "_measures", wrong_measure(which))
    with pytest.raises(qb.InternalInconsistency, match=message):
        qb.barycenter_function(p)


@pytest.mark.parametrize("n", (1, 3, 4))
def test_the_record_builds_no_fraction_once_the_measures_are_cached(monkeypatch, n):
    # the fits read integer records, and their top coefficients are compared
    # with the integers of the face walk by cross-multiplying numerators and
    # denominators; so a cold polytope builds no Fraction but E's
    # coefficients, and a warm one, whose public measures were read, none
    def fresh():
        return fresh_simplex(n) if n > 1 else qb.hull_from_vertices([(next(FRESH),), (next(FRESH) + 3,)])

    built = []

    class Counted(F):
        def __new__(cls, *args):
            built.append(args)
            return F(*args)

    def refuse(p):
        raise AssertionError("facet_data called")

    # the counter sees the Fractions these modules build, and every module
    # that holds facet_data holds the refusal instead
    for module in (ehrhart, qbary.exactnum, qbary.polytope):
        monkeypatch.setattr(module, "Fraction", Counted)
    real = qb.facet_data
    for module in list(sys.modules.values()):
        if module.__name__.startswith("qbary") and getattr(module, "facet_data", None) is real:
            monkeypatch.setattr(module, "facet_data", refuse)

    cold = fresh()
    ehrhart._scan_plan(cold)
    counting, _ = ehrhart.ehrhart_data(cold)
    assert built == []
    # one Fraction a coefficient, built when E's coefficients are read
    assert len(counting.coefficients) == len(built) > 0

    warm = fresh()
    qb.measure(warm)
    built.clear()
    counting, _ = ehrhart.ehrhart_data(warm)
    assert built == []
    assert len(counting.coefficients) == len(built) > 0


# The closed and the interior sums of axes 0 and 1 swapped in every pass:
# each coordinate-sum fit is then the true fit of the other axis, and meets
# every sample check, but not its moment.
SWAP_SIMPLEX = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)]


def swap_axes_0_and_1(k, stats):
    def swapped(v):
        return (v[1], v[0]) + v[2:]

    return stats._replace(sums=swapped(stats.sums), interior_sums=swapped(stats.interior_sums))


@pytest.fixture
def swapped_axes(monkeypatch):
    """Counting passes with axes 0 and 1 swapped; the simplex is a fixed
    one, so the caches are emptied before and after to keep the swapped
    records and fits from any other test."""

    def clear():
        for cached in (lattice_point_stats, ehrhart.ehrhart_data):
            cached.cache_clear()

    clear()
    passes_on(monkeypatch, swap_axes_0_and_1)
    yield
    clear()


def test_moment_identity_catches_swapped_axes(swapped_axes):
    with pytest.raises(qb.InternalInconsistency, match="coordinate-sum polynomial has leading coefficient"):
        qb.barycenter_function(qb.hull_from_vertices(SWAP_SIMPLEX))


def test_bck_refuses_swapped_axes(swapped_axes, tmp_path):
    document = tmp_path / "simplex.json"
    document.write_text(json.dumps({"vertices": SWAP_SIMPLEX}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = execute(["bck", "--k", "3", "--input", str(document)])
    assert (status, out.getvalue()) == (2, "")
    assert "coordinate-sum polynomial has leading coefficient" in err.getvalue()


def test_count_errors():
    p = qb.load_fixture("f1")
    with pytest.raises(qb.InvalidInput):
        qb.count_points(p, -1)
    with pytest.raises(qb.InvalidInput):
        qb.interior_count(p, 0)


@pytest.mark.parametrize("k", (F(3, 2), 1.5, 2.0, F(2), True, "2"), ids=repr)
def test_a_dilation_that_is_not_an_int_is_refused(k):
    # checked before the cached counting pass, whose cache takes 2.0 for 2
    p2 = qb.load_fixture("p2")
    for function in (qb.count_points, qb.interior_count, qb.quantized_barycenter):
        with pytest.raises(qb.InvalidInput, match="dilation factor must be an integer"):
            function(p2, k)


def test_ehrhart_polynomials_known(fixtures):
    assert qb.ehrhart_polynomial(fixtures["p2"]).poly.coefficients == (
        F(1),
        F(9, 2),
        F(9, 2),
    )
    segment = qb.hull_from_vertices([(0,), (1,)])
    assert qb.ehrhart_polynomial(segment).poly.coefficients == (F(1), F(1))
    blowup = fixtures["blowup-p1xp1"]
    assert [qb.count_points(blowup, k) for k in (0, 1, 2)] == [1, 8, 22]
    assert qb.ehrhart_polynomial(blowup).poly.coefficients == (F(1), F(7, 2), F(7, 2))


def test_ehrhart_evaluates_to_counts_everywhere(fixtures, corpus):
    for p in list(fixtures.values()) + corpus[:10]:
        ehr = qb.ehrhart_polynomial(p).poly
        for k in range(2 * p.dim + 2):
            assert ehr(k) == qb.count_points(p, k)


def test_dilation_identity(fixtures):
    for p in (fixtures["f1"], fixtures["cube3"]):
        for a in (1, 2):
            for b in (1, 2, 3):
                assert qb.count_points(p, a * b) == qb.count_points(qb.dilate(p, a), b)


def test_reciprocity_fixture_suite(fixtures):
    for name, p in fixtures.items():
        report = qb.reciprocity_check(p, 4)
        assert report.all_passed, name
        reflexive = qb.classify(p).reflexive
        for entry in report.entries:
            assert entry.general_ok
            assert (entry.reflexive_ok is not None) == reflexive


def test_reciprocity_non_reflexive_skips_shifted_variant(fixtures):
    report = qb.reciprocity_check(fixtures["square-delzant-nonreflexive"], 3)
    assert report.all_passed
    assert all(e.reflexive_ok is None for e in report.entries)


def test_reflexive_closed_forms(fixtures):
    f1 = qb.reflexive_closed_form(fixtures["f1"])
    assert f1.poly.coefficients == (F(1), F(4), F(4))
    assert f1.source == "reflexive_closed_form"
    cube3 = qb.reflexive_closed_form(fixtures["cube3"])
    assert cube3.poly.coefficients == (F(1), F(6), F(12), F(8))
    fano = qb.reflexive_closed_form(fixtures["fano-3-29"])
    vol = qb.measure(fixtures["fano-3-29"]).volume
    assert fano.poly.coefficient(1) == vol / 2 + 2
    assert fano.poly == qb.ehrhart_polynomial(fixtures["fano-3-29"]).poly


def test_reflexive_closed_form_rejects_out_of_scope(fixtures):
    with pytest.raises(qb.Unsupported):
        qb.reflexive_closed_form(fixtures["square-delzant-nonreflexive"])
    segment = qb.hull_from_vertices([(-1,), (1,)])
    with pytest.raises(qb.Unsupported):
        qb.reflexive_closed_form(segment)


def test_held_out_validation_rejects_a_fit_that_only_matches_its_samples(monkeypatch):
    # adding the product of (k - x) over the abscissae x of the fit keeps
    # every sample the fit passes through but changes every other value:
    # with samples at 0, 1, -1, 2, -2, .., the degree-3 counting fit of a
    # 3-polytope and the degree-3 coordinate-sum fit of a polygon both miss
    # their reciprocity value at k = 2 first.  Only the degree-3 fits are
    # corrupted, so the polygon's counting fit, made first, passes.
    true_fit = ehrhart.poly_fit

    def wrong_fit(samples):
        if len(samples) != 4:
            return true_fit(samples)
        vanishing = Polynomial.constant(1)
        for x, _ in samples:
            vanishing = vanishing * Polynomial.of([-x, 1])
        return true_fit(samples) + vanishing

    # polytopes no other test uses, so no fit is cached yet
    counted = qb.hull_from_vertices([(0, 0, 0), (3, 1, 0), (0, 2, 1), (1, 0, 2)])
    summed = qb.hull_from_vertices([(0, 0), (3, 1), (1, 4), (-1, 2)])
    monkeypatch.setattr(ehrhart, "poly_fit", wrong_fit)
    with pytest.raises(qb.InternalInconsistency, match="counting polynomial fails reciprocity at k=2"):
        qb.ehrhart_polynomial(counted)
    with pytest.raises(qb.InternalInconsistency, match="coordinate-sum polynomial fails reciprocity at k=2"):
        qb.barycenter_function(summed)


# ---------------------------------------------------------------------------
# products of coordinate blocks, counted through their factors


@st.composite
def lattice_polytope(draw, n):
    """A full-dimensional lattice polytope in a translated box of side 2."""
    shift = draw(st.tuples(*[st.integers(-3, 3)] * n))
    points = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=n + 1, max_size=n + 3))
    try:
        return qb.hull_from_vertices([tuple(x + t for x, t in zip(v, shift)) for v in points])
    except qb.DegenerateInput:
        assume(False)


@st.composite
def interleaved_products(draw):
    """Factors A and B of dimension 1-3, together 4-6, and their product P,
    in which coordinate j of (a, b) is axis perm[j] of P."""
    a_dim, b_dim = draw(st.sampled_from(((1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3))))
    a, b = draw(lattice_polytope(a_dim)), draw(lattice_polytope(b_dim))
    perm = draw(st.permutations(range(a_dim + b_dim)))
    p = qb.hull_from_vertices([interleave(perm, u + v) for u in a.vertices for v in b.vertices])
    return a, b, perm, p


def interleave(perm, x):
    y = [None] * len(perm)
    for j, xj in enumerate(x):
        y[perm[j]] = xj
    return tuple(y)


@settings(max_examples=60, deadline=None)
@given(interleaved_products())
def test_products_match_box_scans_and_their_factors(case):
    a, b, perm, p = case
    assert len(qbary.polytope._split(p)) >= 2
    assert [lattice_point_stats(p, k) for k in (1, 2)] == [box_scan(p, k) for k in (1, 2)]
    # the factors were counted and measured as polytopes of their own
    misses = lattice_point_stats.cache_info().misses, qbary.polytope._measures.cache_info().misses
    for _, factor, _ in qbary.polytope._split(p):
        lattice_point_stats(factor, 2)
        qbary.polytope._measures(factor)
    assert (lattice_point_stats.cache_info().misses, qbary.polytope._measures.cache_info().misses) == misses
    assert qb.ehrhart_polynomial(p).poly == qb.ehrhart_polynomial(a).poly * qb.ehrhart_polynomial(b).poly
    for k in (1, 2, 3):
        parts = qb.quantized_barycenter(a, k).value + qb.quantized_barycenter(b, k).value
        assert qb.quantized_barycenter(p, k).value == interleave(perm, parts)
    # classify keeps the Delzant flag for dimension > 1, but every lattice
    # segment's vertex cones are unimodular
    flags = [qb.classify(a), qb.classify(b), qb.classify(p)]
    assert flags[2].reflexive == (flags[0].reflexive and flags[1].reflexive)
    assert flags[2].delzant == all(f.delzant or q.dim == 1 for f, q in zip(flags, (a, b)))
    # delta_k is a minimum over the rays, and a ray of P is a ray of one
    # factor, paired with that factor's quantized barycenter
    for k in (1, 2):
        value, argmin = qb.delta_k(qb.toric_from_polytope(p), k)
        factors = [(q, head, *qb.delta_k(qb.toric_from_polytope(q), k)) for q, head in ((a, ()), (b, (0,) * a.dim))]
        assert value == min(q_value for _, _, q_value, _ in factors)
        rays = {
            interleave(perm, (head + q.facets[i].normal + (0,) * p.dim)[: p.dim])
            for q, head, q_value, q_argmin in factors
            if q_value == value
            for i in q_argmin
        }
        assert {p.facets[i].normal for i in argmin} == rays


CUT_CORNER = [v for v in itertools.product((0, 1), repeat=4) if sum(v) < 4]
QUAD_TRIANGLE = [
    interleave((0, 2, 1, 3), u + v) for u in ((0, 0), (2, 0), (0, 1), (1, 2)) for v in ((0, 0), (2, 0), (0, 2))
]


@pytest.mark.parametrize(
    "vertices, product",
    [
        # every facet involves every axis
        (SCAN_SHAPES["4-D cross-polytope"], False),
        # the facet x_0 + x_1 + x_2 + x_3 <= 3 couples the four axes
        (CUT_CORNER, False),
        # a 3-D product is counted whole
        (list(itertools.product((0, 1), (0, 1), (0, 2))), False),
        (QUAD_TRIANGLE, True),
        (SCAN_SHAPES["unit 5-cube"], True),
    ],
)
def test_products_of_dimension_4_or_more_pass_over_p_only_at_k_1(monkeypatch, vertices, product):
    # each distinct factor is counted by its own plan once per dilation,
    # however many blocks it fills: the unit 5-cube's five segments are one
    # polytope.  Fresh factors, since a cached record makes no pass.
    p = fresh_hull(vertices)
    seen = passes_on(monkeypatch)
    for k in range(1, 6):
        lattice_point_stats.__wrapped__(p, k)
    plan = ehrhart._scan_plan(p)
    factors = dict.fromkeys(factor for _, factor, _ in qbary.polytope._measures(p).split)
    assert [k for q, k in seen if q is plan] == ([1] if product else [1, 2, 3, 4, 5])
    assert [(q, k) for q, k in seen if q is not plan] == [(ehrhart._scan_plan(f), k) for k in range(1, 6) for f in factors]


def test_the_unit_7_cube_makes_one_segment_pass_per_dilation(monkeypatch):
    # its seven factors are one segment, counted once per dilation; P itself
    # is passed over only at k = 1
    p = fresh_hull(itertools.product((0, 1), repeat=7))
    seen = passes_on(monkeypatch)
    for k in range(1, 5):
        lattice_point_stats(p, k)
    segment = ehrhart._scan_plan(qbary.polytope._measures(p).split[0][1])
    assert [k for q, k in seen if q == segment] == [1, 2, 3, 4]
    assert [(q, k) for q, k in seen if q != segment] == [(ehrhart._scan_plan(p), 1)]


def callers_of(name):
    """The functions of the library that call ``name``."""
    return {
        f.name
        for path in Path(ehrhart.__file__).parent.glob("*.py")
        for f in ast.walk(ast.parse(path.read_text()))
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    }


def test_counting_reads_no_fit_and_only_checked_stats_checks_a_read(monkeypatch):
    # the fits read the counts, so counting sits below them, whether a pass
    # or the parallelepiped serves k: a record is checked against the fits
    # where it is read, by checked_stats.  The raw records go only to the
    # fits and to the checks that compare them with a polynomial.
    def refused(*args):
        raise AssertionError("counting read a fit")

    monkeypatch.setattr(ehrhart, "ehrhart_data", refused)
    monkeypatch.setattr(ehrhart, "poly_fit", refused)
    for p in (fresh_simplex(4, TALL), fresh_simplex(4), fresh_hull(QUAD_TRIANGLE)):
        for k in (1, 5):
            lattice_point_stats.__wrapped__(p, k)
    assert callers_of("_read_check") == {"checked_stats"}
    assert callers_of("checked_stats") == {"count_points", "interior_count", "_barycenter_numerators"}
    raw = {"lattice_point_stats", "checked_stats", "ehrhart_data", "reciprocity_check", "hrr_coefficients", "rooftop_coefficients"}
    assert callers_of("lattice_point_stats") == raw


def swap_first_two_blocks_sums(blocks, records):
    first, second = records[0], records[1]
    records = [first._replace(sums=second.sums), second._replace(sums=first.sums), *records[2:]]
    return REAL_PRODUCT(blocks, records)


def interior_sums_by_closed_counts(blocks, records):
    # the interior sums of block b times the other factors' closed counts
    scaled = REAL_PRODUCT(blocks, [r._replace(interior=r.count) for r in records])
    return REAL_PRODUCT(blocks, records)._replace(interior_sums=scaled.interior_sums)


REAL_PRODUCT = ehrhart._product
# The unit 5-cube moved off the diagonal, so that its factors' sums differ.
UNIT_5_CUBE_MOVED = [tuple(x + i for i, x in enumerate(v)) for v in SCAN_SHAPES["unit 5-cube"]]


@pytest.mark.parametrize("vertices", [UNIT_5_CUBE_MOVED, QUAD_TRIANGLE])
def test_pass_at_k_1_catches_factor_sums_swapped_between_blocks(monkeypatch, vertices):
    p = qb.hull_from_vertices(vertices)
    monkeypatch.setattr(ehrhart, "_product", swap_first_two_blocks_sums)
    with pytest.raises(qb.InternalInconsistency, match="product of the factors' counts differs"):
        lattice_point_stats.__wrapped__(p, 1)


def test_pass_at_k_1_catches_interior_sums_scaled_by_closed_counts(monkeypatch):
    p = qb.hull_from_vertices(QUAD_TRIANGLE)
    monkeypatch.setattr(ehrhart, "_product", interior_sums_by_closed_counts)
    with pytest.raises(qb.InternalInconsistency, match="product of the factors' counts differs"):
        lattice_point_stats.__wrapped__(p, 1)


def test_fits_catch_interior_sums_scaled_by_closed_counts_on_the_unit_5_cube(monkeypatch):
    # Every factor [0, 1] of the unit 5-cube has no interior point at k = 1,
    # so the mutant's interior sums are 0 there, as they should be, and the
    # pass at k = 1 cannot see it.  From k = 2 on they are not.  The fits
    # read k = 0..3, and at n = 5 each coordinate-sum fit passes through
    # every sample, so its leading-coefficient identity catches it.
    p = fresh_hull(SCAN_SHAPES["unit 5-cube"])
    monkeypatch.setattr(ehrhart, "_product", interior_sums_by_closed_counts)
    lattice_point_stats.__wrapped__(p, 1)
    with pytest.raises(qb.InternalInconsistency, match="coordinate-sum polynomial has leading coefficient"):
        qb.barycenter_function(p)


def plan_with_hulls(monkeypatch, p):
    """P's plan, and the point sets of the hulls that planning P builds."""
    hulls = []
    real = ehrhart.convex_hull

    def counted(points):
        hulls.append(points)
        return real(points)

    monkeypatch.setattr(ehrhart, "convex_hull", counted)
    return ehrhart._scan_plan.__wrapped__(p), hulls


@pytest.mark.parametrize(
    "name, dims",
    [("skinny 3-simplex", []), ("prism", []), ("4-simplex", [2])],
    ids=["skinny 3-simplex", "prism", "4-simplex"],
)
def test_a_plan_builds_hulls_for_outer_coordinates_only(monkeypatch, name, dims):
    # rows find their own extent, so no hull bounds the row coordinate: a
    # 3-D plan builds none, and the bench's 4-simplex one, planar
    _, hulls = plan_with_hulls(monkeypatch, qb.hull_from_vertices(SCAN_SHAPES[name]))
    assert [len(next(iter(points))) for points in hulls] == dims


def test_unit_5_cube_plan_hulls_two_points_per_coordinate(monkeypatch):
    # each outer coordinate is bounded by the hull of its own segment and
    # the row coordinate by its rows alone; the factors, all one segment,
    # are planned as polytopes of their own and take no hull at all
    p = qb.hull_from_vertices(SCAN_SHAPES["unit 5-cube"])
    plan, hulls = plan_with_hulls(monkeypatch, p)
    assert [len(points) for points in hulls] == [2, 2]
    assert [len(bounds.coefs) for bounds in plan.bounds] == [2, 2, 10]
    split = qbary.polytope._measures(p).split
    assert [block for block, _, _ in split] == [(i,) for i in range(5)]
    assert {factor for _, factor, _ in split} == {qb.hull_from_vertices([(0,), (1,)])}
    hulls.clear()
    ehrhart._scan_plan.__wrapped__(split[0][1])
    assert hulls == []


@settings(max_examples=30, deadline=None)
@given(interleaved_products())
def test_product_plans_bound_each_coordinate_within_its_block(case):
    a, b, perm, p = case
    plan = ehrhart._scan_plan(p)
    split = qbary.polytope._split(p)
    block_of = {i: block for block, _, _ in split for i in block}
    for j, bounds in enumerate(plan.bounds[:-1], 1):
        assert all(bounds.coefs)
        for i, column in enumerate(bounds.cols):
            assert plan.order[i] in block_of[plan.order[j]] or not any(column), (j, i)
    # a factor's shadows are P's on its block over the other factors'
    # volumes, so its own plan scans it in P's order restricted to its block
    assert "factors" not in ehrhart._ScanPlan._fields
    for block, factor, _ in split:
        order = ehrhart._scan_plan(factor).order
        assert [block[i] for i in order] == [i for i in plan.order if i in block]


def test_products_find_their_factors_once(monkeypatch):
    # the split is kept with P's measures and each factor's with its own, so
    # neither measures nor any dilation splits P or a factor again
    calls = []
    real = qbary.polytope._split

    def recorded(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(qbary.polytope, "_split", recorded)
    for vertices in (QUAD_TRIANGLE, SCAN_SHAPES["unit 5-cube"]):
        calls.clear()
        p = fresh_hull(vertices)
        qb.measure(p)
        qb.facet_data(p)
        for k in range(1, 6):
            lattice_point_stats(p, k)
        assert calls == [p, *dict.fromkeys(factor for _, factor, _ in real(p))]
        assert len(real(p)) >= 2
