"""Seeded item lists for the four workloads.

An item is one CLI command on one polytope.  Items come in rounds: round 0
holds the base polytopes and every later round holds translated copies of
them, so each later item is also checked against its round-0 twin by the
translation identities.  Each round runs the same shape classes and
commands, which keeps the cost of a round nearly independent of the seed:
the seed chooses only reflections and translations, never the shape (for
the toric workload, only the order within each round).

Why these workloads:

* ``expand-simplex``: lattice simplices and skinny simplices in dimensions 3
  and 4 fill little of their bounding box, so the box scan in
  ``ehrhart.lattice_point_stats`` dominates.  A tighter counting scan must
  show here.
* ``expand-box``: the same four commands on boxes, box x polygon products
  and the unit 5-cube, where the bounding box is (nearly) tight.  A counting
  change that helps simplices but costs boxes shows here.
* ``toric-delzant``: ``hrr`` and ``rooftop-coeffs`` (cross-check on) on
  Delzant polygons, plus ``hrr`` on a 3-D box.  Minkowski-sum hulls inside
  ``mixed_volume`` dominate and counting is negligible, so the vertex-cone
  route shows here and counting changes do not.  Hexagons (about 8.5 s per
  ``rooftop-coeffs``) are left out to keep enough items in a run.
* ``session-small``: ten cheap commands in sequence on each small polytope
  of dimension 2 or 3, sharing cached work as a library session would.  CLI
  dispatch, polytope construction and per-call overhead show here, as does
  cross-command reuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from geometry import Shape, atom, box, cartesian, dilate, reflect, segment, translate

EXPAND = (
    {"cmd": "expand"},
    {"cmd": "delta-seq", "ks": (1, 2, 3)},
    {"cmd": "reciprocity", "kmax": 4},
    {"cmd": "bck", "k": 12},
)

SESSION_2D = (
    {"cmd": "bc"},
    {"cmd": "classify"},
    {"cmd": "ehrhart"},
    {"cmd": "bck", "k": 2},
    {"cmd": "delta"},
    {"cmd": "delta", "k": 2},
    {"cmd": "fan", "v": (1, 0)},
    {"cmd": "df", "v": (1, 1)},
    {"cmd": "count", "k": 3},
    {"cmd": "rooftop", "v": (-1, 2)},
)
SESSION_3D = tuple(
    dict(spec, v=spec["v"] + (0,)) if "v" in spec else spec for spec in SESSION_2D
)

TORIC_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (-1, 2))

QUAD = atom([(0, 0), (2, 0), (0, 1), (1, 2)])
F1 = atom([(-1, 0), (-1, 2), (0, -1), (2, -1)])


@dataclass(frozen=True)
class Item:
    id: int
    doc: int  # index of the polytope document
    spec: dict
    base: int | None  # id of the round-0 item this one translates
    shift: tuple[int, ...] | None


@dataclass(frozen=True)
class Workload:
    items: tuple[Item, ...]
    shapes: tuple[Shape, ...]  # one per document


def argv(spec: dict, path: str) -> list[str]:
    """CLI arguments of one item.  Directions use ``--v=...``: argparse reads
    ``--v -1,2`` as an option named ``-1,2``."""
    out = [spec["cmd"], "--input", path]
    if "k" in spec:
        out += ["--k", str(spec["k"])]
    if "ks" in spec:
        out += ["--ks", ",".join(map(str, spec["ks"]))]
    if "kmax" in spec:
        out += ["--kmax", str(spec["kmax"])]
    if "v" in spec:
        out.append("--v=" + ",".join(map(str, spec["v"])))
    return out


def requested_ks(spec: dict) -> set[int]:
    """Dilations the command itself asks for."""
    if "k" in spec:
        return {spec["k"]}
    if "ks" in spec:
        return set(spec["ks"])
    if "kmax" in spec:
        return set(range(spec["kmax"] + 1))
    return set()


def _signs(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(n))


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.shapes: list[Shape] = []
        self.items: list[Item] = []
        self.seen: set = set()

    def doc(self, shape: Shape) -> int:
        self.seen.add(shape.vertices)
        self.shapes.append(shape)
        return len(self.shapes) - 1

    def fresh_shift(self, shape: Shape) -> tuple[int, ...]:
        """A nonzero translation taking ``shape`` to a polytope not used yet;
        the range widens only when the narrow one is used up."""
        span, tries = 4, 0
        while True:
            t = tuple(self.rng.randint(-span, span) for _ in range(shape.dim))
            moved = tuple(sorted(tuple(x + y for x, y in zip(v, t)) for v in shape.vertices))
            if any(t) and moved not in self.seen:
                return t
            tries += 1
            if tries % 50 == 0:
                span += 2

    def item(self, doc: int, spec: dict, base: Item | None = None, shift=None) -> Item:
        it = Item(len(self.items), doc, spec, base.id if base else None, shift)
        self.items.append(it)
        return it


def _per_command(rng: random.Random, classes, commands, rounds: int) -> _Builder:
    """Every (class, command) pair gets its own polytope in every round."""
    b = _Builder(rng)
    bases = {}
    for ci, shape in enumerate(classes):
        for mi, spec in enumerate(commands):
            s = reflect(shape, _signs(rng, shape.dim))
            s = translate(s, b.fresh_shift(s))
            bases[ci, mi] = (s, b.item(b.doc(s), spec))
    for rnd in range(1, rounds):
        for (ci, mi), (s, base) in bases.items():
            t = b.fresh_shift(s)
            b.item(b.doc(translate(s, t)), base.spec, base, t)
    return b


def expand_simplex(rng: random.Random, rounds: int) -> _Builder:
    classes = [
        atom([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)]),
        atom([(0, 0, 0), (3, 1, 0), (1, 3, 0), (1, 1, 3)]),
        atom([(0, 0, 0), (1, 0, 0), (0, 1, 0), (4, 3, 5)]),
        atom([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 2)]),
        atom([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 2, 3, 4)]),
    ]
    return _per_command(rng, classes, EXPAND, rounds)


def expand_box(rng: random.Random, rounds: int) -> _Builder:
    classes = [
        box(2, 3, 4),
        box(1, 2, 2, 3),
        box(1, 1, 1, 1, 1),
        cartesian(segment(0, 2), QUAD),
        cartesian(box(1, 1), QUAD),
        box(1, 1, 2, 2),
        cartesian(box(1, 2), dilate(atom([(0, 0), (1, 0), (0, 1)]), 2)),
    ]
    return _per_command(rng, classes, EXPAND, rounds)


def toric_delzant(rng: random.Random, rounds: int) -> _Builder:
    polygons = [
        dilate(atom([(0, 0), (1, 0), (0, 1)]), 2),
        box(2, 3),
        atom([(0, 0), (3, 0), (0, 1), (2, 1)]),  # Hirzebruch trapezoid a=2, r=1, b=1
        F1,
    ]
    commands = [(p, {"cmd": "hrr"}) for p in polygons] + [(box(1, 1, 2), {"cmd": "hrr"})]
    commands += [
        (p, {"cmd": "rooftop-coeffs", "v": v}) for p, v in zip(polygons, TORIC_DIRECTIONS)
    ]
    # A second triangle puts the median item in the middle of a group of
    # similar cost rather than at its edge.
    commands.append((dilate(polygons[0], 2), {"cmd": "rooftop-coeffs", "v": TORIC_DIRECTIONS[1]}))
    # The cost of rooftop-coeffs depends on where the polygon sits (the same
    # trapezoid takes 0.8 s at one translation and 1.5 s at another).  Far
    # from the origin in the positive orthant it varies least, so every
    # polytope sits there, at positions that are the same for every seed;
    # the seed orders each round.
    place = random.Random("toric-delzant positions")
    b = _Builder(rng)
    docs = []
    for rnd in range(rounds):
        row = []
        for ci, (shape, _) in enumerate(commands):
            while True:
                at = tuple(place.randint(6, 14) for _ in range(shape.dim))
                moved = translate(shape, at)
                if moved.vertices not in b.seen:
                    break
            t = None if rnd == 0 else tuple(x - y for x, y in zip(at, docs[0][ci][1]))
            row.append((b.doc(moved), at, t))
        docs.append(row)
    bases = {}
    for rnd, row in enumerate(docs):
        order = list(range(len(commands)))
        rng.shuffle(order)
        for ci in order:
            doc, _, t = row[ci]
            spec = commands[ci][1]
            if rnd == 0:
                bases[ci] = b.item(doc, spec)
            else:
                b.item(doc, spec, bases[ci], t)
    return b


def session_small(rng: random.Random, rounds: int) -> _Builder:
    classes = [
        atom([(1, 0), (0, 1), (-1, -1)]),
        atom([(-1, -1), (2, -1), (-1, 2)]),
        atom([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
        atom([(0, 0), (3, 0), (0, 1), (2, 1)]),
        atom([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        translate(box(2, 2, 2), (-1, -1, -1)),
        atom([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
        cartesian(atom([(0, 0), (2, 0), (0, 1)]), segment(0, 1)),
    ]
    b = _Builder(rng)
    bases = []
    for shape in classes:
        s = reflect(shape, _signs(rng, shape.dim))
        d = b.doc(s)
        commands = SESSION_2D if s.dim == 2 else SESSION_3D
        bases.append((s, [b.item(d, spec) for spec in commands]))
    for rnd in range(1, rounds):
        for s, items in bases:
            t = b.fresh_shift(s)
            d = b.doc(translate(s, t))
            for base in items:
                b.item(d, base.spec, base, t)
    return b


# builder, seconds one timed round takes here (2 vCPUs, Python 3.11, speed
# probes included), rounds traced
BUILDERS = {
    "expand-simplex": (expand_simplex, 2.55, 2),
    "expand-box": (expand_box, 8.2, 1),
    "toric-delzant": (toric_delzant, 8.1, 1),
    "session-small": (session_small, 0.63, 8),
}


def rounds_for(name: str, seconds: float, traced: bool) -> int:
    """Rounds in a run: a traced run takes the first few, a timed run as
    many as last about 85% of ``seconds`` at this commit, which leaves the
    rest for set-up and checks.  The count does not depend on how fast a
    run goes, so every run of a workload and seed times the same items and
    a faster program is not charged for the memory of extra items."""
    _, round_s, traced_rounds = BUILDERS[name]
    return traced_rounds if traced else max(traced_rounds, round(0.85 * seconds / round_s))


def build(name: str, seed: int, rounds: int) -> Workload:
    builder = BUILDERS[name][0]
    b = builder(random.Random(f"{name}:{seed}"), rounds)
    return Workload(tuple(b.items), tuple(b.shapes))
