"""Library records held to recorded SHA-256 digests.

``tests/golden/records.json`` holds, for each polytope of a seeded corpus,
one SHA-256 of the canonical JSON of its library records: the counting
records (``lattice_point_stats``) at k = 0..n+2, ``count_points`` and
``quantized_barycenter`` at k = 1..n+2, ``ehrhart_polynomial``,
``barycenter_function``, ``asymptotic_coefficients(p, 4)``, ``measure``,
``facet_data`` and ``classify``, together with the polytope's vertices.  A
change that moves a counting, fitting or measuring route must leave every
digest unchanged; a difference names the polytope whose records moved.

The corpus is the bundled fixtures, the 52 polytopes of ``conftest``'s
seeded corpus, seeded products of coordinate blocks with shuffled axes in
dimensions 4-6, the two dense ``GL_5(Z)`` images of the unit 5-cube of
``test_polytope`` and the anticanonical simplices
``{x_i >= -1, sum x_i <= 1}`` for n = 2..6.

    PYTHONPATH=src python tests/records.py --record       # rewrite the file
    PYTHONPATH=src python tests/records.py --check        # replay the subset
    PYTHONPATH=src python tests/records.py --check --all  # replay everything

``--check`` replays the subset that ``tests/test_record_corpus.py`` replays
in tier-1; both print or report every polytope whose digest differs.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import qbary as qb  # noqa: E402
from conftest import FIXTURE_NAMES, apply_map, random_corpus  # noqa: E402
from qbary.ehrhart import lattice_point_stats  # noqa: E402
from qbary.exactnum import Immutable  # noqa: E402
from test_polytope import DENSE_GL5  # noqa: E402

RECORDS = Path(__file__).parent / "golden" / "records.json"
PRODUCT_SEED = 20261019
PRODUCTS_PER_DIM = 40
# Left out of the subset that tier-1 replays, for their cost: together they
# take about nine tenths of the time of the whole corpus.
FULL_ONLY = ("dense GL5 image 0", "dense GL5 image 1", "anticanonical simplex 6")


def anticanonical_simplex(n: int) -> qb.Polytope:
    """``{x_i >= -1, sum x_i <= 1}``, the polytope of the rays e_1..e_n and
    ``-(e_1 + .. + e_n)`` with every offset 1."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return qb.toric_data(rays, [1] * (n + 1)).polytope


def shuffled_products(seed: int, per_dim: int) -> list[qb.Polytope]:
    """``per_dim`` products in each of dimensions 4-6 of 2-3 random lattice
    polytopes of dimension 1-3, vertices in [-2, 2], axes shuffled."""
    rng = random.Random(seed)
    out = []
    for n in (4, 5, 6):
        while sum(p.dim == n for p in out) < per_dim:
            dims = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            if sum(dims) != n:
                continue
            try:
                factors = [
                    qb.hull_from_vertices([tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 3))])
                    for d in dims
                ]
            except qb.DegenerateInput:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            points = [sum(vs, ()) for vs in product(*(q.vertices for q in factors))]
            out.append(qb.hull_from_vertices([tuple(x[i] for i in perm) for x in points]))
    return out


def corpus() -> list[tuple[str, qb.Polytope]]:
    """The named polytopes of the corpus, in a fixed order."""
    unit_5_cube = list(product((0, 1), repeat=5))
    return [
        *((f"fixture {name}", qb.load_fixture(name)) for name in FIXTURE_NAMES),
        *((f"conftest corpus {i}", p) for i, p in enumerate(random_corpus())),
        *((f"product {i}", p) for i, p in enumerate(shuffled_products(PRODUCT_SEED, PRODUCTS_PER_DIM))),
        *((f"dense GL5 image {i}", qb.hull_from_vertices([apply_map(u, v) for v in unit_5_cube])) for i, u in enumerate(DENSE_GL5)),
        *((f"anticanonical simplex {n}", anticanonical_simplex(n)) for n in range(2, 7)),
    ]


def canonical(value):
    """A JSON value of a library value: records by field name, fractions as
    ``"a/b"`` strings, tuples as lists."""
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Immutable):
        return {name: canonical(getattr(value, name)) for name in value.__slots__}
    if hasattr(value, "_fields"):
        return {name: canonical(getattr(value, name)) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return [canonical(x) for x in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def records(p: qb.Polytope) -> dict:
    n = p.dim
    dilations = range(1, n + 3)
    return {
        "vertices": canonical(p.vertices),
        "lattice_point_stats": [canonical(lattice_point_stats(p, k)) for k in range(n + 3)],
        "count_points": [qb.count_points(p, k) for k in dilations],
        "quantized_barycenter": [canonical(qb.quantized_barycenter(p, k)) for k in dilations],
        "ehrhart_polynomial": canonical(qb.ehrhart_polynomial(p)),
        "barycenter_function": canonical(qb.barycenter_function(p)),
        "asymptotic_coefficients": canonical(qb.asymptotic_coefficients(p, 4)),
        "measure": canonical(qb.measure(p)),
        "facet_data": canonical(qb.facet_data(p)),
        "classify": canonical(qb.classify(p)),
    }


def digest(p: qb.Polytope) -> str:
    text = json.dumps(records(p), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded() -> dict[str, str]:
    """The recorded digests by polytope name."""
    return {case["name"]: case["sha256"] for case in json.loads(RECORDS.read_text())}


def record() -> None:
    cases = [{"name": name, "dim": p.dim, "sha256": digest(p)} for name, p in corpus()]
    RECORDS.write_text(json.dumps(cases, indent=1) + "\n")


def differing(everything: bool) -> tuple[int, list[str]]:
    """The number of polytopes replayed and the names of those whose digest
    differs from the recorded one, or that the file lacks."""
    expected = recorded()
    cases = [(name, p) for name, p in corpus() if everything or name not in FULL_ONLY]
    diffs = [name for name, p in cases if expected.get(name) != digest(p)]
    if everything and list(expected) != [name for name, _ in cases]:
        diffs.append("(the recorded names are not the corpus)")
    return len(cases), diffs


def check(everything: bool) -> int:
    count, diffs = differing(everything)
    for name in diffs:
        print(f"differs: {name}", file=sys.stderr)
    print(f"records: {count} polytopes, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--record"]:
        record()
    elif args in (["--check"], ["--check", "--all"]):
        sys.exit(check("--all" in args))
    else:
        sys.exit("usage: records.py --record | --check [--all]")
