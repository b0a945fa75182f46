"""qbary benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's polytopes from the seed, writes them as vertex documents under
``.bench_build/perfbench/``, and drives ``qbary.cli.execute`` in a separate
worker process: one caller, closed loop, each item starting when the
previous one has finished.  Every output is checked exactly against the
benchmark's own geometry and, for translated items, against the round-0
twin.  The last line of stdout is the JSON result; the lines before it are a
readable summary.

With ``--trace 0`` the result holds the end-to-end metrics of a timed run
of as many rounds as take about S seconds at this commit.  Its times are in
reference seconds: this process times a fixed pure-Python probe on the
worker's CPU while each item runs, and scales the item's CPU time by how
fast the host ran beside it (:func:`reference_latencies`); the raw
wall-clock figures are in the summary.  With
``--trace 1`` it holds per-layer metrics from spans: the first rounds of the
workload run twice untraced and twice traced, alternately, each in a fresh
process; the count metrics of the two traced passes must agree exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads
from spans import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 11
TIMEOUT_S = 150

# The speed probe: the CPU time of a loop of PROBE_LOOPS steps of integer
# arithmetic.  It allocates nothing the garbage collector tracks and runs in
# this process, never in the worker, so nothing the program does to its own
# interpreter changes it.  PROBE_REF_S is its CPU time on the host the
# benchmark was tuned on (2 vCPUs, Python 3.11) when that host ran at full
# speed.  While an item runs, the probe runs every PROBE_EVERY_S on the same
# CPU, and once more after the item; each item's speed is the median of at
# least PROBES_PER_ITEM probes, those nearest it.
PROBE_LOOPS = 10_000
PROBE_REF_S = 0.0006
PROBE_EVERY_S = 0.02
PROBES_PER_ITEM = 8

COUNTING = "ehrhart.lattice_point_stats"
# Per-layer metrics reported with --trace 1 (the order of BENCHMARK.json).
PER_LAYER = (
    [f"{COUNTING}.{m}" for m in ("calls", "self_s", "points", "box_points", "repeat_ratio", "heldout_share")]
    + ["ehrhart.box_fill_ratio", "ehrhart.ehrhart_polynomial.self_s", "ehrhart.reciprocity_check.self_s"]
    + ["hull.convex_hull.calls", "hull.convex_hull.self_s", "hull.convex_hull.points_in"]
    + [f"{name}.{m}" for name in (
        "hull.volume_and_barycenter", "polytope.body_from_points", "toric.mixed_volume",
        "toric.divisor_polytope", "exactnum.poly_fit", "exactnum.laurent_expand",
        "expansion.quantized_barycenter", "stability.delta_k", "polytope.hull_from_vertices",
        "lattice.hermite_normal_form") for m in ("calls", "self_s")]
    + [f"{name}.self_s" for name in (
        "toric.hrr_coefficients", "toric.rooftop_coefficients", "expansion.barycenter_function",
        "expansion.asymptotic_coefficients", "stability.delta_sequence", "cli.execute",
        "polytope.polytope_from_document", "polytope.measure", "polytope.facet_data",
        "polytope.classify")]
    + ["trace.wall_s", "trace.overhead_ratio"]
)
UNITS = {"calls": "count", "points": "count", "box_points": "count", "points_in": "count",
         "self_s": "s", "wall_s": "s", "repeat_ratio": "ratio", "heldout_share": "ratio",
         "box_fill_ratio": "ratio", "overhead_ratio": "ratio"}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs

def prepare(name: str, seed: int, rounds: int, work: str):
    """Generate the workload, write its documents and manifest."""
    wl = workloads.build(name, seed, rounds)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "docs"))
    paths = []
    for i, shape in enumerate(wl.shapes):
        path = os.path.join(work, "docs", f"{i}.json")
        with open(path, "w") as fh:
            json.dump(shape.document(), fh)
        paths.append(path)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"items": [
            {"id": it.id, "argv": workloads.argv(it.spec, paths[it.doc])}
            for it in wl.items
        ]}, fh)
    digest = hashlib.sha256(json.dumps(
        [[it.spec, wl.shapes[it.doc].vertices, it.base] for it in wl.items], sort_keys=True
    ).encode()).hexdigest()
    return wl, manifest, digest


# ---------------------------------------------------------------------------
# worker processes

def spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (spawn to ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {line!r}")
    return proc, elapsed


def finish(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def setup_time(manifest: str) -> float:
    """Median set-up time in reference seconds: each start's wall time
    scaled by the probes timed just before and just after it."""
    finish(spawn(["setup", manifest])[0])  # the first start also compiles bytecode
    samples = []
    for _ in range(SETUP_SAMPLES):
        near = [probe() for _ in range(PROBES_PER_ITEM // 2)]
        proc, elapsed = spawn(["setup", manifest])
        finish(proc)
        near += [probe() for _ in range(PROBES_PER_ITEM // 2)]
        samples.append(elapsed * PROBE_REF_S / statistics.median(near))
    return statistics.median(samples)


def pin_to_one_cpu() -> None:
    """Keep this process and the workers it starts on one CPU, so the probe
    measures the CPU the items run on; the kernel shares it between them."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def probe() -> float:
    """CPU seconds the speed probe takes just now."""
    t0 = time.process_time()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.process_time() - t0


def run_worker(args: list[str], out: str) -> tuple[list, dict]:
    proc, _ = spawn(args)
    finish(proc)
    return read_pass(out)


def paced_pass(manifest: str, out: str, n: int) -> tuple[list, dict, list[list[float]]]:
    """Run the ``n`` items in a paced worker.  ``probes[0]`` is timed before
    the first item, ``probes[i + 1]`` while item ``i`` runs and just after."""
    proc, _ = spawn(["paced", manifest, out])
    probes = [[probe()]]
    try:
        for _ in range(n):
            proc.stdin.write("go\n")
            proc.stdin.flush()
            beside = []
            while True:
                done = select.select([proc.stdout], [], [], PROBE_EVERY_S)[0]
                beside.append(probe())
                if done:
                    break
            if proc.stdout.readline() != "done\n":
                raise BenchError("worker stopped before the last item")
            probes.append(beside)
    except OSError as exc:
        raise BenchError(f"worker stopped before the last item: {exc}") from exc
    finally:
        finish(proc)
    return *read_pass(out), probes


def read_pass(out: str) -> tuple[list, dict]:
    with open(out + ".jsonl") as fh:
        records = [json.loads(line) for line in fh]
    with open(out + ".json") as fh:
        return records, json.load(fh)


# ---------------------------------------------------------------------------
# output checks

class Checker:
    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.memo: dict = {}
        self.first: dict = {}  # item id -> first parsed output
        self.pairs: dict = {}  # item id -> (oracle pairs, translation pairs)
        self.problems: list[str] = []

    def record(self, rec) -> bool:
        item_id, _, rc, stdout, err = rec[:5]
        key = (item_id, rc, stdout)
        if key not in self.memo:
            self.memo[key] = self._check(item_id, rc, stdout, err)
        return self.memo[key]

    def _check(self, item_id, rc, stdout, err) -> bool:
        item = self.wl.items[item_id]
        if rc != 0:
            return self._fail(item, f"exit {rc}: {err}")
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return self._fail(item, "output is not JSON")
        self.first.setdefault(item_id, doc)
        if not checks.header_ok(item.spec, doc):
            return self._fail(item, "wrong command or input in output")
        try:
            shape = self.wl.shapes[item.doc]
            oracle = checks.oracle_pairs(item.spec, shape, doc)
            trans = []
            if item.base is not None:
                base = self.first.get(item.base)
                if base is None:
                    return self._fail(item, "round-0 twin has no output")
                trans = checks.translation_pairs(item.spec, shape, item.shift, base, doc)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return self._fail(item, f"malformed output: {exc!r}")
        self.pairs[item_id] = (oracle, trans)
        for field, expected, actual in oracle + trans:
            if expected != actual:
                return self._fail(item, f"{field}: expected {expected}, got {actual}")
        return True

    def _fail(self, item, why: str) -> bool:
        self.problems.append(f"item {item.id} ({' '.join(workloads.argv(item.spec, 'P'))}): {why}")
        return False

    def corrupted_failures(self) -> tuple[int, int]:
        """Re-check every checked item with one reference value corrupted, in
        the oracle and (for translated items) in the round-0 twin's output.
        Returns (checks that failed as they must, checks made)."""
        caught = made = 0
        for oracle, trans in self.pairs.values():
            for pairs in (oracle, trans):
                if pairs:
                    field, expected, actual = pairs[0]
                    made += 1
                    caught += checks.corrupt(expected) != actual
        return caught, made


# ---------------------------------------------------------------------------
# metrics

def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def self_times(span_list: list) -> list[float]:
    child = [0.0] * len(span_list)
    for s in span_list:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(span_list, child)]


def layer_metrics(wl: workloads.Workload, span_list: list) -> tuple[dict, dict]:
    """Per-layer times and exact counts of one traced pass."""
    names = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    counts = {"points": 0, "box_points": 0, "hits": 0, "points_in": 0}
    heldout = 0.0
    for s, st in zip(span_list, self_times(span_list)):
        name, counters = s[0], s[5]
        calls[name] += 1
        self_s[name] += st
        if name == COUNTING:
            if counters["miss"]:
                counts["points"] += counters["points"]
                counts["box_points"] += counters["box_points"]
                asked = workloads.requested_ks(wl.items[s[4]].spec)
                if counters["k"] > counters["dim"] and counters["k"] not in asked:
                    heldout += st
            else:
                counts["hits"] += 1
        elif name == "hull.convex_hull":
            counts["points_in"] += counters["points_in"]
    exact = {f"{n}.calls": c for n, c in calls.items()} | counts
    timed = {f"{n}.self_s": t for n, t in self_s.items()}
    timed[f"{COUNTING}.heldout_share"] = heldout / self_s[COUNTING] if self_s[COUNTING] else 0.0
    return exact, timed


def traced_result(wl, manifest, work, summary_lines) -> tuple[dict, list, bool]:
    passes = []
    for label in ("plain-1", "traced-1", "plain-2", "traced-2"):
        out = os.path.join(work, label)
        flag = "1" if label.startswith("traced") else "0"
        passes.append(run_worker(["run", manifest, out, flag], out))
    (plain1, plain_sum1), (rec1, sum1), (plain2, plain_sum2), (rec2, sum2) = passes
    exact1, timed1 = layer_metrics(wl, sum1["spans"])
    exact2, timed2 = layer_metrics(wl, sum2["spans"])
    repeat = exact1 == exact2
    if not repeat:
        diff = {k: (exact1[k], exact2[k]) for k in exact1 if exact1[k] != exact2[k]}
        summary_lines.append(f"count metrics differ between traced passes: {diff}")
    traced_wall = (sum1["wall_s"] + sum2["wall_s"]) / 2
    values = {k: (timed1[k] + timed2[k]) / 2 for k in timed1}
    values.update({k: v for k, v in exact1.items() if k.endswith(".calls")})
    c = exact1
    values[f"{COUNTING}.points"] = c["points"]
    values[f"{COUNTING}.box_points"] = c["box_points"]
    values[f"{COUNTING}.repeat_ratio"] = c["hits"] / c[f"{COUNTING}.calls"] if c[f"{COUNTING}.calls"] else 0.0
    values["ehrhart.box_fill_ratio"] = c["points"] / c["box_points"] if c["box_points"] else 0.0
    values["hull.convex_hull.points_in"] = c["points_in"]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = 2 * traced_wall / (plain_sum1["wall_s"] + plain_sum2["wall_s"]) - 1
    for share, names in (
        ("counting", [f"{COUNTING}.self_s"]),
        ("hulls", ["hull.convex_hull.self_s", "polytope.body_from_points.self_s"]),
    ):
        summary_lines.append(
            f"{share} self time / traced wall: {sum(values[n] for n in names) / traced_wall:.3f}"
        )
    records = plain1 + rec1 + plain2 + rec2
    metrics = {n: {"value": values[n], "unit": UNITS[n.rsplit(".", 1)[1]]} for n in PER_LAYER}
    return metrics, records, repeat


def reference_latencies(cpu_times: list[float], probes: list[list[float]]) -> list[float]:
    """Each item's CPU time scaled to full host speed: times PROBE_REF_S
    over the median of the probes beside it (``probes[i + 1]``), widened
    to the probes before and after until there are PROBES_PER_ITEM.  On a
    shared host whose speed drifts by up to 40% from one stretch of seconds
    to the next, this keeps the drift out of the figures."""
    scaled = []
    for i, cpu in enumerate(cpu_times):
        near, before, after = list(probes[i + 1]), i, i + 2
        while len(near) < PROBES_PER_ITEM and (before >= 0 or after < len(probes)):
            if before >= 0:
                near += probes[before]
                before -= 1
            if after < len(probes):
                near += probes[after]
                after += 1
        scaled.append(cpu * PROBE_REF_S / statistics.median(near))
    return scaled


def latency_metrics(lat: list[float]) -> dict:
    return {
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail(lat)[0],
    }


def timed_result(manifest, work, summary_lines) -> tuple[dict, list]:
    out = os.path.join(work, "timed")
    with open(manifest) as fh:
        n = len(json.load(fh)["items"])
    records, summary, probes = paced_pass(manifest, out, n)
    raw = [r[1] for r in records]
    lat = reference_latencies([r[5] for r in records], probes)
    probes = sum(probes, [])
    summary_lines.append(f"latency_tail_s is p{tail(lat)[1]:.1f} of n={len(lat)} items")
    summary_lines.append(
        f"host speed: probe median {statistics.median(probes) * 1e3:.3f} ms "
        f"(full speed {PROBE_REF_S * 1e3:.3f} ms), over {len(probes)} probes"
    )
    summary_lines.append("raw wall-clock figures: " + ", ".join(
        f"{k} {v:.6g}" for k, v in latency_metrics(raw).items()
    ))
    metrics = {k: (v, "1/s" if k == "items_per_s" else "s") for k, v in latency_metrics(lat).items()}
    metrics["peak_rss_mb"] = (summary["peak_rss_mb"], "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "qbary", "cli.py")):
        print(f"no qbary sources under {ROOT}/src", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_build", "perfbench", args.workload)
    rounds = workloads.rounds_for(args.workload, args.seconds, bool(args.trace))
    wl, manifest, digest = prepare(args.workload, args.seed, rounds, work)
    lines = [f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
             f"{len(wl.items)} items, inputs sha256 {digest}"]
    if args.trace:
        metrics, records, repeat = traced_result(wl, manifest, work, lines)
    else:
        metrics, records = timed_result(manifest, work, lines)
        metrics["setup_s"] = {"value": setup_time(manifest), "unit": "s"}
        repeat = True

    checker = Checker(wl)
    failed = sum(not checker.record(r) for r in records)
    caught, made = checker.corrupted_failures()
    lines.append(f"error_rate: {failed / len(records):.6f} ({failed} of {len(records)} items failed)")
    lines.append(f"oracle self-check: {caught} of {made} checks fail with a corrupted reference")
    lines += checker.problems[:10]
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    correct = failed == 0 and caught == made > 0 and repeat
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
