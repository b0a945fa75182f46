"""The workload's own process: imports qbary, runs items, records results.

    python3 worker.py setup MANIFEST
    python3 worker.py run MANIFEST OUT TRACE
    python3 worker.py paced MANIFEST OUT

Every mode prints ``ready`` once qbary is imported and the manifest is
loaded, which ends the set-up the parent times.  ``run`` then runs every
item of the manifest in order, one at a time, with spans recorded when
TRACE is 1, and writes one JSON line per item to OUT.jsonl and a summary to
OUT.json.  ``paced`` does the same without spans, but waits for a line on
stdin before each item and prints ``done`` after it, so that the parent
knows which item its speed probes ran beside.  Each record holds the item's
wall time and the CPU time of this thread, which leaves out the time the
parent's probes took on the shared CPU.
"""

import contextlib
import io
import json
import os
import sys
import time

import spans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_qbary():
    """Import qbary from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import qbary.cli

    if not os.path.abspath(qbary.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"qbary imported from {qbary.cli.__file__}, not from {SRC}")
    return qbary.cli


def run_item(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.execute(argv)
    except (Exception, SystemExit) as exc:
        return None, out.getvalue(), f"{type(exc).__name__}: {exc} {err.getvalue()}"
    return rc, out.getvalue(), err.getvalue() or None


def one_pass(cli, items: list[dict], log, recorder, paced: bool) -> float:
    clock, cpu = time.perf_counter, time.thread_time
    start = clock()
    for item in items:
        if paced and sys.stdin.readline() != "go\n":
            sys.exit("parent stopped pacing")
        if recorder:
            recorder.item = item["id"]
        t0, c0 = clock(), cpu()
        rc, out, err = run_item(cli, item["argv"])
        wall, cpu_s = clock() - t0, cpu() - c0
        log.write(json.dumps([item["id"], wall, rc, out, err, cpu_s]) + "\n")
        if paced:
            print("done", flush=True)
    return clock() - start


def peak_rss_mb() -> float:
    """This process's own peak resident memory.  ``ru_maxrss`` would also
    count the parent's, which the kernel carries over into a child at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> None:
    mode, manifest = argv[0], argv[1]
    cli = import_qbary()
    with open(manifest) as fh:
        items = json.load(fh)["items"]
    print("ready", flush=True)
    if mode == "setup":
        return
    out, paced = argv[2], mode == "paced"
    recorder = spans.Recorder() if not paced and argv[3] == "1" else None
    if recorder:
        spans.install(recorder)
    with open(out + ".jsonl", "w") as log:
        summary = {"wall_s": one_pass(cli, items, log, recorder, paced)}
    if recorder:
        summary["spans"] = recorder.spans
    summary["peak_rss_mb"] = peak_rss_mb()
    with open(out + ".json", "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
