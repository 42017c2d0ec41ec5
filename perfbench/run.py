"""Layered benchmark of minimaxlb: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload figure_sweep --seed 0 --seconds 10 --trace 0

The client is one process and one thread; it issues the next item only after
the previous one returns.  A run repeats full passes over the workload's
items until ``--seconds`` have passed, and always completes at least one
pass (time to solution), so every item has the same number of samples.
Every execution of an item is checked for correctness and compared byte for
byte with the item's first output.

Item times are reported at a reference speed.  A fixed reference chunk is
timed between every two executions, and each execution's seconds are scaled
by ``REF_S / (median of the six chunks around it)``.  A change to minimaxlb
moves the execution and not the chunk; a slower host moves both.  The raw
wall_s is printed in the report lines.  ``setup_s`` is not scaled: it is
mostly imports, whose time does not follow the chunk's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one pass in
which each item runs untraced and then traced (see ``tracer.py``) and prints
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# A fresh interpreter imports minimaxlb and completes the workload's first
# call; it reports the seconds from just before the import to the return.
SETUP_PROBE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minimaxlb, minimaxlb.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = minimaxlb.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - t0}))
"""

# On a shared host the core itself runs up to a third slower for seconds to
# minutes at a time, and CPU time slows with it.  A fixed chunk of scalar float
# work, timed next to an execution, tells how fast the host ran then.
REF_ITERS = 12_000
REF_S = 0.003   # nominal seconds of one reference chunk (2-core x86-64 sandbox)


def reference_seconds() -> float:
    """Time one fixed chunk of scalar float work, the kind minimaxlb does."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, REF_ITERS + 1):
        x = i * 1e-4
        s += math.exp(-0.5 * x * x) * math.sin(x) + math.sqrt(x)
    return time.perf_counter() - t0


class ReferenceClock:
    """Reference chunks timed between executions.

    ``mark()`` times one chunk and returns its index.  An execution that
    ran between marks ``k - 1`` and ``k`` is scaled by the median of the
    chunks ``k - 3 .. k + 2``, so a single interrupted chunk does not skew it.
    """

    def __init__(self):
        for _ in range(3):
            reference_seconds()       # warm-up
        self.samples = []

    def mark(self) -> int:
        self.samples.append(reference_seconds())
        return len(self.samples) - 1

    def scaled(self, seconds: float, k: int) -> float:
        window = self.samples[max(0, k - 3):k + 3]
        return seconds * REF_S / statistics.median(window)


def import_program():
    """Import minimaxlb from this checkout's src/, never from elsewhere."""
    if not (SRC / "minimaxlb" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'minimaxlb'}")
    sys.path.insert(0, str(SRC))
    import minimaxlb
    import minimaxlb.cli  # noqa: F401
    if Path(minimaxlb.__file__).resolve().parent != (SRC / "minimaxlb").resolve():
        raise SystemExit(f"error: minimaxlb was imported from {minimaxlb.__file__}")


def environment() -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def items_digest(items) -> str:
    return hashlib.sha256(json.dumps([list(i.key) for i in items]).encode()).hexdigest()


def setup_seconds(argv, runs: int) -> list:
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(list(argv))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["rc"] != 0:
            raise SystemExit(f"error: setup probe {argv} exited with {probe['rc']}")
        samples.append(probe["seconds"])
    return samples


class Outcomes:
    """Checks each execution and remembers each item's first output."""

    def __init__(self, items):
        self.items = items
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, i: int, traced=None):
        """Run item i (under ``traced`` when given); return (seconds, output)."""
        with traced or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = self.items[i].run()
            except Exception as exc:  # an item that raises is a failed item, not a crash
                out = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        return dt, out

    def record(self, i: int, out: str) -> None:
        self.attempted += 1
        try:
            problems = self.items[i].check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"output not parseable: {type(exc).__name__}: {exc}"]
        first = self.first.setdefault(i, out)
        if out != first:
            problems = problems + ["output differs from the item's first output"]
        if problems:
            self.failed += 1
            self.problems.append((" ".join(self.items[i].key)[:120], problems[:3]))


def run_timed(items, seconds: float, setup_argv, setup_runs: int) -> tuple:
    setup = setup_seconds(setup_argv, setup_runs) if setup_runs else []
    clock = ReferenceClock()
    outcomes = Outcomes(items)
    _, warm = outcomes.execute(0)          # warm-up; also item 0's first output
    outcomes.record(0, warm)
    timed = [[] for _ in items]            # (raw seconds, reference mark after)
    clock.mark()
    start, passes = time.perf_counter(), 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for i in range(len(items)):
            dt, out = outcomes.execute(i)
            timed[i].append((dt, clock.mark()))
            outcomes.record(i, out)
        passes += 1
    latencies = [[clock.scaled(dt, k) for dt, k in per_item] for per_item in timed]
    samples = sorted(dt for per_item in latencies for dt in per_item)
    metrics = {
        "setup_s": (statistics.median(setup) if setup else None, "s"),
        "wall_s": (sum(statistics.median(per_item) for per_item in latencies), "s"),
        "item_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (outcomes.failed / outcomes.attempted, "ratio"),
    }
    notes = [f"samples={len(samples)} passes={passes} setup_runs={len(setup)}",
             f"raw seconds: wall_s={sum(statistics.median(dt for dt, _ in t) for t in timed)!r}",
             f"reference chunk: median={statistics.median(clock.samples)!r} s "
             f"min={min(clock.samples)!r} s max={max(clock.samples)!r} s REF_S={REF_S!r}"]
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[-1]
        above = sum(1 for s in samples if s > p90)
        if above >= 10:
            metrics["item_p90_ms"] = (1e3 * p90, "ms")
        else:
            notes.append(f"item_p90_ms omitted: {above} samples above the 90th "
                         "percentile (< 10)")
    return metrics, outcomes, notes


def run_traced(items) -> tuple:
    outcomes = Outcomes(items)
    _, warm = outcomes.execute(0)
    outcomes.record(0, warm)
    trace = tracer.Tracer()
    untraced = traced = 0.0
    for i in range(len(items)):
        dt, out = outcomes.execute(i)
        untraced += dt
        outcomes.record(i, out)
        dt, out = outcomes.execute(i, traced=trace)
        traced += dt
        outcomes.record(i, out)
    metrics = {name: (trace.value(*name.rsplit(".", 1)), unit)
               for name, unit in tracer.metric_names()}
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, outcomes, [f"untraced wall_s={untraced!r} traced wall_s={traced!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="run only the first LIMIT items (smoke tests)")
    parser.add_argument("--setup-runs", type=int, default=9,
                        help="fresh interpreters timed for setup_s")
    args = parser.parse_args(argv)

    import_program()
    items = workloads.build(args.workload, args.seed)[:args.limit or None]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} items={len(items)} items_sha256={items_digest(items)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print("# client: closed loop, 1 process, 1 thread")

    if args.trace:
        metrics, outcomes, notes = run_traced(items)
    else:
        # set-up always times the seed-0 first call, so it does not vary by seed
        setup_argv = workloads.build(args.workload, 0)[0].key
        metrics, outcomes, notes = run_timed(items, args.seconds, setup_argv, args.setup_runs)
    for note in notes:
        print(f"# {note}")
    for item_key, problems in outcomes.problems[:20]:
        print(f"# FAILED {item_key}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {'absent' if value is None else repr(value)} {unit}")

    # The JSON carries every metric named in BENCHMARK.json; an absent
    # per-layer metric reads 0 there and "absent" in the line above.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name][0] or 0, "unit": metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
