"""Timing loop, output bookkeeping and metrics of one benchmark run.

``run.py`` parses the arguments and times ``import treeot``; everything
after that happens here (see ``run.py`` for the protocol).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from oracle import CheckFailed, fingerprint
from workloads import WORKLOADS

MIN_OPS = 100          # so that at least 10 samples lie beyond the p90
SETUP_REPEATS = 3      # setup_s is the median of this many set-ups

# A fresh interpreter that imports what run.py (and pace.py) import before
# treeot, then times `import treeot` and prints the seconds.
IMPORT_CHILD = (
    "import argparse, bisect, math, os, sys, time; from pathlib import Path; "
    "sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import treeot; print(time.perf_counter() - t0)"
)

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Outputs:
    """First output of every distinct operation, and the digest that every
    repeat must reproduce."""

    def __init__(self):
        self.first: dict = {}
        self.digest: dict = {}
        self.mismatches: list[str] = []

    def record(self, key, out) -> None:
        digest = fingerprint(out)
        if key not in self.digest:
            self.first[key] = out
            self.digest[key] = digest
        elif digest != self.digest[key]:
            self.mismatches.append(f"operation {key!r} gave different output on a repeat")


def run_round(ops, outputs, latencies, tracer=None, extra=None, clock=None) -> int:
    """Run every operation once, appending latencies; returns the number of
    operations that raised.  With a `clock`, each latency is appended as
    (seconds, stamp of the kernel sample taken just before it)."""
    failed = 0
    for key, fn in ops:
        gc.collect()
        stamp = clock.sample() if clock else None
        with tracer.operation() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                sys.stderr.write(f"operation {key!r} failed:\n{traceback.format_exc()}")
                continue
            seconds = time.perf_counter() - t0
            latencies.append((seconds, stamp) if clock else seconds)
            side = extra(key) if extra else None
        outputs.record(key, out)
        if side is not None:
            outputs.record(key, side)
    return failed


def run_rounds(current_ops, seconds, outputs, set_up, clock):
    """Whole rounds of `current_ops()` until `seconds` have passed and
    MIN_OPS operations ran.  After the first round that ends past
    k/SETUP_REPEATS of the seconds, `set_up()` runs once, for
    k = 1 .. SETUP_REPEATS-1, and its time is added to the deadline.  Spread
    so, the set-ups meet the host's drift, which stays in one state for tens
    of seconds, as the operations do, not at one moment only.  Set-ups still
    due when the loop ends, because rounds are long, run after it."""
    latencies: list[tuple[float, float]] = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    marks = [start + seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    while time.perf_counter() < deadline or len(latencies) + failed < MIN_OPS:
        failed += run_round(current_ops(), outputs, latencies, clock=clock)
        if marks and time.perf_counter() >= marks[0]:
            t0 = time.perf_counter()
            set_up()
            pause = time.perf_counter() - t0
            deadline += pause
            marks = [m + pause for m in marks[1:]]
    for _ in marks:
        set_up()
    return latencies, failed


def run_traced(wl, treeot, seconds, outputs):
    """Alternate untraced and traced rounds (at least one of each) until
    `seconds` have passed, so that drift hits both alike."""
    from spans import Tracer, span_costs

    plain: list[float] = []
    traced: list[float] = []
    failed = 0
    tracer = Tracer(span_costs())
    extra = getattr(wl, "traced_extra", None)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        failed += run_round(wl.ops, outputs, plain)
        with tracer.installed(treeot):
            failed += run_round(wl.ops, outputs, traced, tracer,
                                extra and (lambda key: extra(key, tracer)))
    return plain, traced, failed, tracer


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_import_s(src: Path) -> float:
    """`import treeot` timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def build(args, treeot, workdir: Path):
    """Build the workload's inputs and run one untimed warm-up operation;
    returns the workload and the seconds it took."""
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](treeot, args.seed, workdir)
    wl.build()
    wl.ops[0][1]()
    return wl, time.perf_counter() - t0


def run(args, treeot, import_s: float, clock, root: Path) -> int:
    """Set up, time, check and print the result line; returns the exit code.
    `clock` (a ``pace.Pace``) holds the kernel sample taken before the
    import."""
    runs = root / ".bench_run"
    workdir = runs / f"{args.workload}-{os.getpid()}"
    src = Path(treeot.__file__).resolve().parent.parent
    try:
        wl, build_s = build(args, treeot, workdir)
        setups = [(import_s + build_s, clock.stamps[0])]
        clock.sample()

        def set_up_again():
            # The inputs are dropped before they are built again, so that
            # peak_rss_mb still holds one set of them.  The rebuilt
            # operations must reproduce the first outputs bit for bit.
            nonlocal wl
            wl = None
            gc.collect()
            stamp = clock.sample()
            import_again = child_import_s(src)
            wl, build_again = build(args, treeot, workdir)
            setups.append((import_again + build_again, stamp))
            clock.sample()

        outputs = Outputs()
        if args.trace:
            from spans import LAYERS

            plain, traced, failed, tracer = run_traced(wl, treeot, args.seconds, outputs)
            attempted = len(plain) + len(traced) + failed
            overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
            medians = tracer.medians()
            runs.mkdir(exist_ok=True)
            trace_file = runs / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_file, {
                "workload": args.workload, "seed": args.seed,
                "untraced_mean_s": statistics.fmean(plain),
                "traced_mean_s": statistics.fmean(traced),
                "overhead": overhead, "per_layer": medians,
            })
            print(json.dumps({"trace_overhead": overhead, "untraced_ops": len(plain),
                              "traced_ops": len(traced), "spans": len(tracer.start),
                              "span_cost_ns": tracer.costs,
                              "trace_file": str(trace_file.relative_to(root))}))
            metrics = {name: {"value": medians[name], "unit": unit} for name, unit, *_ in LAYERS}
        else:
            timed, failed = run_rounds(lambda: wl.ops, args.seconds, outputs, set_up_again, clock)
            attempted = len(timed) + failed
            latencies = [clock.scale(t, stamp) for t, stamp in timed]
            raw = [t for t, _ in timed]
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            values = {
                "ops_per_s": len(latencies) / math.fsum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_p90_s": percentile(latencies, 0.9),
                "setup_s": statistics.median(clock.scale(t, stamp) for t, stamp in setups),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            print(json.dumps({"host_speed": clock.speed(), "unnormalized": {
                "ops_per_s": len(raw) / math.fsum(raw),
                "latency_p50_s": statistics.median(raw),
                "latency_p90_s": percentile(raw, 0.9),
                "setup_s": statistics.median(t for t, _ in setups),
            }}))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

        problems = list(outputs.mismatches)
        for key, out in outputs.first.items():
            try:
                wl.check(key, out)
            except CheckFailed as err:
                problems.append(f"check failed for {key!r}: {err}")
        for p in problems:
            sys.stderr.write(p + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1

