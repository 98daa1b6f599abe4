"""Run a set of benchmark runs, one fresh process per (workload, seed), and
summarize each end-to-end metric by its median, quartiles and spread.

    python3 bench/sets.py --workloads w2_solve,certify,tree_scale,cli \
        --seeds 1-10 --seconds 10 --out .bench_run/set-a.json
    python3 bench/sets.py --compare .bench_run/set-a.json .bench_run/set-b.json

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run_set(workloads, seed_list, seconds) -> dict:
    result = {}
    for workload in workloads:
        rows = []
        for seed in seed_list:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}\n")
                continue
            row = json.loads(lines[-1])
            row.update(seed=seed, wall_s=wall)
            if len(lines) > 1 and lines[-2].startswith('{"host_speed"'):
                row.update(json.loads(lines[-2]))
            rows.append(row)
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {row['attempted']}, "
                  f"failed {row['failed']}, correct {row['correct']}", flush=True)
        metrics = {
            name: summary([r["metrics"][name]["value"] for r in rows])
            for name in (rows[0]["metrics"] if len(rows) > 1 else {})
        }
        raw = {
            name: summary([r["unnormalized"][name] for r in rows])
            for name in (rows[0].get("unnormalized", {}) if len(rows) > 1 else {})
        }
        if raw:
            raw["host_speed"] = summary([r["host_speed"] for r in rows])
        result[workload] = {"runs": rows, "metrics": metrics, "unnormalized": raw}
    return result


def report(result: dict) -> None:
    for workload, data in result.items():
        print(f"== {workload}")
        for label, table in (("", data["metrics"]), ("unnormalized ", data.get("unnormalized", {}))):
            for name, s in table.items():
                print(f"   {label + name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")


def compare(a: dict, b: dict) -> None:
    for workload in a:
        if workload not in b:
            continue
        print(f"== {workload}")
        for name, sa in a[workload]["metrics"].items():
            sb = b[workload]["metrics"].get(name)
            if sb:
                change = sb["median"] / sa["median"] - 1.0
                print(f"   {name:32s} {sa['median']:.6g} -> {sb['median']:.6g}  "
                      f"({change:+.2%}; spreads {sa['spread']:.3f}, {sb['spread']:.3f})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="w2_solve,certify,tree_scale,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    args = ap.parse_args()
    if args.compare:
        compare(*(json.loads(Path(p).read_text()) for p in args.compare))
        return 0
    result = run_set(args.workloads.split(","), seeds(args.seeds), args.seconds)
    report(result)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
