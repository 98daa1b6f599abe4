"""Run one treeot benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload w2_solve --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each operation starts when the
previous one has ended.  The runner pins itself to one CPU, imports
treeot from ``src/`` of the checkout it sits in, builds the workload's
inputs from the seed, runs one untimed warm-up operation, then repeats
whole rounds of the workload's operations for ``--seconds`` (and at least
MIN_OPS operations), collecting the heap between operations outside the
timer.  Between rounds, at evenly
spaced times, the set-up is made again (``import treeot`` in a fresh
interpreter, build, warm-up); ``setup_s`` is the median of all set-ups.
Every operation and every set-up is timed next to samples of a fixed
reference kernel, and its time is reported at the kernel's reference speed
(see ``pace``), so that the host's drift in speed cancels.  After timing, the
output of every distinct operation is checked by ``oracle`` and every
repeat must have produced the same bytes.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced rounds alternate with rounds that run with spans
around the library's functions (see ``spans``), and the last line carries
the per-layer metrics, after a line reporting the tracing overhead.  The
spans go to ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# The harness is imported after treeot, so that the import time of the first
# set-up includes the standard modules treeot pulls in.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("w2_solve", "certify", "tree_scale", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "treeot" / "__init__.py").is_file():
        sys.stderr.write(f"no treeot sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    from pace import Pace, pin

    pin()
    clock = Pace()
    clock.sample()
    t0 = time.perf_counter()
    import treeot
    import_s = time.perf_counter() - t0
    if Path(treeot.__file__).resolve().parent != SRC / "treeot":
        sys.stderr.write(f"imported treeot from {treeot.__file__}, not {SRC}\n")
        return 2

    import harness

    return harness.run(args, treeot, import_s, clock, ROOT)


if __name__ == "__main__":
    sys.exit(main())
