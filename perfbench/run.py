"""pradical benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {survey,certify,hopf} --seed N
                             --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

With ``--trace 0`` it starts three worker processes one after another.  Each
sets the workload up from the seed; the first two stop there and the last
one also runs the timed ops and checks every answer.  ``setup_s`` is the
median of the three set-up times.  Times are seconds at a reference machine
speed (see ``speed.py``).  It prints each end-to-end metric with its unit
and sample count, the same figures in wall-clock time, then, as the last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` one worker runs the ops half untraced and half traced and
the metrics are the per-layer ones (see ``tracer.py``).  The process exits
non-zero, without a result line, if a worker fails, and with code 1 after
the result line if any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("survey", "certify", "hopf")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


def _spawn(args, setup_only):
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--spawned-at", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setups = []
    if not args.trace:
        setups = [_spawn(args, True) for _ in range(SETUP_SAMPLES - 1)]
    out = _spawn(args, False)
    setups.append(out)
    metrics = out["metrics"]
    wall = out.get("wall", {})
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups),
                              "s", len(setups))
        wall["setup_s"] = statistics.median(s["setup_wall_s"] for s in setups)

    for line in out["lines"]:
        print(line)
    for name, (value, unit, n) in metrics.items():
        print("%-40s %14.6g %-9s n=%d" % (name, value, unit, n))
    for name, value in wall.items():
        print("wall-clock %-29s %14.6g" % (name, value))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, n) in metrics.items()},
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
