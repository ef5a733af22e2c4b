"""One benchmark process: set up a workload, run it, check the answers.

Started by ``run.py``; not meant to be run by hand.  The process measures
its own set-up time from the moment its parent spawned it (``--spawned-at``,
a ``time.monotonic()`` reading, which is system-wide on Linux), so set-up
includes interpreter start, the package import and input generation.

With ``--setup-only`` it stops after set-up.  Otherwise it runs whole rounds
of ops until ``--seconds`` of op time at reference speed (see ``speed.py``)
have passed and at least ``MIN_OPS`` ops are done, then checks the answers
outside the timed region.  With ``--trace 1`` it runs half that untraced
and half traced, each from the start of the op sequence, and reports
per-layer metrics and the tracing overhead.  The last line of standard output is a
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pradical  # noqa: E402  (needs the paths above)
import speed  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(pradical.__file__).startswith(
        os.path.join(ROOT, "src", "")):
    sys.exit("pradical was imported from %s, not from this checkout"
             % pradical.__file__)

MIN_OPS = 100      # p90 with at least 10 samples beyond it
DIGEST_OPS = 100   # the answer digest covers this prefix of the op sequence


@dataclass
class Record:
    key: object
    wall_s: float = 0.0
    scaled_s: float = 0.0     # at reference speed; set by SpeedLog.finish()
    answer: object = None
    error: str | None = None

    def set_scaled(self, seconds):
        self.scaled_s = seconds


def _execute(workload, op, speed_log, tracer):
    call = op.prepare()
    if tracer is not None:
        tracer.begin_op()
    probing = speed_log.probing_seconds()
    t0 = time.perf_counter()
    try:
        result = call()
        error = None
    except Exception as exc:  # an op that raises is a failed op
        error = "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op(t1 - t0)   # wall clock, like the spans inside the op
    seconds = t1 - t0 - (speed_log.probing_seconds() - probing)
    rec = Record(op.key, seconds, error=error)
    speed_log.add(t0, t1, seconds, rec.set_scaled)
    if error is None:
        try:
            rec.answer = workload.answer(op.key, result)
        except Exception as exc:
            rec.error = "answer: %s: %s" % (type(exc).__name__, exc)
    return rec


def run_ops(workload, budget_s, min_ops, tracer=None):
    """Whole rounds of ops until budget_s of op time at reference speed
    has passed and min_ops are done."""
    records = []
    gc.collect()
    speed_log = speed.SpeedLog()
    elapsed = 0.0
    for ops in workload.rounds():
        for op in ops:
            records.append(_execute(workload, op, speed_log, tracer))
            elapsed += records[-1].wall_s * speed_log.current_factor()
        if elapsed >= budget_s and len(records) >= min_ops:
            break
    speed_log.finish()
    return records


def digest(records):
    h = hashlib.sha256()
    for rec in records[:DIGEST_OPS]:
        h.update((rec.error or rec.answer.text).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16], min(len(records), DIGEST_OPS)


def end_to_end(records, failed, wall=False):
    n = len(records)
    lat = [r.wall_s if wall else r.scaled_s for r in records]
    ms = sorted(1000.0 * x for x in lat)
    undecided = sum(1 for r in records if r.answer and r.answer.undecided)
    return {
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_ms_p50": (statistics.median(ms), "ms", n),
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8],
                      "ms", n),
        "ok_ratio": ((n - failed) / n, "ratio", n),
        "certified_ratio": ((n - undecided) / n, "ratio", n),
    }


def check(workload, records):
    """Failed ops: raised, or a wrong or less exact answer."""
    bad, checked = workload.check(records)
    for n, rec in enumerate(records):
        if rec.error is not None:
            bad[n] = rec.error
    return bad, checked


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    workload = workloads.WORKLOADS[args.workload]()
    speed_log = speed.SpeedLog()
    workload.setup(args.seed, workdir)
    setup_wall_s = (time.monotonic() - args.spawned_at
                    - speed_log.probing_seconds())
    out = {"setup_s": setup_wall_s * speed_log.finish(),
           "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        from tracer import Tracer, package_bindings
        plain = run_ops(workload, args.seconds / 2.0, 1)
        tracer = Tracer()
        originals = package_bindings()
        tracer.install()
        try:
            traced = run_ops(workload, args.seconds / 2.0, 1, tracer)
        finally:
            tracer.uninstall()
        restored = package_bindings() == originals
        records = plain + traced
    else:
        records = run_ops(workload, args.seconds, MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad, checked = check(workload, records)
    lines = ["%s: %d ops, %d checked, %d failed"
             % (args.workload, len(records), checked, len(bad))]
    lines += ["  FAILED op %d: %s" % (n, bad[n]) for n in sorted(bad)[:20]]
    dig, covered = digest(records)
    lines.append("answer_digest %s (first %d ops, seed %d)"
                 % (dig, covered, args.seed))
    out.update(attempted=len(records), failed=len(bad), correct=not bad)

    if args.trace:
        ops_plain = end_to_end(plain, 0)["ops_per_s"][0]
        ops_traced = end_to_end(traced, 0)["ops_per_s"][0]
        metrics = {k: (v, unit, len(traced))
                   for k, (v, unit) in tracer.metrics().items()}
        metrics["survey.enumerate_s"] = (workload.enumerate_s, "s", 1)
        metrics["survey.oracle_s"] = (workload.oracle_s, "s", 1)
        metrics["trace.overhead"] = (ops_plain / ops_traced, "x",
                                     len(traced))
        lines.append("tracing overhead: %.1f ops/s untraced (%d ops), "
                     "%.1f ops/s traced (%d ops)"
                     % (ops_plain, len(plain), ops_traced, len(traced)))
        if not restored:
            lines.append("  FAILED: the tracer left package bindings changed")
            out["correct"] = False
        path = os.path.join(ROOT, ".bench_work", "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "traced_ops": len(traced),
                           "traced_op_seconds": tracer.op_seconds})
        lines.append("trace written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(records, len(bad))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        out["wall"] = {name: value for name, (value, _, _) in
                       end_to_end(records, len(bad), wall=True).items()
                       if name.startswith("op")}
    out["metrics"] = metrics
    out["lines"] = lines
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
