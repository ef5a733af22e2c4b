"""Machine-speed normalisation of measured times.

The benchmark runs on shared virtual machines.  There, the same work in the
same process runs at one of two speeds, switching every 0.1 to 2 seconds,
and the share of time spent at the slow one (about 1.7 times slower) drifts
from under 20% to over 80% over tens of minutes.  Raw wall-clock figures
then differ by more than a benchmark bound between two sets of runs of the
same code.

So a fixed pure-Python probe (integer arithmetic, tuple building and
dictionary updates, like the package's inner loops, but independent of it)
is timed every ``PROBE_EVERY_S`` seconds from a timer signal, also while an
op runs; its time is taken out of the op's.  Each op time is multiplied by
``REF_PROBE_S`` over the mean probe time from ``WINDOW_S`` seconds before
the op to ``WINDOW_S`` seconds after it: the mean speed of the machine
around and during the op.  The result is seconds at a reference speed:
where the probe takes ``REF_PROBE_S`` (the fast state of the 2-vCPU x86-64
VM with Python 3.11 where the benchmark was written), scaled and wall-clock
times agree.  The
package cannot change the probe, so a faster program still shows as faster;
the wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

REF_PROBE_S = 0.0019
PROBE_EVERY_S = 0.2
WINDOW_S = 2.0


def _probe_work():
    acc = 0
    seen = {}
    rows = [tuple((i * j + k) % 7 for k in range(8))
            for i in range(8) for j in range(4)]
    for r in range(80):
        for row in rows:
            t = tuple((x * 3 + r) % 7 for x in row)
            seen[t] = seen.get(t, 0) + 1
            acc = (acc + sum(t)) % 1000003
    return acc, len(seen)


def probe():
    """(time taken at, seconds) of one run of the fixed probe."""
    t0 = time.perf_counter()
    _probe_work()
    t1 = time.perf_counter()
    return (t0 + t1) / 2.0, t1 - t0


class SpeedLog:
    """The probe, timed every PROBE_EVERY_S seconds of wall clock from a
    timer signal, also in the middle of a long op, and the op intervals to
    scale.  Probe time inside an op is taken out of the op's time."""

    def __init__(self):
        self._probes = []       # (midpoint, seconds)
        self._in_probes = 0.0   # total seconds spent probing so far
        self._intervals = []    # (start, end, seconds, sink)
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._on_timer()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _on_timer(self, *_):
        at, seconds = probe()
        self._probes.append((at, seconds))
        self._in_probes += seconds

    def probing_seconds(self):
        """Seconds spent probing so far; the difference across an op is
        the probe time inside it."""
        return self._in_probes

    def add(self, start, end, seconds, sink):
        """Record an op that ran from start to end and took `seconds` of
        its own; finish() calls sink(scaled seconds)."""
        self._intervals.append((start, end, seconds, sink))

    def current_factor(self):
        """REF_PROBE_S over the mean of the latest probes; for deciding
        when a run has done enough work, before finish()."""
        recent = [s for _, s in self._probes[-10:]]
        return REF_PROBE_S * len(recent) / sum(recent)

    def finish(self):
        """Stop probing, and scale every op by the mean of the probes from
        WINDOW_S before it starts to WINDOW_S after it ends.  Returns
        REF_PROBE_S over the mean of all probes, to scale work that was not
        recorded as an op (set-up)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_timer()
        times = [at for at, _ in self._probes]
        prefix = [0.0]
        for _, s in self._probes:
            prefix.append(prefix[-1] + s)
        for start, end, seconds, sink in self._intervals:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, end + WINDOW_S)
            if hi == lo:         # no probe near: a late timer signal
                lo, hi = max(0, lo - 1), min(len(times), lo + 1)
            mean = (prefix[hi] - prefix[lo]) / (hi - lo)
            sink(seconds * REF_PROBE_S / mean)
        self._intervals = []
        return REF_PROBE_S * len(self._probes) / prefix[-1]
