"""Speed probe: rescale measured seconds to a fixed machine speed.

On a shared machine the same code runs 15-30% slower for tens of seconds at a
time, and CPU time moves with wall time, so neither clock alone is steady.
While a benchmark process works, a timer signal interrupts it every
``INTERVAL_S`` and runs a fixed probe, recording how long the probe took. An
operation's time is then rescaled by ``REF_PROBE_S`` over the level of the
probe durations around it, after removing the probes' own time. The probe is the
benchmark's code, not the program's, so a change to ``macc`` moves the
operation's time and leaves the probe alone.

The probe looks up random nested-tuple keys in a table larger than the CPU
caches. Of the kernels tried (a cache-resident dict loop, big-int XOR,
Fraction arithmetic, this one), it alone slowed down in proportion with the
verifier's engines, place/deliver/decode and big-int decoding (log-log slope
0.9-1.0 in one process). Probe durations have a long upper tail that depends
on what the operation left in the cache just before the probe, so their level
is the mean of the lower quartile and the median. Four sets of ten 20-second
runs (three ``verify-keyed``, one ``verify-keyless``) had spreads (quartile
distance over median) of 0.18, 0.085, 0.20 and 0.35 raw; 0.054, 0.047, 0.056
and 0.072 rescaled by this level; the lower quartile alone gave up to 0.118
and the median alone up to 0.114.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.05
TABLE_SIZE = 40_000
LOOKUPS = 1_500
# Typical probe level on the 2-CPU development machine (Python 3.11.7). It
# only sets the scale: rescaled seconds read about as seconds there.
REF_PROBE_S = 0.00085
# Fewest probes a speed estimate uses; short operations borrow their neighbours'.
MIN_PROBES = 21


def _level(durations) -> float:
    """Mean of the lower quartile and the median."""
    if len(durations) < 2:
        return durations[0]
    q1, q2, _ = statistics.quantiles(durations, n=4)
    return (q1 + q2) / 2


class SpeedProbe:
    """Timer-driven probe samples, taken while the main thread runs other work."""

    def __init__(self) -> None:
        self.table = {((i, i >> 3), (i * 31) & 1023): i for i in range(TABLE_SIZE)}
        keys = list(self.table)
        random.Random(0).shuffle(keys)
        self.keys = tuple(keys[:LOOKUPS])
        self.starts = array("d")
        self.durations = array("d")
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # a handler can be interrupted by the next signal
            return
        self._sampling = True
        table, x = self.table, 0
        t0 = time.perf_counter()
        for k in self.keys:  # builds no containers, so it never triggers a garbage collection
            x ^= table[k]
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run_factor(self) -> float:
        """Scale for the whole run: reference over the level of all probes."""
        return REF_PROBE_S / _level(self.durations)

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: reference over the level of the probes in it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < MIN_PROBES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = min(len(self.starts), lo + MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("no speed probes recorded")
        return REF_PROBE_S / _level(self.durations[lo:hi])

    def busy(self, start: float, end: float) -> float:
        """Seconds of the interval not spent in probes."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])
