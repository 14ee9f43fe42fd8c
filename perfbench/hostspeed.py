"""A fixed piece of work, timed between ops, that follows the host's speed.

The shared host this benchmark was tuned on runs the same code up to 1.8x
slower in stretches that last from seconds to whole minutes, as other
tenants load the cores it shares; a run of 40 s can sit wholly in a slow
stretch.  No statistic over one run's own timings can remove that, so the
worker times this probe between consecutive ops and, on an interval timer,
while an op runs; each op's time is scaled by REFERENCE_S over the mean of
the probes around and during it.  Times are reported in seconds at the
host speed at which the probe takes REFERENCE_S.  The probe never calls
the package, so a change to the package cannot change the scale.  Its mix
(tuple and dict work in the interpreter; tuples turned into numpy arrays,
fancy-indexed and compared) is the package's own.
"""

from __future__ import annotations

import random
import signal
from statistics import mean
from time import perf_counter

import numpy as np

# A round figure: on the 2-vCPU Intel Xeon VM the benchmark was tuned on,
# the probe took about 0.5 ms in fast stretches and 0.9 ms in slow ones.
REFERENCE_S = 1.0e-3
REPEATS = 3  # the probe's time is the fastest of these, to drop interrupts
SAMPLE_INTERVAL_S = 0.25  # the timer's period while an op runs

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(60), 60)) for _ in range(24)]


def _work():
    acc = 0
    for k, p in enumerate(_PERMS[:16]):
        q = _PERMS[acc % 16]
        r = tuple(p[i] for i in q)
        acc += len({x: i for i, x in enumerate(r) if x & 1})
        a = np.array(_PERMS[k:k + 8], dtype=np.int64)
        acc += int((a[:, q] == a[:, r]).all(axis=1).sum())
    return acc


def probe():
    """Seconds the fixed work takes now: the fastest of REPEATS timings."""
    best = float("inf")
    for _ in range(REPEATS):
        t = perf_counter()
        _work()
        best = min(best, perf_counter() - t)
    return best


class Sampler:
    """Times the probe every SAMPLE_INTERVAL_S while ops run, so that an op
    of many seconds is scaled by the host's speed during it, not only at
    its two ends.  The SIGALRM handler runs in the main thread between
    bytecodes; the time it takes is taken off the op it interrupted.

        with Sampler() as sampler:
            before = probe()
            start = perf_counter(); op(); end = perf_counter()
            after = probe()
            seconds = sampler.scaled(start, end, before, after)
    """

    def __enter__(self):
        self.samples = []  # (start, end, probe seconds)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _sample(self, signum, frame):
        start = perf_counter()
        p = probe()
        self.samples.append((start, perf_counter(), p))

    def scaled(self, start, end, before, after):
        """Reference seconds of an op timed from ``start`` to ``end``, with
        ``before`` and ``after`` the probes taken on either side of it."""
        during = [s for s in self.samples if start <= s[0] < end]
        self.samples = [s for s in self.samples if s[0] >= end]
        busy = end - start - sum(e - b for b, e, _ in during)
        return busy * REFERENCE_S / mean([before, after, *(p for _, _, p in during)])
