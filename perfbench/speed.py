"""A speed probe that puts times taken on a host of changing speed on one scale.

On a shared 2-core host the same pure-Python work ran up to 1.8 times slower
for seconds at a time, in CPU time as much as in wall time, so raw times of
identical runs spread by a quarter.  The probe runs a small fixed kernel from
a ``SIGALRM`` handler every ``PERIOD`` seconds of the run, in the one thread
the benchmark has; it runs the kernel twice and times the second call.  A
measured interval is then given in reference seconds: its length times the
mean, over the samples around it, of ``(NOMINAL_S / kernel time) ** EXPONENT``
(1 on a host where the kernel takes ``NOMINAL_S``).  The workloads slowed more
than the kernel did: fitted over repeated operations, log time grew with log
kernel time at slopes of 1.06-1.26, hence the exponent.  Per pass, workload
time in reference seconds spread by about 5 % where raw time spread by
20-30 %.

The kernel's own time is kept out of every measurement: ``now()`` is a clock
that stops while the handler runs.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD = 0.02  # seconds between two samples of the kernel
NOMINAL_S = 165e-6  # a reference second: the kernel's time when a 2.1 GHz Xeon ran fast
EXPONENT = 1.2  # workload slowdown per kernel slowdown, on a log scale
WINDOW = 0.25  # samples this far outside an interval also describe it
MIN_SAMPLES = 5


def _kernel() -> int:
    """Fixed pure-Python work on integers, so the cyclic GC sees almost none of its allocations."""
    d: dict[int, int] = {}
    for i in range(700):
        k = i * 7919 % 4093
        d[k] = d.get(k, 0) + i
    return sum(sorted(d))


class SpeedProbe:
    """Samples the host's speed while entered; converts work-clock intervals to reference seconds."""

    def __init__(self):
        self.stolen = 0.0  # time spent in the handler, kept off the work clock
        self.times: list[float] = []  # work-clock time of each sample
        self.factor_prefix = [0.0]  # running sum of (NOMINAL_S / kernel time) ** EXPONENT
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        entered = perf_counter()
        _kernel()  # warms what the workload left cold, so that only the host's speed is timed
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append(entered - self.stolen)
        self.factor_prefix.append(self.factor_prefix[-1] + (NOMINAL_S / (t1 - t0)) ** EXPONENT)
        self.stolen += perf_counter() - entered

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Seconds on a clock that does not run while the probe's kernel does."""
        while True:
            stolen = self.stolen
            t = perf_counter()
            if stolen == self.stolen:  # no sample was taken between the two reads
                return t - stolen

    def factor(self) -> float:
        """Mean factor from seconds to reference seconds over every sample so far."""
        return self.factor_prefix[-1] / len(self.times)

    def reference_s(self, start: float, end: float) -> float:
        """The work-clock interval [start, end] in reference seconds.

        The factor is the mean over the samples taken within ``WINDOW`` of the
        interval, and over at least ``MIN_SAMPLES`` of the nearest ones.
        """
        n = len(self.times)
        if n < MIN_SAMPLES:
            raise RuntimeError(f"the speed probe took {n} samples; it needs {MIN_SAMPLES}")
        lo = bisect_left(self.times, start - WINDOW)
        hi = bisect_right(self.times, end + WINDOW)
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return (end - start) * (self.factor_prefix[hi] - self.factor_prefix[lo]) / (hi - lo)
