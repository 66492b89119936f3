"""Host speed, sampled while a measurement runs.

The machines this benchmark runs on are shared.  Their speed drifts by tens
of percent from minute to minute, and for seconds at a time other tenants
halve it.  A timing taken alone therefore says as much about the neighbours
as about the code.

`SpeedGauge` interleaves a fixed pure-Python kernel with the measured code:
a SIGALRM timer fires every INTERVAL_S, and the handler, which runs between
two bytecodes of the main thread, times one kernel call.  For any interval
of the run, `scaled` takes the interval's wall time, removes the time the
handler spent inside it, and rescales the rest by REFERENCE_S over the mean
kernel time measured during it.  The result reads as the time the code
would have taken at the reference speed.  Only the main thread is touched;
no other thread or process is started.
"""
from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02        # time between kernel calls
KERNEL_STEPS = 2500      # about 0.4 ms per call on an unloaded host
REFERENCE_S = 0.0004     # kernel time that defines the reference speed
MIN_SAMPLES = 20         # fewest kernel calls one interval is scaled by


def kernel() -> float:
    """Fixed work: Python arithmetic, list indexing and math calls."""
    s = 0.0
    v = [0.5] * 16
    for i in range(KERNEL_STEPS):
        x = v[i & 15] * 1.0001 + math.sin(s)
        v[i & 15] = x - math.floor(x)
        s += x * 1e-3
    return s


class SpeedGauge:
    """Context manager that samples the kernel every INTERVAL_S."""

    def __init__(self):
        self.starts = []     # perf_counter at each kernel call
        self.times = []      # duration of each kernel call
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Time spent in [t0, t1] outside the gauge, at the reference speed.

        The speed is the mean kernel time over the calls inside the interval,
        or over the MIN_SAMPLES calls nearest its middle when it holds fewer.
        """
        inside = [k for k, s in enumerate(self.starts) if t0 <= s < t1]
        net = (t1 - t0) - sum(self.times[k] for k in inside)
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            inside = sorted(range(len(self.starts)),
                            key=lambda k: abs(self.starts[k] - mid))[:MIN_SAMPLES]
        if not inside:
            return net
        return net * REFERENCE_S / statistics.fmean(self.times[k] for k in inside)

    def mean_kernel_s(self) -> float:
        return statistics.fmean(self.times) if self.times else 0.0
