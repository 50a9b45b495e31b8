"""Host-rate sampler: rescale a wall time to a fixed host speed.

On a shared host the speed of the CPU this process gets drifts by tens of
percent within a minute, and process CPU time drifts with wall time, so the
change is in how fast the host runs this code, not in scheduling.  While a
``HostRate`` is active, a wall-clock timer interrupts the measured code every
``PERIOD_S`` and runs a fixed reference kernel (small numpy evaluations in a
Python loop, the same mix as a polynomial evaluation in morseflow).  The mean
kernel time over the run is the host's rate during it.  The interruptions are
timed and subtracted from the measured wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
REF_S = 0.005  # the unit: a host on which one kernel run takes 5 ms
_X = np.array([0.3, 0.2, 0.1])
_E = np.array([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
_C = np.array([1.0, -1.0, 0.5])


def reference_kernel(n: int = 600) -> float:
    s = 0.0
    for _ in range(n):
        s += float(np.prod(_X ** _E, axis=1) @ _C)
    return s


def kernel_s() -> float:
    """Wall time of one reference kernel run."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class HostRate:
    """Samples the reference kernel on a timer while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the samples took away from the measured code

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, seconds: float) -> float:
        """``seconds`` of work rescaled to a host on which the kernel takes REF_S."""
        samples = self.samples or [kernel_s()]  # a block shorter than PERIOD_S
        return seconds * REF_S / statistics.fmean(samples)
