"""CPU time scaled to a reference machine speed.

On a shared host the same single-threaded work takes from 1x to 1.9x the CPU
time, depending on what the other tenants of the host run; the slow and fast
states alternate within a tenth of a second. A profiling timer therefore
interrupts the process every ``period`` seconds of CPU and times a fixed
calibration unit. Each measured interval of CPU is scaled by
``REFERENCE_S / unit duration`` averaged over the samples taken in that
interval, and the probe's own time is left out. The result reads as CPU
seconds on a machine where the unit takes ``REFERENCE_S``. Timed between
the pipeline's own steps, the unit takes about 0.5 ms even when the host is
quiet, so scaled figures come out near 0.4 of raw CPU seconds: they compare
runs and commits with each other, not with raw CPU time.

The unit is made of small numpy calls, like the pipeline: measured against
the pipeline's own kernel code, such a unit slows down by 0.85 of the
kernel's slowdown, a pure-Python loop by 0.5 and a BLAS factorization by
0.65.
"""

import signal
import time

import numpy as np

# Duration of one calibration unit run back to back on this machine's
# 2.1 GHz Xeon vCPU (the 5th percentile over 15 s with nothing else running
# in the container; the median was 2.7e-4).
REFERENCE_S = 2.0e-4

_M = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
               [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.0]])


def calibration_unit():
    s = 0.0
    for i in range(40):
        a = np.zeros(4)
        a[1] = i
        s += float((_M @ a).sum())
    for _ in range(20):
        s += float(np.linalg.eigvalsh(_M)[0])
    return s


class SpeedProbe:
    """Samples the machine speed while the process runs."""

    def __init__(self, period=0.02):
        self.period = period
        self.samples = []
        self.busy = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        calibration_unit()
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.busy += d

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        """A point in the run: process CPU, probe time, samples so far."""
        return time.process_time(), self.busy, len(self.samples)

    def seconds(self, start, end):
        """Scaled CPU seconds between two marks.

        An interval too short to hold a sample uses the first sample after
        it; call this once the probe has ticked past ``end``.
        """
        work = (end[0] - start[0]) - (end[1] - start[1])
        window = (self.samples[start[2]:end[2]]
                  or self.samples[end[2]:end[2] + 1])
        if not window:
            self._tick()
            window = self.samples[-1:]
        return work * REFERENCE_S * sum(1.0 / d for d in window) / len(window)


class RawCpu:
    """Unscaled process CPU time, with the interface of SpeedProbe."""

    def start(self):
        pass

    def stop(self):
        pass

    @staticmethod
    def mark():
        return time.process_time(), 0.0, 0

    @staticmethod
    def seconds(start, end):
        return end[0] - start[0]
