"""The machine's speed while a job runs, and job times scaled to a reference speed.

On a shared virtual machine the CPU can run at two speeds about 1.5x apart
and switch between them within a second or stay at one for tens of seconds;
CPU time slows as much as wall time, and pure-Python and numpy code slow
alike.  A run of a few jobs then reads fast or slow by chance.

``SpeedProbe`` samples the speed during a job: before it, every
``interval_s`` while it runs (a real-time interval timer interrupts the job
between bytecodes) and after it, it times ``_loop``, a fixed integer-only
Python loop run once untimed first so that it is warm.  ``scale()`` is
``REFERENCE_S`` over the mean loop time (outliers left out), so wall time
times scale is the time the job would take at the reference speed.  The
loop is the benchmark's own code: a change to the program moves the job's
time, not the loop's.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 3.1e-5
"_loop's time at the fast speed of a 2-vCPU Intel Xeon virtual machine, CPython 3.11.7."
# Samples above OUTLIER times the median are dropped: the two speeds are
# about 1.5x apart, and a sample an interrupt lands in reads many times longer.
OUTLIER = 2.0


def _loop() -> int:
    # Integers only: CPython's float arithmetic runs about three times slower
    # while a vector kernel has left the upper halves of the vector registers
    # dirty (the spectrum jobs do), and the loop must time the machine, not
    # the state the program leaves the CPU in.
    s = 0
    for i in range(300):
        s += (i * 7) ^ (s >> 3)
    return s


def loop_seconds() -> float:
    """One warm timing of the loop."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def robust_mean(samples: list[float]) -> float:
    """Mean of the samples no longer than OUTLIER times their median."""
    limit = OUTLIER * statistics.median(samples)
    kept = [s for s in samples if s <= limit]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Context manager that samples the loop time around and during the code it wraps.

    It owns SIGALRM and ITIMER_REAL while it is open; the previous handler is
    put back on exit.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(loop_seconds())

    def __enter__(self) -> SpeedProbe:
        self.samples = [loop_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(loop_seconds())

    def scale(self) -> float:
        """Reference loop time over the loop time measured: below 1 when the machine ran slow."""
        return REFERENCE_S / robust_mean(self.samples)
