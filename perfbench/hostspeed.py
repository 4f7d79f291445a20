"""Host-speed probe: express measured times in reference seconds.

The benchmark runs on shared hosts whose speed swings by a factor of up
to 1.7 within seconds (a busy neighbour on the same physical core), so
raw wall times of identical campaigns differ by 20% or more.  The probe
samples the host's speed while the campaign runs: an interval timer
interrupts the benchmark process every :data:`PERIOD_S` seconds and the
signal handler times a fixed slice of interpreter work (:func:`kernel`)
that no code of the program under test takes part in.  A span's
*reference seconds* scale each stretch of its wall time by how much
slower than :data:`REFERENCE_KERNEL_S` the kernel ran around it, and
leave the probe's own time out.  A slower program shows in full; a
slower host mostly does not.

The probe cannot tell host contention from CPU contention the benchmark
itself adds, such as pool workers competing with the driver for the
same CPUs; raw host seconds are printed beside every reference figure.
"""

import bisect
import heapq
import signal
import statistics
import time

__all__ = ["HostSpeedProbe", "PERIOD_S", "REFERENCE_KERNEL_S", "kernel"]

# Seconds between samples, and the kernel's length on the reference host
# (about its length on an uncontended 2-CPU cloud host with CPython 3.11).
PERIOD_S = 0.1
REFERENCE_KERNEL_S = 0.001


def kernel():
    """A fixed slice of interpreter work like the simulator's own: heap
    pushes and pops, dictionary updates, small-integer arithmetic."""
    heap = []
    counts = {}
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if len(heap) > 32:
            heapq.heappop(heap)


class HostSpeedProbe:
    """Samples host speed on ``SIGALRM`` while active (a context manager,
    main thread only).  ``samples`` holds ``(start, end)`` of each
    kernel run on ``time.perf_counter``, the clock spans are timed
    with."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self._previous = None
        self._starts = None
        self._factors = None

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info):
        # Stop the timer before restoring the handler: a signal trapped
        # in between finds the default handler and is dropped.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.freeze()

    def freeze(self):
        """Fix the per-sample speed factors (done on exit).  Each is the
        median over the sample and its neighbours, so that one preempted
        kernel run does not skew a stretch."""
        if not self.samples:
            raise ValueError("the probe took no samples")
        lengths = [end - start for start, end in self.samples]
        self._factors = [
            REFERENCE_KERNEL_S
            / statistics.median(lengths[max(0, k - 1):k + 2])
            for k in range(len(lengths))
        ]
        self._starts = [start for start, _end in self.samples]

    def reference_seconds(self, start, end):
        """Reference seconds of the wall interval ``[start, end]``.

        Each stretch of the interval between probe runs is scaled by the
        factor of the probe run that ends it (the last run's factor
        after the last run); time inside probe runs is left out.
        """
        total = 0.0
        cursor = start
        k = max(0, bisect.bisect_right(self._starts, start) - 1)
        while cursor < end and k < len(self.samples):
            sample_start, sample_end = self.samples[k]
            if sample_end > cursor:
                total += (
                    max(0.0, min(sample_start, end) - cursor)
                    * self._factors[k]
                )
                cursor = max(cursor, sample_end)
            k += 1
        if cursor < end:
            total += (end - cursor) * self._factors[-1]
        return total
