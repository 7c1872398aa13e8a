"""The speed of the host, sampled while a job runs.

On a shared host the same pure-Python loop runs up to 1.5 times slower
from one few-second stretch to the next, and up to twice as slow from
one quarter of an hour to the next, with CPU time following wall time:
the drift comes from the neighbours, not from this process waiting.  A
run that lands on a slow stretch would read as a slower program.  To
take that out, an interval timer interrupts the job every
``INTERVAL_S`` and runs a fixed calibration kernel; ``REFERENCE_NS``
over the kernel's time is the speed of the host at that moment.  A time
measured under the sampler is reported at reference speed: the measured
time, less the time spent in the sampler, times the mean speed over the
samples taken while it ran.

The kernel is plain interpreted Python of the kind the program runs
(tuple slicing, comprehensions, dict updates, small calls) and does not
call the program.  It does run in caches the job has just used, so a
program that thrashes them much more slows the kernel a little too.
``REFERENCE_NS`` is about the kernel's mean time under the sampler on
the 2-vCPU x86-64 VM the benchmark was tuned on, so that times at
reference speed read about like measured ones there; it is a fixed
constant, and comparisons between runs do not depend on its value.

On that VM, 62 one-second passes of 1020 short round trips gave a
spread (interquartile range over median) of the per-pass median
latency of 0.36 as measured and 0.06 at reference speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from statistics import fmean

INTERVAL_S = 0.05
REFERENCE_NS = 1_000_000        # sets the scale only
WINDOW = 8                      # samples each side of a short span


def kernel() -> int:
    acc, seen = 0, {}
    w = tuple(range(48))
    for i in range(130):
        w = w[5:] + w[:5]
        key = tuple(v % 7 for v in w[::4])
        seen[key] = seen.get(key, 0) + i
        acc += sum(1 for a, b in zip(w, w[1:]) if a < b)
    return acc + len(seen)


def speeds(k: int) -> list[float]:
    """k samples of the speed, taken back to back."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter_ns()
        kernel()
        out.append(REFERENCE_NS / (time.perf_counter_ns() - t0))
    return out


class Sampler:
    """Interrupt the running code every INTERVAL_S to time the kernel.

    Spans are given as two ``time.perf_counter_ns()`` readings taken by
    the measured code.  A sample that starts between them lies wholly
    inside, since the handler runs between bytecodes of that code.
    """

    def __init__(self):
        self.times: list[int] = []      # perf_counter_ns at each sample
        self.speeds: list[float] = []   # REFERENCE_NS / kernel time
        self.paused: list[int] = []     # ns spent in each sample
        self._old = None

    def _tick(self, signum, frame):
        # with the collector off, the kernel never pays for a collection
        # of the job's objects; the job pays for it after the handler
        t0 = time.perf_counter_ns()
        collecting = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter_ns()
            kernel()
            k1 = time.perf_counter_ns()
        finally:
            if collecting:
                gc.enable()
        self.times.append(t0)
        self.speeds.append(REFERENCE_NS / (k1 - k0))
        self.paused.append(time.perf_counter_ns() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def reference_ns(self, t0: int, t1: int) -> float:
        """The span [t0, t1] without the samples inside it, at reference
        speed.  The speed is the mean over the samples inside the span,
        widened by WINDOW samples each side when the span holds fewer
        than 2 * WINDOW of them; read it once the sampler has run on
        past t1."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        own = t1 - t0 - sum(self.paused[lo:hi])
        if hi - lo < 2 * WINDOW:
            lo, hi = max(0, lo - WINDOW), min(len(self.times), hi + WINDOW)
        return own * fmean(self.speeds[lo:hi])
