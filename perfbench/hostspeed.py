"""Times scaled to one host speed, from samples taken while the work runs.

Shared machines drift in speed.  On the 2-core virtual machine where
this benchmark was written, the same CPU-bound loop took from 0.13 to
0.20 s within a minute; medians over 20-second windows spread by about
20% (quartile distance over median) across six minutes; and the two
cores drifted independently of each other.  Medians over a run absorb
short stalls but not that.

So every timed span runs under ``HostSpeed``: every SAMPLE_EVERY_S of
wall time a timer signal runs a short fixed loop (complex and float
arithmetic and math calls, the mix of the package's kernels) and records
how much CPU time it took.  The span's time, less that spent in the loop,
is scaled by LOOP_REF_S over the loop's mean time: it reads as the
seconds the work would take at the speed where the loop takes
LOOP_REF_S (about its median on that machine).  The
benchmark pins itself and its children to one CPU, so that the samples
see the speed of the CPU the work runs on, also when the work is a child
process.  There, per-operation times of three of the package's kernels
varied by 15-20% unscaled and by 8-9% scaled.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.1
LOOP_ITERATIONS = 10_000
LOOP_REF_S = 0.003


def pin_to_one_cpu():
    """Run this process and the processes it starts on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop() -> float:
    z = 0.3 + 0.4j
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        z = z * (0.999 + 0.001j) + 0.001
        acc += math.sin(i * 1e-3) * abs(z)
    return acc


class HostSpeed:
    """Context manager timing its body; ``seconds`` is the scaled time."""

    def _sample(self, signum, frame):
        # CPU time, not wall time: when the work is a child process on the
        # same CPU, the loop shares the CPU with it, and the child is held
        # up by about the loop's CPU time
        start = time.thread_time()
        _loop()
        took = time.thread_time() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def unscaled(self) -> float:
        """Wall time of the body less the time spent sampling."""
        return self.wall - self.spent

    @property
    def seconds(self) -> float:
        if not self.samples:  # the body was shorter than one sampling interval
            return self.unscaled
        return self.unscaled * LOOP_REF_S / statistics.fmean(self.samples)
