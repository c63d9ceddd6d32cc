"""Host speed reference for the end-to-end timings.

A shared host changes speed with its other tenants' load: the same run can
be 40 % slower a few minutes later.  To keep timings comparable across runs,
a fixed kernel (an integer polynomial product and a gcd fold, the kind of
big-integer work the program does) is timed on the thread's CPU clock every
SAMPLE_EVERY_S during each measurement.  Timings are then reported at
reference speed: scaled by NOMINAL_MS over the mean kernel time, i.e. as
they would read on a host where the kernel takes NOMINAL_MS.  The kernel is
part of the benchmark, never of the program, so a change to the program
moves the scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import threading
import time
from math import gcd

NOMINAL_MS = 1.0
SAMPLE_EVERY_S = 0.2

_A = [(7 ** (i % 40 + 20)) * (-1) ** i for i in range(60)]
_B = [11 ** (i % 30 + 15) for i in range(60)]


def kernel_ms() -> float:
    """CPU milliseconds of one run of the reference kernel."""
    clock = time.thread_time
    start = clock()
    out = [0] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    g = 0
    for c in out:
        g = gcd(g, c)
    return (clock() - start) * 1000.0


class Sampler:
    """Kernel samples taken at most every SAMPLE_EVERY_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def maybe_sample(self):
        now = time.perf_counter()
        if now - self._last >= SAMPLE_EVERY_S:
            self.samples.append(kernel_ms())
            self._last = time.perf_counter()
            self.spent_s += self._last - now


class Background:
    """Kernel samples taken every `period` seconds by a thread of this
    process while the program runs in child processes.

    The samples cover the whole measured wall time evenly, long tasks
    included, so their mean follows the host's speed over that time.  Use
    as a context manager around the child's run.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.period):
            self.samples.append(kernel_ms())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def slowdown(samples: list[float]) -> float:
    """Mean kernel time over NOMINAL_MS, dropping the top and bottom tenth
    (at least one sample each way once there are three).

    A mean (not a median) follows a host that changes speed during the
    measurement; trimming drops samples hit by a preemption.
    """
    ordered = sorted(samples)
    cut = max(len(ordered) // 10, 1 if len(ordered) >= 3 else 0)
    kept = ordered[cut : len(ordered) - cut] or ordered
    return sum(kept) / len(kept) / NOMINAL_MS
