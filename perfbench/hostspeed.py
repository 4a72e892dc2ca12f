"""Host speed, from a fixed reference task timed while a workload runs.

The host the benchmark runs on changes speed by up to half from one minute
to the next (other tenants, clock frequency), and that moves every timing
alike. So the benchmark times a reference task that does not depend on the
program but does the same kinds of work: a pure-Python loop, arithmetic on
numpy scalars, and numpy calls on small arrays. Each timing of the task is
a *mark*.

Marks split host time into segments. A duration inside a segment is
multiplied by REF_TASK_S over the mean of the task's times at the segment's
two ends: that is the duration at the host speed where the task takes
REF_TASK_S (about its median on the 2-vCPU host the notes' figures come
from). The time spent in marks is left out of every duration.

``run.py`` marks before and after every unit. While ``every_ns`` is set,
``StepClock.tick`` in ``workloads.py`` also marks between two steps once
that many nanoseconds have passed since the last mark, so a unit of a
second or more is split into short segments.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

# Sizes make each part take about a third of the task.
LOOP_ITERS = 2_500
SCALAR_ITERS = 500
ARRAY_CALLS = 60
ARRAY_LEN = 200
REF_REPS = 2
REF_TASK_S = 0.001
MARK_EVERY_NS = 200_000_000


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(LOOP_ITERS):
        acc += (i * 7) % 13
        table[i & 255] = acc
    return time.perf_counter() - t0


class _Arrays:
    """The numpy operands of the task, made once per process."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.mul = numpy.uint64(36969)
        self.inc = numpy.uint64(7)
        self.mask32 = numpy.uint64(0xFFFFFFFF)
        self.mask16 = numpy.uint64(0xFFFF)
        self.slots = numpy.zeros(12)
        self.times = numpy.linspace(0.0, 1.0, ARRAY_LEN)

    def scalar_seconds(self) -> float:
        t0 = time.perf_counter()
        state, acc = self.np.uint64(12345), 0.0
        for i in range(SCALAR_ITERS):
            state = (state * self.mul + self.inc) & self.mask32
            acc += math.exp(-1e-6 * float(state & self.mask16))
            self.slots[i % 12] += acc
        return time.perf_counter() - t0

    def array_seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(ARRAY_CALLS):
            float(self.np.exp(-2.0 * (1.5 - self.times)).sum())
        return time.perf_counter() - t0


def speed_factor(*task_seconds: float) -> float:
    """Multiplier from host seconds to seconds at the reference speed."""
    return REF_TASK_S / statistics.mean(task_seconds)


class HostSpeed:
    """The marks of one process, and conversion of host intervals."""

    def __init__(self):
        self.every_ns = None
        self.starts: list = []
        self.ends: list = []
        self.task_s: list = []
        self._arrays = None

    def task(self) -> float:
        """Seconds the reference task takes now.

        Each part counts as the least of REF_REPS runs, so one preemption
        does not count. Needs numpy, which the program's import brings in:
        call it only after set-up, so set-up still pays for importing numpy.
        """
        if self._arrays is None:
            self._arrays = _Arrays()
        parts = (_loop_seconds, self._arrays.scalar_seconds,
                 self._arrays.array_seconds)
        return sum(min(part() for _ in range(REF_REPS)) for part in parts)

    def mark(self) -> int:
        """Times the reference task; returns the clock at the mark's end."""
        start = time.perf_counter_ns()
        self.task_s.append(self.task())
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        return end

    def tick(self, now: int) -> int:
        """Marks if ``every_ns`` has passed; returns when timing resumes."""
        if self.every_ns is None or now - self.ends[-1] < self.every_ns:
            return now
        return self.mark()

    def convert(self, a: int, b: int, scaled: bool = True) -> float:
        """Seconds of host clock interval ``[a, b]``, marks left out.

        Scaled to the reference speed unless ``scaled`` is false. ``a``
        must come after a mark and ``b`` before a later one.
        """
        i = bisect.bisect_right(self.ends, a) - 1
        total = 0.0
        while True:
            stop = min(b, self.starts[i + 1])
            factor = speed_factor(self.task_s[i], self.task_s[i + 1]) \
                if scaled else 1.0
            total += (stop - a) * factor
            if b <= self.starts[i + 1]:
                return total / 1e9
            i += 1
            a = self.ends[i]
