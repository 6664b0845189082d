"""Host-speed correction for wall times measured on a shared machine.

On the machine this benchmark was built on (two vCPUs of a shared host),
the same invocation ran anywhere from 1x to 1.9x its fastest time: the vCPU
switches between full and about half speed, on time scales from a fraction
of a second to minutes, and the CPU time of the process moves with its wall
time, so the slowdown is the host's, not scheduling within the machine.
A run-level median cannot average that away within one run.

So the benchmark pins itself and its children to one CPU and, while a child
runs, wakes every ``PERIOD_S`` to take a sample on that same CPU: it runs a
fixed pure-Python unit of work once untimed, so that the unit's code and
data are back in the cache whatever the child left there, then times a
second run by this thread's CPU time, so that a preemption by the child
inside the sample does not count.  The child's time is then corrected to
the reference speed, at which the timed unit takes ``UNIT_REFERENCE_S``:

    corrected = raw * mean(UNIT_REFERENCE_S / unit_time_i)

``raw * mean(1 / unit_time_i)`` estimates the work done in units of the
probe (time-averaged speed times duration), so a program that does more work
reads slower and host slowdown cancels.  The samples take about 4% of the
CPU while a child runs, the same on every commit.
"""

from __future__ import annotations

import os
import select
import time
from contextlib import contextmanager
from fractions import Fraction

PERIOD_S = 0.025
UNIT_REFERENCE_S = 0.00047
MIN_SAMPLES = 4


def _unit() -> Fraction:
    """Fixed work, a mix of the int dict updates and Fraction products the program runs."""
    acc: dict[int, int] = {}
    for i in range(2000):
        k = i & 63
        acc[k] = acc.get(k, 0) + (i % 7 - 3) * (i % 5 + 1)
    total = Fraction(0)
    for i in range(1, 41):
        total += Fraction(i % 7 + 1, 32) * Fraction(3, i % 5 + 1)
    return total


@contextmanager
def pinned_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU while the block runs."""
    try:
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(before)})
    except (AttributeError, OSError):
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def sample() -> float:
    """CPU seconds of one warm run of the unit."""
    _unit()
    t0 = time.thread_time()
    _unit()
    return time.thread_time() - t0


class SpeedProbe:
    """Samples the CPU's speed while children run."""

    def __init__(self) -> None:
        self.recent: list[float] = []

    def watch(self, pid: int) -> tuple[float, float]:
        """Sample until ``pid`` exits; returns the clock at its exit and its speed factor.

        A child too short for ``MIN_SAMPLES`` samples borrows the latest ones.
        """
        samples: list[float] = []
        fd = os.pidfd_open(pid)
        try:
            while not select.select([fd], [], [], PERIOD_S)[0]:
                samples.append(sample())
            ended = time.perf_counter()
        finally:
            os.close(fd)
        used = samples if len(samples) >= MIN_SAMPLES else self.recent + samples
        self.recent = (self.recent + samples)[-MIN_SAMPLES:]
        if not used:
            return ended, 1.0
        return ended, sum(UNIT_REFERENCE_S / s for s in used) / len(used)
