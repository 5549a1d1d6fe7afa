"""The machine's speed, measured with a fixed calibration kernel.

A shared host runs the benchmark at a speed that drifts: the same batch
of imputations, repeated back to back on a 2-core VM, took anywhere from
0.69 to 1.28 s, and 15 s averages of it spread by 24% (interquartile range
over median). CPU time drifts with wall time, so the slowdown is the
core's, not the scheduler's, and the two cores drift independently of
each other (their kernel times were uncorrelated). A comparison between
two commits is only as good as its worst run, so the benchmark measures
the cores next to the program and reports timings *at reference speed*.

The kernel is fixed work that uses nothing from the repository (dict and
tuple churn plus small numpy arithmetic, the mix the pipeline runs),
timed with the sampling thread's own CPU clock. A sample runs it on the
core the work runs on: the current core for the closed loop, which is
one busy thread; each core in turn, pinned, for the serving pool, whose
workers use them all (the sample is then the harmonic mean, as the
pool's capacity is the sum of the cores' speeds). Samples are taken
between pieces of timed work, never during them, and only while the pool
is idle. In the closed loop, a piece of work that took ``t`` seconds
between samples of ``k0`` and ``k1`` seconds counts as ``t *
REFERENCE_KERNEL_S / mean(k0, k1)`` seconds at reference speed; on the
same batch of imputations repeated for 300 s, this brought the spread of
15 s averages from 24% down to 5%. The pool's pieces are scaled by the
mean over its whole timed phase, which was steadier than piece by piece. A faster or slower program moves the normalized numbers
exactly as it moves the raw ones; only the host's drift is divided out.
The raw numbers are printed on the ``info`` line.

Set-up steps last seconds each (the fit about ten), longer than the
drift holds still, so samples at their ends say little about them. While
a set-up step runs, a background thread samples instead, every
``BACKGROUND_EVERY_S``; its CPU clock leaves out the time it waits for
the GIL. The single-threaded steps run pinned to one core with the
sampler on the same core.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time
from typing import Iterator, Optional, Sequence

import numpy as np

REFERENCE_KERNEL_S = 0.0075
"""What one kernel sample takes at reference speed: about its median on
the 2-core VM the benchmark was defined on (CPython 3.11, numpy 2.4)."""
BACKGROUND_EVERY_S = 0.2
"""Pause between the background thread's samples (see ``sampling``)."""


def kernel() -> int:
    """Fixed work that takes about ``REFERENCE_KERNEL_S``."""
    counts: dict[int, int] = {}
    arr = np.arange(64, dtype=float)
    for i in range(9000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
        tuple(sorted((key, i % 13, i % 7)))
        if i % 20 == 0:
            arr = np.sqrt(arr * arr + 1.0)
            float(arr.sum())
    return len(counts)


def usable_cores() -> list[int]:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cores: Sequence[int]) -> Iterator[None]:
    """The calling thread runs only on ``cores`` inside the block."""
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cores))
    try:
        yield
    finally:
        os.sched_setaffinity(0, original)


def measure_core() -> float:
    """The kernel's CPU seconds on the current core."""
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


def measure(cores: Optional[Sequence[int]]) -> float:
    """One sample: the kernel's CPU seconds on the current core (None), or
    their harmonic mean over ``cores``, each pinned in turn."""
    if cores is None:
        return measure_core()
    times = []
    for core in cores:
        with pinned([core]):
            times.append(measure_core())
    return len(times) / sum(1.0 / t for t in times)


class SpeedMeter:
    """Kernel samples taken between pieces of timed work, on ``cores``
    (see ``measure``)."""

    def __init__(self, cores: Optional[Sequence[int]] = None) -> None:
        self.cores = cores
        self.samples: list[float] = []
        self.cpu_s = 0.0
        """Process CPU time spent in the kernel, to subtract from the
        process's own CPU accounting."""

    def sample(self) -> float:
        c0 = time.process_time()
        took = measure(self.cores)
        self.cpu_s += time.process_time() - c0
        self.samples.append(took)
        return took

    def scale_after(self) -> float:
        """Takes a sample and returns the seconds at reference speed per
        measured second of the work done since the previous sample."""
        self.sample()
        return self.scale(len(self.samples) - 2)

    def scale(self, since: int = 0) -> float:
        """Seconds at reference speed per measured second, over the
        samples from index ``since`` on."""
        return scale_of(self.samples[since:])

    @contextlib.contextmanager
    def sampling(self, cores: Optional[Sequence[int]] = None) -> Iterator[list[float]]:
        """Samples ``measure(cores)`` in a background thread while the
        block runs. Yields the list they land in; ``scale_of`` turns it
        into a scale."""
        samples: list[float] = []
        stop = threading.Event()

        def run() -> None:
            while not stop.wait(BACKGROUND_EVERY_S):
                samples.append(measure(cores))

        thread = threading.Thread(target=run, name="kamelbench-speed", daemon=True)
        thread.start()
        try:
            yield samples
        finally:
            stop.set()
            thread.join()
        if not samples:  # the block ended before the first sample
            samples.append(measure(cores))


def scale_of(samples: Sequence[float]) -> float:
    return REFERENCE_KERNEL_S / statistics.fmean(samples)
