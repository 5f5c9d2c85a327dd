"""The reference kernel that end-to-end op times are scaled by.

The shared host this benchmark was sized on runs the same Python code up
to ~1.5x slower for a minute or more at a time, depending on what else
runs on it.  No run length within the benchmark's time limit averages
that out: ten-seed sets of 40-s runs spread by 0.20-0.31 of the median
in wall-clock terms.  So the run times this fixed kernel between ops,
and reports each op's latency in *reference milliseconds* as well: its
wall time times ``REFERENCE_MS`` over the kernel's time around it.  The
host's slow spells stretch both alike and cancel out.  A slower program
does not stretch the kernel, so it shows in full.

The kernel is plain Python that does what the program's hot loops do:
small tuples, dict inserts and lookups, frozenset unions.  A kernel of
that mix tracked the workloads' slowdowns best; pure arithmetic and
numpy kernels tracked them less well.  It runs with the garbage
collector off, so the size of the program's heap cannot change its time.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Sequence

#: The kernel's time per repeat in the host's fast spells, on the 2-vCPU
#: machine the sizes were chosen on; there a reference millisecond is
#: close to a wall-clock one.
REFERENCE_MS = 1.2
#: Entries the kernel builds per repeat, and repeats per sampling.
KERNEL_SIZE = 2000
KERNEL_REPEATS = 4


def _kernel(size: int) -> int:
    table = {}
    for i in range(size):
        table[(i & 63, i >> 6)] = frozenset((i % 12, (i * 5) % 12, (i * 7) % 12))
    total = 0
    for key, value in table.items():
        total += len(value | {key[0] % 12})
    return total


def _repeats() -> list[float]:
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel(KERNEL_SIZE)
        times.append(time.perf_counter() - start)
    return times


def sample(cpus: "Sequence[int] | None" = None) -> list[list[float]]:
    """Seconds per repeat of the kernel, run now: one list for wherever
    the process runs, or, with ``cpus``, one list per CPU, pinned to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if cpus is None:
            return [_repeats()]
        allowed = os.sched_getaffinity(0)
        try:
            samples = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                samples.append(_repeats())
            return samples
        finally:
            os.sched_setaffinity(0, allowed)
    finally:
        if enabled:
            gc.enable()


def kernel_s(before: list[list[float]], after: list[list[float]]) -> float:
    """The kernel time an op was exposed to, from the samplings just
    before and just after it.

    Per CPU, the median of the repeats on both sides.  Across CPUs, the
    harmonic mean, which is the time per kernel of all of them working
    together, as an op spread over worker processes on them is.
    """
    per_cpu = [statistics.median(b + a) for b, a in zip(before, after)]
    return len(per_cpu) / sum(1.0 / t for t in per_cpu)
