"""A fixed reference kernel that tracks how fast the host runs right now.

Shared hosts change speed by tens of percent over seconds to minutes, as
other tenants come and go, and that drift moves every host time the
benchmark reads.  The kernel below is a few milliseconds of the same kind
of work the simulator does (a heap of list entries, dict updates, small
tuples) and never changes with the repository.  The benchmark runs it
between timed segments, never inside one, and reports each host time
*normalized*: scaled by ``NOMINAL_S / t``, where ``t`` is the kernel's
time measured next to that segment.  A normalized time reads as the
host seconds the segment would have taken on the host at its idle speed.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

#: The kernel's time on the idle host the benchmark was sized on (a
#: 2-vCPU x86-64 Linux VM, CPython 3.11: the 10th percentile of 300 runs
#: was 2.77 ms, the fastest 2.64 ms).  Only the ratio matters: changing
#: it rescales every normalized time by the same factor.
NOMINAL_S = 0.0027


def kernel() -> int:
    """About 2.7 ms of heap, dict and tuple work on an idle host."""
    heap: list[list] = []
    state: dict[int, int] = {}
    for i in range(2_500):
        heapq.heappush(heap, [i * 0.37 % 11.0, i, (i % 97, i)])
    while heap:
        _, seq, (key, value) = heapq.heappop(heap)
        state[key] = state.get(key, 0) + seq + value
    return len(state)


def sample() -> float:
    """Host seconds of one kernel run.

    The cyclic garbage collector is paused for the run: a collection the
    simulator's heap makes due would otherwise land in the sample (up to
    0.2 s on ``chaos``), skew the speed reading and be subtracted from
    the pass wall.  Paused, it runs in the simulator's time, as it would
    without the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        kernel()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: list[float]) -> float:
    """``NOMINAL_S`` over the median of kernel timings."""
    return NOMINAL_S / statistics.median(samples)


def normalize(seconds: list[float], samples: list[float]) -> list[float]:
    """Each host time scaled by the kernel sample taken right after it."""
    return [
        elapsed * NOMINAL_S / sample
        for elapsed, sample in zip(seconds, samples)
    ]
