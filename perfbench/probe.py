"""A fixed machine-speed probe, independent of the library under test.

On a shared host the same code runs up to twice as slow for tens of
seconds at a time: a neighbour's load, not the program.  The probe is a
fixed mix of the kinds of host work the library does (object churn, heap
and dict traffic in the interpreter, small NumPy sorts), timed between
operations.  A run divides its times by ``median probe / REFERENCE_S``, so
its timings read as seconds on a machine running at the reference speed.
The probe's code is the benchmark's own: no change to the library moves it.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Probe seconds at the reference speed: its fastest time on an idle
#: 2-vCPU 2.1 GHz Intel Xeon host.
REFERENCE_S = 0.025


class _Item:
    __slots__ = ("key", "size", "when")

    def __init__(self, key: int, size: int, when: float) -> None:
        self.key = key
        self.size = size
        self.when = when


def probe_once() -> float:
    """Host seconds of one fixed unit of mixed work."""
    start = time.perf_counter()
    heap: list[tuple[float, int, _Item]] = []
    tally: dict[int, int] = {}
    x = 0.5
    for i in range(6_000):
        x = (x * 1103515245.0 + 12345.0) % 2147483648.0
        item = _Item(i, i & 255, x)
        heapq.heappush(heap, (item.when, i, item))
        tally[item.size] = tally.get(item.size, 0) + item.key
    while heap:
        heapq.heappop(heap)
    edges = np.random.default_rng(7).integers(0, 4096, size=(2, 20_000))
    for _ in range(3):
        edges = edges[:, np.lexsort(edges)]
        np.unique(edges[0] * 4096 + edges[1])
    return time.perf_counter() - start


def probe(samples: int = 3) -> float:
    """The fastest of ``samples`` probes."""
    return min(probe_once() for _ in range(samples))


class Machine:
    """Probe samples of one run, and the host time spent taking them.

    Operations may probe in the middle (between campaign scenarios, say);
    callers subtract :attr:`paused` from the host time they measure.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def check(self) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.paused += time.perf_counter() - start

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran."""
        return self.slowdown_over(0)

    def slowdown_over(self, first: int, last: int | None = None) -> float:
        """The slowdown over the samples ``first`` to ``last`` (inclusive)."""
        end = None if last is None else last + 1
        return statistics.median(self.samples[first:end]) / REFERENCE_S
