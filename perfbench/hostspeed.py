"""Gauge how fast the host runs Python right now.

The benchmark runs on a shared VM.  There the same simulation can take 70%
longer for a minute at a time, and a pure-Python loop slows down with it.
``reference_pass`` times one pass of a fixed loop that does what the
simulator does most: push and pop a heap of small objects, update a dict
and do float arithmetic.  It uses nothing from ``repro``, so no change to
the simulator can move it.
"""

from __future__ import annotations

import heapq
import time

#: Host times are scaled to a host on which the fastest reference pass
#: takes this long (about what a 2-vCPU Xeon VM gives).
REFERENCE_S = 0.05
#: Passes each worker makes after its simulation.
PASSES = 5


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time: float, kind: int, payload: list) -> None:
        self.time, self.kind, self.payload = time, kind, payload


def _loop(steps: int = 40_000) -> float:
    heap: list = []
    table: dict[int, float] = {}
    done: list[float] = []
    x = 0.5
    for i in range(steps):
        x = 3.9 * x * (1.0 - x)
        heapq.heappush(heap, (x, i, _Event(x, i % 97, [i, x])))
        table[i % 4099] = table.get(i % 4099, 0.0) + x
        if len(heap) > 512:
            when, _, event = heapq.heappop(heap)
            done.append(event.payload[1] + when)
    return sum(done) + sum(table.values())


def reference_passes(count: int = PASSES) -> list[float]:
    """Wall-clock seconds of ``count`` passes of the reference loop."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return times
