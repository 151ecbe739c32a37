"""A fixed unit of host work, timed beside every op to cancel host drift.

The shared machines this benchmark runs on change speed from minute to
minute. Ops are timed in CPU seconds, which leaves out the time a
contended machine keeps the process waiting, but a CPU second still
does less work while neighbours fill the caches and memory bus. So the
harness also times ``work()`` between consecutive ops and reports each
op's CPU time scaled by ``REFERENCE_S`` over the mean of the two
calibrations beside it: a host that slows down slows both, and the ratio
stays. The loop is shaped like the program's hot path (heap pushes and
pops, dict updates, generator resumption, float arithmetic) and imports
only the standard library, so no change to ``src/`` can change it.
"""
# Host clock reads are the measurement here, not simulation state.
# simlint: ignore-file[SL201]

from __future__ import annotations

import heapq
import time
from typing import Generator

#: Seconds one ``work()`` takes on the host this was tuned on (2 vCPUs of
#: a shared x86-64 host, CPython 3.11): scaled times read as seconds there.
REFERENCE_S = 0.010


def _stage(scale: float) -> Generator[float, float, None]:
    total = 0.0
    while True:
        total += yield total * scale


def work() -> float:
    """About 10 ms of deterministic interpreter work."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    stage = _stage(0.5)
    next(stage)
    for i in range(13_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, ((i * 2654435761) % 1000003 * 1e-6, i))
        if len(heap) > 64:
            acc += stage.send(heapq.heappop(heap)[0])
    return acc + sum(table.values())


def seconds_per_work(reps: int) -> float:
    """CPU seconds per ``work()``, averaged over ``reps`` calls in a row."""
    t0 = time.process_time()
    for _ in range(reps):
        work()
    return (time.process_time() - t0) / reps
