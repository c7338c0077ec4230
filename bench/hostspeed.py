"""Host-speed normalisation for times measured on a shared machine.

On a shared 2-vCPU Xeon virtual machine (2.0 GHz) one simulation takes 1.0x to
1.9x its fastest time, in phases that last from seconds to minutes, so no
statistic over one run of tens of seconds is steady. Two fixed pure-Python
kernels, timed right before and right after each measured interval, track
those phases. One is a small event loop that stays in cache; the other walks
a table of a few megabytes in random order. In 20-second windows where the
median raw time of one simulation varied by up to 45 %, its time divided by
the geometric mean of the two kernels' times varied by at most 12 %; either
kernel alone did worse.

Times are therefore reported in reference seconds: host seconds scaled by
REFERENCE_S / (the kernels' time around the interval). The kernels are part
of the benchmark and never change with the simulator, so a simulator that
gets faster reads faster. They do the same kinds of work as the simulator:
heap pushes and pops of tuples, frozen dataclass allocation, isinstance
dispatch, dict lookups and updates, and f-string formatting.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.025     # the kernels' typical time on that machine
KERNEL_EVENTS = 10000
TABLE_SIZE = 25000      # about 5 MB, beyond the per-core caches
TABLE_WALK = 12500
KERNEL_REPEATS = 3


@dataclass(frozen=True)
class _Event:
    node: int
    kind: str


def kernel() -> int:
    queue: list = []
    heard: dict[int, int] = {}
    chars = 0
    for seq in range(64):
        heapq.heappush(queue, (seq % 7, seq, _Event(seq, "start")))
    for seq in range(64, KERNEL_EVENTS):
        tick, _, event = heapq.heappop(queue)
        if isinstance(event, _Event):
            heard[event.node] = heard.get(event.node, 0) + 1
            chars += len(f"{tick}\t{event.node}\t{event.kind}")
            nxt = _Event((event.node * 7 + 1) % 64, "relay")
            heapq.heappush(queue, (tick + 1 + event.node % 3, seq, nxt))
    return chars


def table_kernel(table: dict[int, tuple[int, str]], order: list[int]) -> int:
    queue: list = []
    total = 0
    for seq, key in enumerate(order):
        entry = table[key]
        heapq.heappush(queue, (entry[0] % 1000, seq, entry))
        if len(queue) > 5000:
            total += heapq.heappop(queue)[0]
    return total


def _median_seconds(fn, *args) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Gives, for each interval between two calls, its host-speed scale."""

    def __init__(self):
        self._table = {i: (i, str(i)) for i in range(TABLE_SIZE)}
        self._order = list(range(TABLE_SIZE))
        random.Random(TABLE_SIZE).shuffle(self._order)
        del self._order[TABLE_WALK:]
        self._last = self.kernel_seconds()
        self.slowdowns: list[float] = []

    def kernel_seconds(self) -> float:
        """Geometric mean of the two kernels' median times: the host's slowness."""
        loop = _median_seconds(kernel)
        table = _median_seconds(table_kernel, self._table, self._order)
        return math.sqrt(loop * table)

    def scale(self) -> float:
        """Reference seconds per host second since the previous call."""
        now = self.kernel_seconds()
        kernel_s = (self._last + now) / 2
        self._last = now
        self.slowdowns.append(kernel_s / REFERENCE_S)
        return REFERENCE_S / kernel_s
