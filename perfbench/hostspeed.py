"""Host-speed calibration for the benchmark's wall-clock metrics.

The effective speed of a shared 2-vCPU host swings by up to 2x over tens
of seconds: a fixed pure-Python loop takes 34-65 ms depending on the
moment.  Between runs that swing dwarfs any change worth detecting.  So
the driver runs a fixed kernel at calibration points inside the measured
section, while the program is idle, and scales each wall-clock sample to
a host on which the kernel takes :data:`REFERENCE_KERNEL_S`:

    scaled = measured * REFERENCE_KERNEL_S / kernel time near that moment

The kernel is the benchmark's own code and never calls the program, so a
faster program still shows in full.  It runs with the garbage collector
off, so young objects of the program never land on its clock.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import List, Tuple

#: Kernel time that scaled metrics refer to: about the median on the
#: 2-core calibration host.
REFERENCE_KERNEL_S = 0.001
#: Kernel runs per calibration point; the point keeps their median.
REPEATS = 3
#: Calibration points within this many seconds of a sample scale it.
WINDOW_S = 1.0
#: Least time between two calibration points of a measured section.
INTERVAL_S = 0.2


class _Row:
    __slots__ = ("key", "x", "y")

    def __init__(self, key: str, x: float, y: float) -> None:
        self.key = key
        self.x = x
        self.y = y


class Kernel:
    """The calibration kernel and its table: keyed rows it looks up in a
    scattered order, builds tuples from and sorts, as the program does with
    its table rows, plus a counting loop over a small dict.  The table is a
    few MB, so part of the kernel's time waits on memory as the program's
    does; a pure compute loop overstates how much a slow phase of the host
    slows the program."""

    rows = 16384
    lookups = 600

    def __init__(self) -> None:
        rng = random.Random(0)
        table = [_Row(f"row{index:06d}", rng.random(), rng.random()) for index in range(self.rows)]
        self.table = {row.key: row for row in table}
        self.keys = [row.key for row in table]
        rng.shuffle(self.keys)
        self.position = 0

    def run(self) -> int:
        table, keys, rows = self.table, self.keys, self.rows
        start = self.position
        picked = []
        for step in range(self.lookups):
            row = table[keys[(start + step * 7) % rows]]
            if row.x > 0.5:
                picked.append((row.key, row.x, row.y))
        picked.sort()
        self.position = (start + self.lookups * 7) % rows
        counts = {}
        for value in range(1500):
            key = value & 255
            counts[key] = counts.get(key, 0) + value * value
        return len(picked) + len(counts)

    def seconds(self) -> float:
        """Median time of :data:`REPEATS` runs, collector off."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                started = clock()
                self.run()
                times.append(clock() - started)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)


class HostClock:
    """Calibration points of one run: each is a time and the kernel's
    time then."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.times: List[float] = []
        self.kernel_s: List[float] = []

    def calibrate(self) -> None:
        """Take one calibration point now."""
        self.kernel_s.append(self.kernel.seconds())
        self.times.append(time.perf_counter())

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= INTERVAL_S

    def factor(self, start: float, end: float) -> float:
        """Reference over host kernel time during ``[start, end]``: the
        median of the points within :data:`WINDOW_S` of the interval, else
        of the nearest point."""
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        if low == high:
            nearest = min(
                range(len(self.times)), key=lambda i: abs(self.times[i] - end)
            )
            low, high = nearest, nearest + 1
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[low:high])

    def scale(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Durations of ``(start, end)`` spans, scaled to the reference
        host."""
        return [(end - start) * self.factor(start, end) for start, end in spans]

    def host_speed(self) -> float:
        """Median speed over every point, relative to the reference host."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)
