"""Timing at a reference machine speed.

On a shared machine the CPU speed seen by one process shifts by up to a
quarter for tens of seconds at a time, moving every wall time with it.  The
meter therefore times a fixed reference loop (NumPy sorts plus a pure-Python
loop, like the package's own mix) before and after each timed call, unless
it ran less than REF_EVERY seconds ago.  Timed intervals are reported in
reference seconds: wall seconds times REF_S over the reference time of the
whole run.  Slower program: more reference seconds.  Slower machine: the
reference loop slows with it, and the two cancel.  One reference sample
scatters by about 14%, so the scale is taken over the whole run (40 to 150
samples) rather than over the neighbours of each interval; the latter made
repeats of one search scatter more than their wall times did.

The reference loop is benchmark code and runs between timed calls, never
inside them; raw wall times stay available for the report.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.01            # nominal reference-loop time, in seconds
REF_EVERY = 0.2         # at most this long between reference samples


class Meter:
    def __init__(self):
        import numpy as np              # after the timed package import

        self._sort = np.sort
        self._data = np.random.default_rng(0).random(50_000)
        self.refs: list[tuple[float, float]] = []    # (end time, duration)
        self.intervals: dict[str, list[tuple[float, float, int]]] = {}
        self.slot = 0           # input slot of the op being timed

    def reference(self) -> None:
        t0 = time.perf_counter()
        for _ in range(20):
            self._sort(self._data)
        sum(i * i for i in range(20_000))
        t1 = time.perf_counter()
        self.refs.append((t1, t1 - t0))

    def _due(self) -> None:
        if not self.refs or time.perf_counter() - self.refs[-1][0] > REF_EVERY:
            self.reference()

    def record(self, label: str, t0: float, t1: float) -> None:
        self.intervals.setdefault(label, []).append((t0, t1, self.slot))

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn and record its wall interval under label."""
        self._due()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.record(label, t0, time.perf_counter())
        self._due()
        return out

    def reference_s(self) -> float:
        """Mean reference time of the run, its fastest and slowest tenth
        left out: steady contention slows ops and references alike and
        stays in, a single stalled sample does not."""
        refs = sorted(d for _, d in self.refs)
        cut = len(refs) // 10
        return statistics.mean(refs[cut:len(refs) - cut])

    def seconds(self, label: str) -> list[float]:
        """Durations of label's intervals in reference seconds."""
        scale = REF_S / self.reference_s()
        return [(t1 - t0) * scale
                for t0, t1, _ in self.intervals.get(label, [])]

    def wall(self, label: str) -> list[float]:
        return [t1 - t0 for t0, t1, _ in self.intervals.get(label, [])]

    def slot_median(self, label: str, wall: bool = False) -> float:
        """Mean over input slots of the median duration in each slot.

        Inputs of one round can differ in cost by a factor of eight (the
        sweep grid), so the plain median of a run jumps between input
        clusters; the per-slot medians do not."""
        values = self.wall(label) if wall else self.seconds(label)
        slots: dict[int, list[float]] = {}
        for (_, _, slot), v in zip(self.intervals.get(label, []), values):
            slots.setdefault(slot, []).append(v)
        return statistics.mean(statistics.median(v) for v in slots.values())
