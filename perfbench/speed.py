"""Host speed, sampled while the items run, and a clock that leaves the
sampling out.

The benchmark was written on a shared virtual machine whose speed drifts by
20 to 50% within a minute.  While items run, a timer signal every
SAMPLE_PERIOD_S runs one slice of a fixed reference computation.  Each
item's time is then multiplied by REF_NOMINAL_S / (the mean slice duration
while it ran), so times read as seconds at one fixed nominal speed.
Items too short to hold SAMPLE_MIN slices use a moving average of the
latest slices instead.  REF_NOMINAL_S is close to one slice on a 2.1 GHz
x86-64 core, so scaled and measured times stay close.

The reference computation builds and sorts small frozensets of tuples and
dicts over them, as tarl does, because allocation-heavy code slows down
with the host the way tarl does; a slice over a warm, allocation-free
working set tracked it half as well.  A slice runs its work once untimed
first, so the allocator's free lists and the caches that the interrupted
code leaves do not change its speed.  It keeps the cyclic collector off
while it runs and frees all it allocates, so it neither triggers nor skips
a collection.  `Sampler.clock()` is perf_counter minus the wall time spent
in slices, so items and spans timed with it exclude the sampling.
"""

from __future__ import annotations

import gc
import signal
import time

REF_NOMINAL_S = 0.00006
SAMPLE_PERIOD_S = 0.002
SAMPLE_MIN = 4             # slices an item needs to be judged by its own
AVERAGE_WEIGHT = 0.05      # weight of the newest slice in the moving average

_NAMES = tuple(f"s{i}" for i in range(16))


def _reference_work() -> int:
    acc = 0
    for i in range(16):
        cells = frozenset((j, i % 7, _NAMES[j % 16]) for j in range(i % 8 + 4))
        sizes = {cell: len(cell) for cell in cells}
        acc += len(sorted(cells)) + len(sizes)
    return acc


def reference_slice() -> float:
    """Run one slice of the reference computation; returns its duration."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Use as a context manager around the timed region."""

    def __init__(self):
        self.spent = 0.0        # wall time inside slices, warming included
        self.total = 0.0        # summed slice durations
        self.count = 0
        self.recent = reference_slice()
        for _ in range(50):
            self._record(reference_slice())

    def _record(self, d: float) -> None:
        self.total += d
        self.count += 1
        self.recent += (d - self.recent) * AVERAGE_WEIGHT

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._record(reference_slice())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def mark(self) -> tuple[float, float, int]:
        return self.clock(), self.total, self.count

    def scaled_since(self, mark: tuple[float, float, int]) -> float:
        """Time since `mark`, sampling excluded, at the nominal speed."""
        t0, total0, count0 = mark
        elapsed = self.clock() - t0
        n = self.count - count0
        slice_s = (self.total - total0) / n if n >= SAMPLE_MIN else self.recent
        return elapsed * REF_NOMINAL_S / slice_s

    def scale(self) -> float:
        """The current nominal / measured speed ratio."""
        return REF_NOMINAL_S / self.recent
