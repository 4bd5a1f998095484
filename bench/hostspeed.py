"""Host-speed reference: a fixed pure-Python kernel timed between queries.

The benchmark runs on a few cores of a host shared with other tenants, and
the host's speed moves under it by half for minutes at a time.  The kernel
below does the kind of work the program does (tuples, lists, a dict and a
sort, all in pure Python) on fixed data, so it slows down with the host in
the same proportion.  Timings are reported scaled by REFERENCE_MS over the
kernel's time measured next to them: in milliseconds of a host on which the
kernel takes REFERENCE_MS.  The kernel is the benchmark's own code, so a
change to the program cannot change it.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# The kernel's time on the 2-core machine the benchmark was written on, when
# no other tenant slowed it down.
REFERENCE_MS = 6.0
# Seconds between two kernel runs in a timed phase (about 2% of the time).
INTERVAL = 0.4


def _ballots() -> list[tuple[int, ...]]:
    rng = random.Random(1)
    return [tuple(rng.sample(range(8), 8)) for _ in range(600)]


class HostSpeed:
    """Kernel times, in seconds, in the order they were measured."""

    def __init__(self):
        self.ballots = _ballots()
        self.times: list[float] = []
        self.last = float("-inf")

    def measure(self) -> int:
        """Time the kernel once; returns the index of the measurement."""
        ballots = self.ballots
        t0 = perf_counter()
        for _ in range(8):
            score = [0] * 8
            for ballot in ballots:
                for p, c in enumerate(ballot):
                    score[c] += 7 - p
            counts: dict[tuple[int, ...], int] = {}
            for ballot in ballots:
                counts[ballot] = counts.get(ballot, 0) + 1
            sorted(counts.items())
        self.last = perf_counter()
        self.times.append(self.last - t0)
        return len(self.times) - 1

    def due(self) -> bool:
        return perf_counter() - self.last >= INTERVAL

    def scale(self, before: int) -> float:
        """Factor for a time measured between kernel runs `before` and `before + 1`.

        The kernel time is the median of the six runs `before - 2` to
        `before + 3`, about two seconds of a timed phase: long enough that a
        run slowed by a passing blip does not count, short enough to follow
        the host's slow and fast stretches.
        """
        around = self.times[max(0, before - 2):before + 4]
        return REFERENCE_MS / (1000.0 * statistics.median(around))
