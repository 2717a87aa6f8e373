"""Reference-speed calibration for CPU-bound timings.

On a shared virtual machine the CPU's speed drifts: on a 2-vCPU VM a
fixed Python loop ran anywhere from 1x to 1.9x its fastest time over a
few minutes, so raw timings of CPU-bound work taken minutes apart differ by
far more than any change worth detecting.  The benchmark therefore runs a
fixed reference workload (below; it never changes with the program)
right before and after each stretch of measured work, and reports the
measured time scaled to a machine on which the reference takes
``NOMINAL_NS``::

    reported = measured * NOMINAL_NS / reference

Scaling by an object-heavy reference — attribute access, dict and tuple
work, sorting, float arithmetic, like the placement code — cut the
window-to-window spread of the instantiate-latency median from 28% to
3% in a four-minute probe on a 2-vCPU VM.  Raw values stay in the
report line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

#: What the reference workload takes on the machine the figures are scaled to.
NOMINAL_NS = 2_000_000
#: Reference runs per calibration point; their median is the point.
RUNS = 3
#: Measured work between two calibration points.
BLOCK_NS = 150_000_000


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def reference_ns() -> int:
    """Time one pass of the fixed reference workload, in nanoseconds."""
    started = time.perf_counter_ns()
    table = {}
    for i in range(1500):
        item = _Item(i, (i * 7) % 13)
        table[(item.a, item.b)] = item
        if (i % 13, item.b) in table:
            item.a += 1
    ordered = sorted(table.values(), key=lambda item: (item.b, item.a))
    sum(item.a * 0.5 + item.b for item in ordered)
    return time.perf_counter_ns() - started


def calibration_point() -> int:
    """Median of a few reference passes: one reading of the machine's speed."""
    return sorted(reference_ns() for _ in range(RUNS))[RUNS // 2]


@dataclass
class SpeedLog:
    """Calibration points taken between stretches of measured work."""

    points: List[int] = field(default_factory=list)

    def mark(self) -> int:
        """Take a calibration point; returns its index."""
        self.points.append(calibration_point())
        return len(self.points) - 1

    def factor(self, before: int, after: int) -> float:
        """Scale for work measured between points ``before`` and ``after``."""
        return NOMINAL_NS / ((self.points[before] + self.points[after]) / 2)

    def median_factor(self) -> float:
        ordered = sorted(self.points)
        return NOMINAL_NS / ordered[len(ordered) // 2] if ordered else 1.0


class Calibrated:
    """Timings scaled block by block by the calibration points around each block.

    Call :meth:`add` after each timed operation; once ``BLOCK_NS`` has
    passed since the block began, the next calibration point is taken
    (outside any operation's timing) and the block's timings are scaled.
    :meth:`finish` closes the last block.
    """

    def __init__(self, speed: SpeedLog) -> None:
        self.speed = speed
        self.raw: List[int] = []
        self.scaled: List[float] = []
        self._point = speed.mark()
        self._block_end = time.perf_counter_ns() + BLOCK_NS

    def add(self, elapsed_ns: int) -> None:
        self.raw.append(elapsed_ns)
        if time.perf_counter_ns() >= self._block_end:
            self.finish()

    def finish(self) -> None:
        if len(self.scaled) == len(self.raw):
            return
        following = self.speed.mark()
        factor = self.speed.factor(self._point, following)
        self.scaled.extend(ns * factor for ns in self.raw[len(self.scaled) :])
        self._point = following
        self._block_end = time.perf_counter_ns() + BLOCK_NS
