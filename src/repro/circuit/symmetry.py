"""Symmetry constraints for analog placement.

Analog layouts pair matched devices (differential pairs, current mirrors)
across a common axis to reject gradient mismatch.  The DATE'05 paper folds
such concerns into its "customizable" cost function; this module provides
the constraint description and the geometric mismatch measure used by
:mod:`repro.cost.penalties`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geometry.rect import Rect


@dataclass(frozen=True)
class SymmetryGroup:
    """A vertical-axis symmetry group.

    ``pairs`` lists blocks that must mirror each other across the group's
    (free) vertical axis; ``self_symmetric`` lists blocks whose center must
    lie on the axis.
    """

    name: str
    pairs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)
    self_symmetric: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("symmetry group name must be non-empty")
        if not isinstance(self.pairs, tuple) or not all(
            isinstance(pair, tuple) for pair in self.pairs
        ):
            object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if not isinstance(self.self_symmetric, tuple):
            object.__setattr__(self, "self_symmetric", tuple(self.self_symmetric))
        if not self.pairs and not self.self_symmetric:
            raise ValueError(f"symmetry group {self.name}: must constrain at least one block")

    def blocks(self) -> List[str]:
        """All block names constrained by the group."""
        names: List[str] = []
        for left, right in self.pairs:
            names.extend((left, right))
        names.extend(self.self_symmetric)
        return names

    def best_axis(self, rects: Dict[str, Rect]) -> float:
        """The axis position minimising squared mismatch for the given layout.

        The optimal shared vertical axis is the mean of the pair midpoints
        and self-symmetric centers.
        """
        candidates: List[float] = []
        for left, right in self.pairs:
            if left in rects and right in rects:
                candidates.append((rects[left].center[0] + rects[right].center[0]) / 2.0)
        for name in self.self_symmetric:
            if name in rects:
                candidates.append(rects[name].center[0])
        if not candidates:
            return 0.0
        return sum(candidates) / len(candidates)

    def mismatch(self, rects: Dict[str, Rect]) -> float:
        """Total axis-distance mismatch of the layout for this group.

        For each pair the mismatch is the distance between the pair midpoint
        and the group axis plus the vertical misalignment of the two blocks;
        for self-symmetric blocks it is the distance of their center from the
        axis.  A perfectly mirrored layout has zero mismatch.
        """
        axis = self.best_axis(rects)
        total = 0.0
        for left, right in self.pairs:
            if left not in rects or right not in rects:
                continue
            lc = rects[left].center
            rc = rects[right].center
            midpoint = (lc[0] + rc[0]) / 2.0
            total += abs(midpoint - axis)
            total += abs(lc[1] - rc[1])
        for name in self.self_symmetric:
            if name in rects:
                total += abs(rects[name].center[0] - axis)
        return total
