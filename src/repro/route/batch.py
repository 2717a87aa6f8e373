"""Batched routing with deduplication.

Synthesis optimizers evaluate placements in batches, and — exactly as with
placement queries — those batches are heavy with repeats: distinct sizing
points collapse onto the same dimension vector and therefore the same
floorplan.  Identical placements route identically, so
:func:`route_batch` routes each unique rect-set once and fans the
:class:`~repro.route.result.RoutedLayout` back out.  Spreading unique
layouts across cores is the process pool's job
(``PlacementService.route_batch(workers=N)``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.placement import Placement
from repro.circuit.netlist import Circuit
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect
from repro.route.result import RoutedLayout
from repro.route.router import GlobalRouter, RouterConfig
from repro.utils.grouping import group_positions, scatter
from repro.utils.timer import Timer

#: Hashable identity of one placement's rect-set.
RectsKey = Tuple[Tuple[str, int, int, int, int], ...]


@dataclass
class RouteBatchResult:
    """Everything produced by one batched routing call."""

    #: One routed layout per input placement, in input order.
    results: List[RoutedLayout]
    #: Number of unique rect-sets actually routed.
    unique_layouts: int
    #: Number of inputs answered by deduplication.
    duplicate_layouts: int
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> RoutedLayout:
        return self.results[index]

    @property
    def total_layouts(self) -> int:
        """Number of input placements."""
        return len(self.results)

    @property
    def total_overflow(self) -> int:
        """Summed overflow over the unique routed layouts."""
        groups = group_positions(id(layout) for layout in self.results)
        return sum(self.results[positions[0]].overflow for positions in groups.values())


def rects_key(rects: Mapping[str, Rect]) -> RectsKey:
    return tuple(
        sorted((name, r.x, r.y, r.w, r.h) for name, r in rects.items())
    )


def route_batch(
    circuit: Circuit,
    placements: Sequence[Union[Placement, Mapping[str, Rect]]],
    bounds: Optional[FloorplanBounds] = None,
    config: Optional[RouterConfig] = None,
) -> RouteBatchResult:
    """Route every placement in ``placements``, deduplicating identical ones."""
    router = GlobalRouter(circuit, bounds=bounds, config=config)
    with Timer() as timer:
        rects_batch = [
            placement.rects if isinstance(placement, Placement) else placement
            for placement in placements
        ]
        groups = group_positions(rects_key(rects) for rects in rects_batch)
        layouts = [router.route(rects_batch[positions[0]]) for positions in groups.values()]
        results = scatter(groups, layouts)
    return RouteBatchResult(
        results=results,
        unique_layouts=len(groups),
        duplicate_layouts=len(placements) - len(groups),
        elapsed_seconds=timer.elapsed,
    )
