"""The multi-placement structure itself.

This is the function ``M`` of Equation 1: it maps a vector of block
dimensions to the single stored placement whose dimension box contains the
vector (Equations 4 and 5), and falls back to a template placement for the
uncovered remainder of the dimension space (Section 3.1.4).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.core.intervals import IntervalList, mask_indices
from repro.core.placement_entry import Anchor, DimensionRange, Dims, StoredPlacement
from repro.geometry.floorplan import FloorplanBounds
from repro.utils.logging_utils import get_logger

LOGGER = get_logger("core.structure")


class MultiPlacementStructure:
    """Per-topology container of pre-optimized placements, queried by block dimensions.

    Parameters
    ----------
    circuit:
        The topology this structure was generated for.
    bounds:
        The floorplan canvas the stored placements live on.
    """

    def __init__(self, circuit: Circuit, bounds: FloorplanBounds) -> None:
        self._circuit = circuit
        self._bounds = bounds
        self._width_rows: List[IntervalList] = [IntervalList() for _ in circuit.blocks]
        self._height_rows: List[IntervalList] = [IntervalList() for _ in circuit.blocks]
        self._placements: Dict[int, StoredPlacement] = {}
        self._next_index = 0
        self._fallback_anchors: Optional[Tuple[Anchor, ...]] = None
        self._mutations = 0

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def circuit(self) -> Circuit:
        """The circuit topology the structure belongs to."""
        return self._circuit

    @property
    def bounds(self) -> FloorplanBounds:
        """The floorplan canvas of the stored placements."""
        return self._bounds

    @property
    def num_placements(self) -> int:
        """Number of stored placements (the paper's Table 2 "Placements" column)."""
        return len(self._placements)

    def __len__(self) -> int:
        return len(self._placements)

    def __iter__(self) -> Iterator[StoredPlacement]:
        return iter(sorted(self._placements.values(), key=lambda sp: sp.index))

    def placements(self) -> List[StoredPlacement]:
        """All stored placements, ordered by index."""
        return list(iter(self))

    def placement(self, index: int) -> StoredPlacement:
        """The stored placement with the given index."""
        try:
            return self._placements[index]
        except KeyError as exc:
            raise KeyError(f"no stored placement with index {index}") from exc

    def has_placement(self, index: int) -> bool:
        """True when a placement with ``index`` is stored."""
        return index in self._placements

    @property
    def mutation_count(self) -> int:
        """Bumped whenever the stored placement set changes (a cheap staleness check)."""
        return self._mutations

    @property
    def fallback_anchors(self) -> Optional[Tuple[Anchor, ...]]:
        """Template anchors used for queries outside the covered space."""
        return self._fallback_anchors

    def set_fallback(self, anchors: Sequence[Anchor]) -> None:
        """Set the template placement covering the uncovered dimension space.

        The anchors must be valid (overlap-free, in bounds) when every block
        takes its *maximum* dimensions; they are then valid for any smaller
        dimensions because blocks grow from their lower-left anchor.
        """
        if len(anchors) != self._circuit.num_blocks:
            raise ValueError("fallback must provide one anchor per block")
        self._fallback_anchors = tuple((int(x), int(y)) for x, y in anchors)

    # ------------------------------------------------------------------ #
    # Row maintenance (the Store Placement routine)
    # ------------------------------------------------------------------ #
    def width_row(self, block_index: int) -> IntervalList:
        """The ``W_i`` row of block ``block_index``."""
        return self._width_rows[block_index]

    def height_row(self, block_index: int) -> IntervalList:
        """The ``H_i`` row of block ``block_index``."""
        return self._height_rows[block_index]

    def allocate_index(self) -> int:
        """Reserve a fresh placement index."""
        index = self._next_index
        self._next_index += 1
        return index

    def add_placement(
        self,
        anchors: Sequence[Anchor],
        ranges: Sequence[DimensionRange],
        average_cost: float,
        best_cost: float,
        best_dims: Sequence[Dims] = (),
        index: Optional[int] = None,
    ) -> StoredPlacement:
        """Store a new placement and register its intervals in every row.

        ``index`` defaults to a fresh one; an explicit index must pass
        :meth:`store`'s checks.
        """
        placement = StoredPlacement(
            index=self.allocate_index() if index is None else index,
            anchors=tuple(anchors),
            ranges=list(ranges),
            average_cost=average_cost,
            best_cost=best_cost,
            best_dims=tuple(best_dims),
        )
        return self.store(placement)

    def store(self, placement: StoredPlacement) -> StoredPlacement:
        """Store an already-built :class:`StoredPlacement` (index must be unused).

        The index is the placement's bit in every row mask, so it must be a
        non-negative ``int`` (not a ``bool``); anything else raises
        ``ValueError`` before the structure changes.
        """
        index = placement.index
        if type(index) is bool or not isinstance(index, int) or index < 0:
            raise ValueError(f"placement index must be a non-negative int, got {index!r}")
        if index in self._placements:
            raise ValueError(f"placement index {index} already stored")
        self._next_index = max(self._next_index, index + 1)
        self._placements[index] = placement
        self._insert_rows(placement)
        self._mutations += 1
        return placement

    def remove_placement(self, index: int) -> None:
        """Remove a stored placement and all its row entries."""
        placement = self.placement(index)
        self._remove_rows(placement)
        del self._placements[index]
        self._mutations += 1

    def update_ranges(self, index: int, ranges: Sequence[DimensionRange]) -> StoredPlacement:
        """Replace a stored placement's dimension ranges (used by overlap resolution)."""
        placement = self.placement(index)
        self._remove_rows(placement)
        placement.ranges = list(ranges)
        self._insert_rows(placement)
        self._mutations += 1
        return placement

    def _insert_rows(self, placement: StoredPlacement) -> None:
        for block_index, dim_range in enumerate(placement.ranges):
            self._width_rows[block_index].insert(dim_range.width, placement.index)
            self._height_rows[block_index].insert(dim_range.height, placement.index)

    def _remove_rows(self, placement: StoredPlacement) -> None:
        for block_index in range(len(placement.ranges)):
            self._width_rows[block_index].remove_index(placement.index)
            self._height_rows[block_index].remove_index(placement.index)

    # ------------------------------------------------------------------ #
    # Queries (the function M)
    # ------------------------------------------------------------------ #
    def _candidate_mask(self, dims: Sequence[Dims]) -> int:
        """Bitmask of the placements whose box contains ``dims`` (Equation 4).

        Each block ANDs in its width- and height-row masks; the scan stops
        as soon as the mask is empty.
        """
        if len(dims) != self._circuit.num_blocks:
            raise ValueError(
                f"dimension vector must have {self._circuit.num_blocks} entries, got {len(dims)}"
            )
        if not dims:
            return 0
        mask = -1
        for width_row, height_row, (w, h) in zip(self._width_rows, self._height_rows, dims):
            mask &= width_row.mask_at(int(w)) & height_row.mask_at(int(h))
            if not mask:
                return 0
        return mask

    def query_candidates(self, dims: Sequence[Dims]) -> FrozenSet[int]:
        """Intersection of all row queries for the dimension vector (Equation 4)."""
        return mask_indices(self._candidate_mask(dims))

    def query(self, dims: Sequence[Dims]) -> Optional[StoredPlacement]:
        """The stored placement covering ``dims``, or ``None`` when uncovered.

        Equation 5 guarantees at most one candidate; if overlap resolution
        was bypassed (e.g. a hand-built structure) and several placements
        match, the one with the lowest ``(average_cost, index)`` is returned.
        """
        mask = self._candidate_mask(dims)
        if not mask:
            return None
        if not mask & (mask - 1):
            return self._placements[mask.bit_length() - 1]
        candidates = mask_indices(mask)
        LOGGER.debug("query returned %d candidates; picking the lowest-cost one", len(candidates))
        return min(
            (self._placements[index] for index in candidates),
            key=lambda sp: (sp.average_cost, sp.index),
        )

    def instantiate(self, dims: Sequence[Dims]):
        """Convenience wrapper around :class:`repro.core.instantiator.PlacementInstantiator`."""
        from repro.core.instantiator import PlacementInstantiator

        return PlacementInstantiator(self).instantiate(dims)

    # ------------------------------------------------------------------ #
    # Overlap and coverage helpers
    # ------------------------------------------------------------------ #
    def overlapping_placements(self, ranges: Sequence[DimensionRange]) -> List[StoredPlacement]:
        """Stored placements whose dimension boxes intersect ``ranges``.

        This is the set ``I`` collected by the Resolve Overlaps routine.
        """
        probe = StoredPlacement(
            index=-1,
            anchors=tuple((0, 0) for _ in ranges),
            ranges=list(ranges),
            average_cost=0.0,
            best_cost=0.0,
        )
        return [sp for sp in self if sp.box_overlaps(probe)]

    def marginal_coverage(self) -> float:
        """Mean covered fraction over all rows (the explorer's stopping metric)."""
        fractions: List[float] = []
        for block_index, block in enumerate(self._circuit.blocks):
            width_span = block.width_span
            height_span = block.height_span
            fractions.append(self._width_rows[block_index].covered_length() / width_span)
            fractions.append(self._height_rows[block_index].covered_length() / height_span)
        if not fractions:
            return 0.0
        return sum(fractions) / len(fractions)

    def volume_coverage(self, rng: random.Random, samples: int = 2000) -> float:
        """Monte-Carlo estimate of the covered fraction of the full dimension space."""
        if samples <= 0:
            raise ValueError("samples must be positive")
        if not self._placements:
            return 0.0
        hits = 0
        for _ in range(samples):
            dims = [
                (rng.randint(block.min_w, block.max_w), rng.randint(block.min_h, block.max_h))
                for block in self._circuit.blocks
            ]
            if self.query_candidates(dims):
                hits += 1
        return hits / samples

    def check_invariants(self) -> None:
        """Verify the row invariants and Equation 5 (pairwise disjoint boxes)."""
        for row in self._width_rows + self._height_rows:
            row.check_invariants()
        placements = self.placements()
        for i in range(len(placements)):
            for j in range(i + 1, len(placements)):
                assert not placements[i].box_overlaps(placements[j]), (
                    f"placements {placements[i].index} and {placements[j].index} "
                    "overlap in dimension space (Equation 5 violated)"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MultiPlacementStructure(circuit={self._circuit.name!r}, "
            f"placements={self.num_placements}, coverage={self.marginal_coverage():.2f})"
        )
