"""Batched placement instantiation with deduplication.

Synthesis optimizers (population-based sizing, parallel SA chains, design
space sweeps) naturally produce *batches* of dimension vectors, and those
batches are heavy with duplicates: module generators snap continuous sizes
onto integer grids, so distinct sizing points frequently collapse onto the
same dimension vector.  Instantiating each unique vector once and fanning
the results back out is therefore the single biggest win of the service
layer.  The unique queries are scored together in one vectorized sweep;
spreading a batch across cores is the process pool's job
(``PlacementService.instantiate_batch(workers=N)``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

from repro.api.placement import Placement
from repro.core.instantiator import ClampedDims, PlacementInstantiator
from repro.core.placement_entry import Dims
from repro.service.cache import MemoizingInstantiator
from repro.utils.grouping import group_positions, scatter
from repro.utils.timer import Timer

AnyInstantiator = Union[PlacementInstantiator, MemoizingInstantiator]


@dataclass
class BatchResult:
    """Everything produced by one batched instantiation call."""

    #: One placement per input query, in input order.
    results: List[Placement]
    #: Number of unique dimension vectors actually instantiated.
    unique_queries: int
    #: Number of input queries answered by deduplication.
    duplicate_queries: int
    elapsed_seconds: float = 0.0
    #: Sources of the returned placements, tallied over *all* queries.
    source_counts: Dict[str, int] = field(default_factory=dict)
    #: Merged worker/pool counters when the batch ran on a process pool
    #: (``pool_jobs``, ``pool_worker_processes``, worker stats deltas, …);
    #: empty for in-process batches.
    pool_stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Placement:
        return self.results[index]

    @property
    def total_queries(self) -> int:
        """Number of input queries."""
        return len(self.results)

    @property
    def queries_per_second(self) -> float:
        """Throughput of the batch call."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_queries / self.elapsed_seconds


def _dims_key(instantiator: AnyInstantiator, dims: Sequence[Dims]) -> ClampedDims:
    """The clamped, hashable dedup key of one query (not clamped again downstream)."""
    if isinstance(instantiator, MemoizingInstantiator):
        return instantiator.cache_key(dims)
    return instantiator.clamp(dims)


def instantiate_batch(
    instantiator: AnyInstantiator,
    dims_batch: Sequence[Sequence[Dims]],
) -> BatchResult:
    """Instantiate every dimension vector in ``dims_batch``.

    Identical vectors (after per-block clamping) are instantiated once and
    shared.  More than one unique query goes through the instantiator's
    :meth:`~repro.core.instantiator.PlacementInstantiator.instantiate_many`,
    which scores the whole batch in one vectorized cost sweep — bitwise
    identical to the per-query loop — and itself falls back to (and
    counts) the scalar loop when vectorization is unavailable.

    Parameters
    ----------
    instantiator:
        A :class:`PlacementInstantiator` or :class:`MemoizingInstantiator`.
    dims_batch:
        One dimension vector per query.
    """
    with Timer() as timer:
        num_blocks = instantiator.structure.circuit.num_blocks
        # Two-level dedup: exact repeats collapse on the raw vector without
        # paying the per-block clamp, then clamping merges the remainder.
        raw_groups = group_positions(tuple((w, h) for w, h in dims) for dims in dims_batch)
        for raw, positions in raw_groups.items():
            if len(raw) != num_blocks:
                raise ValueError(
                    f"dimension vector {positions[0]} must have {num_blocks} entries, "
                    f"got {len(raw)}"
                )
        clamped = [_dims_key(instantiator, raw) for raw in raw_groups]
        groups = group_positions(clamped)
        unique_keys = list(groups)
        if len(unique_keys) > 1:
            unique_results = instantiator.instantiate_many(unique_keys)
        else:
            unique_results = [instantiator.instantiate(key) for key in unique_keys]
        per_raw = scatter(groups, unique_results)
        results = scatter(raw_groups, per_raw)
        source_counts: Dict[str, int] = {}
        for result, positions in zip(per_raw, raw_groups.values()):
            source_counts[result.source] = source_counts.get(result.source, 0) + len(positions)
    return BatchResult(
        results=results,
        unique_queries=len(unique_keys),
        duplicate_queries=len(dims_batch) - len(unique_keys),
        elapsed_seconds=timer.elapsed,
        source_counts=source_counts,
    )
