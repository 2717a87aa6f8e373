"""Placement instantiation — the fast, online half of Figure 1.b.

During synthesis the sizing tool proposes device sizes, the module
generators turn them into block dimensions, and the instantiator asks the
multi-placement structure for the placement to use.

Three tiers are tried in order:

1. **structure** — the stored placement whose dimension box contains the
   query (the strict Equation 4/5 lookup).
2. **nearest** — when the query falls outside every stored box, the
   lowest-cost stored placement whose anchors still give a legal (in-bounds,
   overlap-free) layout for the queried dimensions.  This realises the
   paper's Figure 6 behaviour ("the lowest cost placement was selected,
   depending on the location of the proposed solution in the search
   space") for the uncovered part of the space.
3. **fallback** — the template placement registered on the structure
   (Section 3.1.4's "template-like placement for backup purposes").

Tier 2 can be disabled (``fallback_mode="template"``) to reproduce the
strictest reading of the paper.

A single query does no search the structure could have done ahead of
time (see :mod:`repro.core.compiled`).  Tier 1 ANDs the structure's
compiled row bitmasks (:mod:`repro.core.intervals`).  Tier 2 scans a
legality plan compiled once per structure state: per stored placement,
canvas caps and per-pair overlap thresholds of its fixed anchors, tried
in ascending ``(best_cost, index)`` order with early exit.  The plan
prunes nothing, so it stays sound for any positive dims.  The winner is
then scored from its index-ordered anchors and dims against a net table
compiled once per cost function, two-point nets inline — bitwise equal to
:meth:`~repro.cost.cost_function.PlacementCostFunction.evaluate`, which
still scores every layout for cost subclasses that override evaluation.

:class:`PlacementInstantiator` is the ``"mps"`` engine of the unified
placement API: it implements :class:`repro.api.Placer` (``place`` /
``place_batch`` / ``stats``), returns the unified
:class:`~repro.api.Placement` and keeps per-tier hit counters.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.placement import (
    Placement,
    SOURCE_FALLBACK,
    SOURCE_NEAREST,
    SOURCE_STRUCTURE,
)
from repro.api.placer import Placer
from repro.core.compiled import IndexedScorer, LegalityPlan
from repro.core.placement_entry import Dims, StoredPlacement
from repro.core.structure import MultiPlacementStructure
from repro.cost.cost_function import CostBreakdown, PlacementCostFunction
from repro.geometry.rect import Rect
from repro.utils.timer import Timer

#: Fallback behaviour when the query lies outside every stored box.
FALLBACK_BEST_STORED = "best_stored"
FALLBACK_TEMPLATE = "template"


class ClampedDims(tuple):
    """A dimension vector its caller already clamped into the circuit's bounds.

    :meth:`PlacementInstantiator.instantiate` and
    :meth:`~PlacementInstantiator.instantiate_many` skip their own clamping
    pass for this type.  Wrap only a vector clamped against the same
    instantiator's circuit, as the service memo and ``instantiate_batch``
    do with their keys.
    """

    __slots__ = ()


class PlacementInstantiator(Placer):
    """Turn dimension vectors into concrete floorplans using a generated structure."""

    name = "mps"

    def __init__(
        self,
        structure: MultiPlacementStructure,
        cost_function: Optional[PlacementCostFunction] = None,
        fallback_mode: str = FALLBACK_BEST_STORED,
    ) -> None:
        if fallback_mode not in (FALLBACK_BEST_STORED, FALLBACK_TEMPLATE):
            raise ValueError(
                f"fallback_mode must be '{FALLBACK_BEST_STORED}' or '{FALLBACK_TEMPLATE}'"
            )
        self._structure = structure
        self._cost_function = cost_function or PlacementCostFunction(
            structure.circuit, structure.bounds
        )
        self._fallback_mode = fallback_mode
        #: Scores winners from index-ordered anchors and dims; ``None`` for
        #: cost subclasses that override evaluation (their ``evaluate`` runs).
        self._scorer: Optional[IndexedScorer] = (
            IndexedScorer(self._cost_function)
            if self._cost_function.supports_vectorized
            else None
        )
        #: (structure mutation count, legality plan in ascending best-cost order).
        self._legality: Optional[Tuple[int, LegalityPlan]] = None
        self._stats_lock = threading.Lock()
        self._tier_hits: Dict[str, int] = {
            SOURCE_STRUCTURE: 0,
            SOURCE_NEAREST: 0,
            SOURCE_FALLBACK: 0,
        }
        self._queries = 0
        self._total_seconds = 0.0
        self._vector_counters: Dict[str, int] = {
            "batch_evals": 0,
            "batch_candidates": 0,
            "vector_fallbacks": 0,
        }

    @property
    def structure(self) -> MultiPlacementStructure:
        """The structure being queried."""
        return self._structure

    @property
    def fallback_mode(self) -> str:
        """The configured fallback behaviour."""
        return self._fallback_mode

    def clamp(self, dims: Sequence[Dims]) -> ClampedDims:
        """``dims`` clamped into the block bounds; a :class:`ClampedDims` is returned as is."""
        if type(dims) is ClampedDims:
            return dims
        return ClampedDims(
            block.clamp_dims(int(w), int(h))
            for block, (w, h) in zip(self._structure.circuit.blocks, dims)
        )

    def instantiate(self, dims: Sequence[Dims]) -> Placement:
        """Instantiate the best placement for ``dims`` (clamped into block bounds)."""
        with Timer() as timer:
            clamped = tuple(self.clamp(dims))
            rects, source, index, cost = self._lookup(clamped)
        with self._stats_lock:
            self._queries += 1
            self._tier_hits[source] += 1
            self._total_seconds += timer.elapsed
        return Placement(
            rects=rects,
            cost=cost,
            placer=self.name,
            source=source,
            elapsed_seconds=timer.elapsed,
            metadata={"dims": clamped, "placement_index": index},
        )

    # ------------------------------------------------------------------ #
    # Unified placement API
    # ------------------------------------------------------------------ #
    def place(self, dims: Sequence[Dims]) -> Placement:
        """Alias of :meth:`instantiate` (the :class:`repro.api.Placer` verb)."""
        return self.instantiate(dims)

    def place_batch(self, queries: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Batch instantiation with duplicate elimination.

        Delegates to :func:`repro.service.batch.instantiate_batch`, so any
        caller going through the unified API gets deduplication (and, when
        numpy is available, one vectorized cost sweep over the unique
        queries) for free.
        """
        from repro.service.batch import instantiate_batch

        return list(instantiate_batch(self, queries).results)

    def instantiate_many(self, dims_batch: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Instantiate a batch of queries, scoring every lookup in one sweep.

        Tier resolution (structure / nearest / fallback) runs per query
        exactly as :meth:`instantiate` would — tier-hit statistics are
        identical — but the winning layouts of the whole batch are then
        cost-evaluated in a single :class:`~repro.eval.BatchEvaluator`
        sweep instead of one scalar evaluation per query.  Costs are
        bitwise identical either way.  Falls back to the scalar loop when
        vectorization is unavailable (see
        :func:`repro.eval.batch.batch_evaluator_for`).
        """
        evaluator = self._vector()
        if evaluator is None:
            from repro.eval.batch import record_fallback

            record_fallback()
            with self._stats_lock:
                self._vector_counters["vector_fallbacks"] += 1
            return [self.instantiate(dims) for dims in dims_batch]

        from repro.eval.batch import record_batch

        with Timer() as timer:
            resolved: List[Tuple[Tuple[Dims, ...], Tuple[Tuple[int, int], ...], str, Optional[int]]] = []
            for dims in dims_batch:
                clamped = tuple(self.clamp(dims))
                anchors, source, index = self._resolve_anchors(clamped)
                resolved.append((clamped, anchors, source, index))
            anchors_batch = [anchors for _, anchors, _, _ in resolved]
            dims_stack = [clamped for clamped, _, _, _ in resolved]
            breakdowns = evaluator.breakdowns(
                evaluator.stack(anchors_batch, dims_stack)
            )
        count = len(resolved)
        record_batch(count)
        per_query = timer.elapsed / count if count else 0.0
        with self._stats_lock:
            self._queries += count
            for _, _, source, _ in resolved:
                self._tier_hits[source] += 1
            self._total_seconds += timer.elapsed
            self._vector_counters["batch_evals"] += 1
            self._vector_counters["batch_candidates"] += count
        return [
            Placement(
                rects=self._rects(anchors, clamped),
                cost=cost,
                placer=self.name,
                source=source,
                elapsed_seconds=per_query,
                metadata={"dims": clamped, "placement_index": index},
            )
            for (clamped, anchors, source, index), cost in zip(resolved, breakdowns)
        ]

    def vector_ready(self) -> bool:
        """True when batch lookups will score on the vectorized path."""
        return self._vector() is not None

    def vector_stats(self) -> Dict[str, int]:
        """Snapshot of the vectorized batch-scoring counters."""
        with self._stats_lock:
            return dict(self._vector_counters)

    def stats(self) -> Dict[str, float]:
        """Per-tier hit counters and timing of every query served."""
        with self._stats_lock:
            return {
                "queries": self._queries,
                "structure_hits": self._tier_hits[SOURCE_STRUCTURE],
                "nearest_hits": self._tier_hits[SOURCE_NEAREST],
                "fallback_hits": self._tier_hits[SOURCE_FALLBACK],
                "total_seconds": self._total_seconds,
                **self._vector_counters,
            }

    def instantiate_from_params(
        self,
        params_per_block: Mapping[str, Mapping[str, float]],
        generators: Mapping[str, "object"],
    ) -> Placement:
        """Instantiate from device sizing parameters via module generators.

        ``generators`` maps block names to :class:`~repro.modgen.base.ModuleGenerator`
        instances; ``params_per_block`` maps block names to their parameter
        values.  Blocks without an entry use their generator's defaults, and
        blocks without a generator keep their minimum dimensions.
        """
        circuit = self._structure.circuit
        dims = []
        for block in circuit.blocks:
            generator = generators.get(block.name)
            if generator is None:
                dims.append(block.min_dims)
                continue
            params = dict(params_per_block.get(block.name, {}))
            footprint = generator.footprint(**generator.resolve_params(params))
            dims.append(footprint.dims)
        return self.instantiate(dims)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _lookup(
        self, clamped: Tuple[Dims, ...]
    ) -> Tuple[Dict[str, Rect], str, Optional[int], CostBreakdown]:
        """``(rects, source, placement_index, cost)`` for one clamped query."""
        anchors, source, index = self._resolve_anchors(clamped)
        rects = self._rects(anchors, clamped)
        if self._scorer is None:
            return rects, source, index, self._cost_function.evaluate(rects)
        return rects, source, index, self._scorer.evaluate(anchors, clamped, rects)

    def _resolve_anchors(
        self, clamped: Tuple[Dims, ...]
    ) -> Tuple[Tuple[Tuple[int, int], ...], str, Optional[int]]:
        """``(anchors, source, placement_index)`` — the tier order, without costing."""
        placement = self._structure.query(clamped)
        if placement is not None:
            return placement.anchors, SOURCE_STRUCTURE, placement.index
        if self._fallback_mode == FALLBACK_BEST_STORED:
            stored = self._best_feasible_entry(clamped)
            if stored is not None:
                return stored.anchors, SOURCE_NEAREST, stored.index
        return self._fallback_anchors(), SOURCE_FALLBACK, None

    def _best_feasible_entry(self, dims: Tuple[Dims, ...]) -> Optional[StoredPlacement]:
        """First stored placement, in ascending ``(best_cost, index)`` order, legal at ``dims``.

        Scans the structure's :class:`~repro.core.compiled.LegalityPlan`,
        compiled on first use and again whenever ``mutation_count`` moves:
        per placement, the canvas caps first, then the block-pair overlap
        thresholds, each stopping at the first failure.  The plan answers
        exactly what ``bounds.contains`` plus ``any_overlap`` answer on the
        placed rects, for any positive dims — it prunes no pair, so a block
        whose bounds change later cannot leave it stale.
        """
        version = self._structure.mutation_count
        cached = self._legality
        if cached is None or cached[0] != version:
            ordered = sorted(self._structure, key=lambda sp: (sp.best_cost, sp.index))
            cached = (version, LegalityPlan(ordered, self._structure.bounds))
            self._legality = cached
        return cached[1].first_legal(dims)

    def _vector(self):
        """The cached batch evaluator of the cost function, or ``None`` (scalar loop)."""
        from repro.eval.batch import batch_evaluator_for

        return batch_evaluator_for(self._cost_function)

    def _fallback_anchors(self) -> Tuple[Tuple[int, int], ...]:
        anchors = self._structure.fallback_anchors
        if anchors is not None:
            return anchors
        # Last resort: pack the blocks at their maximum dimensions; valid for
        # any smaller dimensions because blocks grow from their anchor.
        from repro.geometry.packing import shelf_pack

        circuit = self._structure.circuit
        packed = shelf_pack(circuit.max_dims(), max_width=self._structure.bounds.width)
        return tuple(packed)

    def _rects(
        self, anchors: Sequence[Tuple[int, int]], dims: Sequence[Dims]
    ) -> Dict[str, Rect]:
        circuit = self._structure.circuit
        return {
            block.name: Rect(x, y, w, h)
            for block, (x, y), (w, h) in zip(circuit.blocks, anchors, dims)
        }
