"""Per-layer metric names, the wrappers that measure them, isolated probes.

Layer names are the ``src/repro`` module that owns the code.  A traced
run reports every name below on every workload; a layer the workload's
path never enters reads 0.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Sequence, Tuple

from perfbench.common import TIERS, median
from perfbench.tracing import Tracer

#: ``name -> (unit, better)``, in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "service.fingerprint_us": ("us", "lower"),
    "service.overhead_us": ("us", "lower"),
    "service.memo_hit_rate": ("ratio", "higher"),
    "service.registry_fetch_ms": ("ms", "lower"),
    "core.generate_s": ("s", "lower"),
    "core.placements": ("count", "higher"),
    "core.query_us": ("us", "lower"),
    "core.instantiate_us.structure": ("us", "lower"),
    "core.instantiate_us.nearest": ("us", "lower"),
    "core.instantiate_us.fallback": ("us", "lower"),
    "core.tier_share.structure": ("ratio", "higher"),
    "core.tier_share.nearest": ("ratio", "higher"),
    "core.tier_share.fallback": ("ratio", "lower"),
    "cost.evaluate_us": ("us", "lower"),
    "eval.feasible_mask_us": ("us", "lower"),
    "eval.batch_us_per_candidate": ("us", "lower"),
    "route.route_ms": ("ms", "lower"),
    "route.memo_hit_rate": ("ratio", "higher"),
    "route.overflow": ("count", "lower"),
    "synthesis.sizing_us": ("us", "lower"),
    "synthesis.place_ms": ("ms", "lower"),
    "synthesis.parasitics_us": ("us", "lower"),
    "synthesis.performance_us": ("us", "lower"),
    "serve.rtt_ms": ("ms", "lower"),
    "serve.server_ms": ("ms", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.dedup_ratio": ("ratio", "higher"),
    "serve.shed": ("count", "lower"),
    "serve.affinity_hit_rate": ("ratio", "higher"),
    "parallel.pool_hop_ms.b1": ("ms", "lower"),
    "parallel.pool_hop_ms.b32": ("ms", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(values: Mapping[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; names absent from ``values`` read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit) for name, (unit, _) in PER_LAYER.items()
    }


def install_placement_wrappers(tracer: Tracer) -> None:
    """Spans around the placement path: service -> core -> cost/eval."""
    from repro.core.instantiator import PlacementInstantiator
    from repro.core.structure import MultiPlacementStructure
    from repro.cost.cost_function import PlacementCostFunction
    from repro.eval.vector import BatchEvaluator
    from repro.service import cache, engine, registry

    tracer.wrap(engine.PlacementService, "instantiate", "service.instantiate")
    tracer.wrap(engine, "structure_key", "service.fingerprint")
    tracer.wrap(registry.StructureRegistry, "fetch", "service.registry_fetch")
    tracer.wrap(
        cache.MemoizingInstantiator,
        "instantiate_with_info",
        "service.memo",
        tag=lambda result: result[1],
    )
    tracer.wrap(
        PlacementInstantiator,
        "instantiate",
        "core.instantiate",
        tag=lambda placement: placement.source,
    )
    tracer.wrap(MultiPlacementStructure, "query", "core.query")
    tracer.wrap(PlacementCostFunction, "evaluate", "cost.evaluate")
    tracer.wrap(BatchEvaluator, "feasible_mask", "eval.feasible_mask")


def _median_us(durations_ns: Sequence[int]) -> float:
    return median(durations_ns) / 1e3 if durations_ns else 0.0


def placement_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer placement figures from the spans of the traced operations."""
    by_request: Dict[int, Dict[str, int]] = {}
    for span in tracer.spans:
        if span["request"] is not None:
            per = by_request.setdefault(span["request"], {})
            per[span["name"]] = per.get(span["name"], 0) + span["end_ns"] - span["start_ns"]
    overhead = [
        per["service.instantiate"] - per.get("core.instantiate", 0)
        for per in by_request.values()
        if "service.instantiate" in per
    ]
    values = {
        "service.fingerprint_us": _median_us(tracer.durations_ns("service.fingerprint")),
        "service.overhead_us": _median_us(overhead),
        "core.query_us": _median_us(tracer.durations_ns("core.query")),
        "cost.evaluate_us": _median_us(tracer.durations_ns("cost.evaluate")),
        "eval.feasible_mask_us": _median_us(tracer.durations_ns("eval.feasible_mask")),
        "service.registry_fetch_ms": _median_us(tracer.durations_ns("service.registry_fetch")) / 1e3,
    }
    for tier in TIERS:
        values[f"core.instantiate_us.{tier}"] = _median_us(
            tracer.durations_ns("core.instantiate", tier)
        )
    return values


def unattributed_ms(tracer: Tracer, client_ns: Sequence[int]) -> float:
    """Mean client-observed time per operation minus the mean sum of layer self times.

    ``client_ns`` are the client's timings of the traced operations; the
    spans of those operations carry request ids.
    """
    if not client_ns:
        return 0.0
    self_times = tracer.self_times_ns()
    covered = sum(self_times[span["id"]] for span in tracer.spans if span["request"] is not None)
    return (sum(client_ns) - covered) / len(client_ns) / 1e6


def batch_us_per_candidate(structure, queries: Sequence, batch: int = 64, repeats: int = 30) -> float:
    """Median time of ``BatchEvaluator.breakdowns`` over ``batch`` layouts, per layout.

    The batch pairs the structure's stored anchors (round robin) with the
    first ``batch`` queries clamped into block bounds — the tensors the
    instantiator's batch path scores.
    """
    from repro.cost.cost_function import PlacementCostFunction
    from repro.eval.batch import batch_evaluator_for

    evaluator = batch_evaluator_for(PlacementCostFunction(structure.circuit, structure.bounds))
    if evaluator is None:
        return 0.0
    blocks = structure.circuit.blocks
    stored = structure.placements()
    anchors = [stored[i % len(stored)].anchors for i in range(batch)]
    dims = [
        tuple(block.clamp_dims(w, h) for block, (w, h) in zip(blocks, queries[i % len(queries)]))
        for i in range(batch)
    ]
    rects = evaluator.stack(anchors, dims)
    timings = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        evaluator.breakdowns(rects)
        timings.append(time.perf_counter_ns() - start)
    return median(timings) / batch / 1e3
