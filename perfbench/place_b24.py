"""``place_b24`` — the paper's Table 2 instantiation experiment on benchmark24.

One closed-loop caller sends distinct seeded queries through
``PlacementService.instantiate``.  The structure is generated once per
set-up at ``medium`` scale, seed 0.  The query set (see
:mod:`perfbench.queries`) is larger than the service's memo and is
replayed cyclically, so the LRU memo never hits: the work lands in the
fingerprint, the instantiator tiers and the scalar cost.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.calibrate import Calibrated, SpeedLog
from perfbench.common import (
    RunResult,
    check_inputs,
    mean,
    median,
    now_ns,
    percentile,
    self_peak_rss_mb,
    summary,
    tier_shares,
)
from perfbench.layers import (
    batch_us_per_candidate,
    install_placement_wrappers,
    layer_metrics,
    placement_layers,
    unattributed_ms,
)
from perfbench.queries import mixed_queries
from perfbench.tracing import Tracer

CIRCUIT = "benchmark24"
#: Distinct queries per run: more than the service memo (4096 entries),
#: so the cyclic replay evicts every entry before it is asked again.
QUERY_COUNT = 4800
SETUPS = 3
#: Queries per alternating untraced/traced block in the traced run.
TRACE_BLOCK = 300


def _setup(work: Path, tracer: Optional[Tracer]):
    """Generate, register and warm one structure; returns the parts and timings."""
    from repro.benchcircuits.library import get_benchmark
    from repro.core.generator import MultiPlacementGenerator
    from repro.experiments.config import get_scale
    from repro.service.engine import PlacementService
    from repro.service.registry import StructureRegistry

    start = now_ns()
    circuit = get_benchmark(CIRCUIT)
    config = get_scale("medium").generator_config(circuit, seed=0)
    generate_start = now_ns()
    structure = MultiPlacementGenerator(circuit, config).generate()
    generate_ns = now_ns() - generate_start
    registry = StructureRegistry(work)
    registry.put(structure, config)
    service = PlacementService(registry, default_config=config)
    if tracer is not None:
        install_placement_wrappers(tracer)
        tracer.active = True
    service.warm(circuit)
    if tracer is not None:
        tracer.active = False
        tracer.unwrap_all()
    return circuit, structure, service, (now_ns() - start) / 1e9, generate_ns / 1e9


def make_inputs(seed: int, structure) -> List[Tuple[Tuple[int, int], ...]]:
    return mixed_queries(structure, QUERY_COUNT, random.Random(seed))


def _check(structure, queries, answers) -> Tuple[int, Dict[str, bool]]:
    """Output checks on the first answer to every query; returns (failed, checks)."""
    from repro.cost.cost_function import PlacementCostFunction
    from repro.geometry.overlap import any_overlap

    oracle = PlacementCostFunction(structure.circuit, structure.bounds)
    blocks = structure.circuit.blocks
    bounds = structure.bounds
    bad = {"cost_matches_oracle": 0, "rects_match_dims": 0, "layouts_legal": 0}
    failed = 0
    for query, placement in zip(queries, answers):
        if placement is None:
            continue
        clamped = [block.clamp_dims(w, h) for block, (w, h) in zip(blocks, query)]
        rects = [placement.rects[block.name] for block in blocks]
        problems = set()
        if [(r.w, r.h) for r in rects] != clamped:
            problems.add("rects_match_dims")
        if placement.cost != oracle.evaluate_layout([(r.x, r.y) for r in rects], clamped):
            problems.add("cost_matches_oracle")
        if placement.source in ("structure", "nearest") and (
            any(not bounds.contains(r) for r in rects) or any_overlap(rects)
        ):
            problems.add("layouts_legal")
        for name in problems:
            bad[name] += 1
        failed += bool(problems)
    return failed, {name: count == 0 for name, count in bad.items()}


def run(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    tracer = Tracer() if trace else None
    speed = SpeedLog()
    setup_s: List[float] = []
    setup_raw_s: List[float] = []
    generate_s: List[float] = []
    for index in range(SETUPS):
        before = speed.mark()
        circuit, structure, service, elapsed, generated = _setup(work / f"setup{index}", tracer)
        setup_raw_s.append(elapsed)
        setup_s.append(elapsed * speed.factor(before, speed.mark()))
        generate_s.append(generated)

    queries = make_inputs(seed, structure)
    digest, input_checks = check_inputs(lambda s: make_inputs(s, structure), seed)

    count = len(queries)
    answers: List[object] = [None] * count
    # Later passes must repeat the first pass's answer exactly; compared
    # between calls, outside the timed region.
    repeat_mismatches = 0
    timings = Calibrated(speed)
    traced_flags: List[bool] = []
    errors = 0
    calls = 0
    deadline = now_ns() + int(seconds * 1e9)
    while True:
        traced = tracer is not None and (calls // TRACE_BLOCK) % 2 == 1
        if tracer is not None and calls % TRACE_BLOCK == 0:
            if traced:
                install_placement_wrappers(tracer)
                tracer.active = True
            else:
                tracer.active = False
                tracer.unwrap_all()
        index = calls % count
        if tracer is not None:
            tracer.request = calls
        started = now_ns()
        try:
            placement = service.instantiate(circuit, queries[index])
        except Exception:  # counted as a failed operation
            placement = None
            errors += 1
        finished = now_ns()
        traced_flags.append(traced)
        if calls < count:
            answers[index] = placement
        elif placement is not None:
            first = answers[index]
            if first is None or placement.cost != first.cost or placement.rects != first.rects:
                repeat_mismatches += 1
        calls += 1
        timings.add(finished - started)
        if finished >= deadline and calls >= count:
            break
    timings.finish()
    latencies, scaled = timings.raw, timings.scaled
    if tracer is not None:
        tracer.active = False
        tracer.unwrap_all()

    failed, checks = _check(structure, queries, answers)
    failed += errors + repeat_mismatches
    checks["repeat_identical"] = repeat_mismatches == 0
    checks.update(input_checks)
    checks["no_errors"] = errors == 0

    stats = service.snapshot()
    shares = tier_shares(stats.tier_counts)
    costs = [p.cost.total for p in answers if p is not None]
    report = {
        "inputs_sha256": digest,
        "queries": count,
        "calls": calls,
        "tier_counts": stats.tier_counts,
        "tier_share": shares,
        "memo_hits": stats.memo_hits,
        "placements_stored": structure.num_placements,
        "failed_frac": failed / calls,
        "speed_factor": speed.median_factor(),
    }
    untraced = [lat for lat, flag in zip(latencies, traced_flags) if not flag]
    samples = {
        "setup_s": summary(setup_s),
        "setup_raw_s": summary(setup_raw_s),
        "place_latency_ms": summary([x / 1e6 for x in scaled]),
        "place_latency_raw_ms": summary([x / 1e6 for x in latencies]),
    }

    if tracer is not None:
        traced_ns = [lat for lat, flag in zip(latencies, traced_flags) if flag]
        values = placement_layers(tracer)
        values["eval.batch_us_per_candidate"] = batch_us_per_candidate(structure, queries)
        values.update(
            {
                "service.memo_hit_rate": stats.memo_hits / stats.queries,
                "core.generate_s": median(generate_s),
                "core.placements": structure.num_placements,
                "trace.unattributed_ms": unattributed_ms(tracer, traced_ns),
                "trace.overhead_frac": mean(traced_ns) / mean(untraced) - 1.0,
            }
        )
        values.update({f"core.tier_share.{tier}": share for tier, share in shares.items()})
        tracer.write_jsonl(work.parent / "spans" / f"place_b24-seed{seed}.jsonl")
        report["spans"] = len(tracer.spans)
        metrics = layer_metrics(values)
    else:
        p50 = percentile([x / 1e6 for x in scaled], 0.5)
        # Time inside the calls only: the caller's bookkeeping between
        # calls is not the service's.
        qps = calls / (sum(scaled) / 1e9)
        cost_mean = mean(costs)
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "place_p50_ms": (p50, "ms"),
            "place_qps": (qps, "1/s"),
            "place_cost_mean": (cost_mean, "cost"),
            # No sizing loop and no daemon on this workload: these report
            # the instantiate stream's own figures (perfbench/README.md).
            "synth_evals_per_s": (qps, "1/s"),
            "synth_best_objective": (cost_mean, "objective"),
            "serve_cost_mean": (cost_mean, "cost"),
        }
    return RunResult(
        metrics=metrics,
        attempted=calls,
        failed=failed,
        checks=checks,
        samples=samples,
        report=report,
    )
