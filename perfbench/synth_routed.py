"""``synth_routed`` — layout-inclusive sizing of the two-stage opamp with routing.

Each repetition is one sequential ``LayoutInclusiveSynthesis.run`` of
``two_stage_opamp_design()`` with ``routed_parasitics=True`` at the
optimizer's default iteration budget, through a ``{"kind": "service"}``
backend over a registry pre-seeded (at ``medium`` scale, seed 0) during
set-up.  The sizing run itself is fixed-seed: the work per evaluation
depends on the annealing trajectory (routing dominates and its memo hits
vary), so a seed-dependent trajectory would make ``synth_evals_per_s``
measure the seed rather than the program.  Repetitions fill
``SYNTHESIS_SHARE`` of the time budget (at least two, which must agree
on the best objective); each gets a fresh backend, so every repetition
does the same work.  The rest of the budget replays the loop's placement
queries, in an order shuffled by the workload seed, through fresh
``PlacementService`` instances: that replay times the placement layer on
this workload's query stream and checks the loop's placement costs.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.calibrate import Calibrated, SpeedLog
from perfbench.common import (
    TIERS,
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
from perfbench.tracing import Tracer

SETUPS = 3
MIN_REPETITIONS = 2
SYNTHESIS_SEED = 0
#: Share of the time budget spent in synthesis repetitions; the replay
#: gets the rest.
SYNTHESIS_SHARE = 0.75


def make_inputs(seed: int) -> Dict[str, object]:
    """The synthesis run's fixed inputs plus the seed that orders the replay."""
    from repro.synthesis.optimizer import SizingOptimizerConfig
    from repro.synthesis.opamp_design import two_stage_opamp_design

    design = two_stage_opamp_design()
    budget = SizingOptimizerConfig()
    return {
        "synthesis_seed": SYNTHESIS_SEED,
        "replay_seed": seed,
        "initial": design.sizing_model.design_space.default_point(),
        "max_iterations": budget.max_iterations,
        "moves_per_temperature": budget.moves_per_temperature,
    }


def _config(circuit):
    from repro.experiments.config import get_scale

    return get_scale("medium").generator_config(circuit, seed=0)


def _backend_spec(root: Path, circuit) -> Dict[str, object]:
    return {"kind": "service", "registry": str(root), "config": _config(circuit)}


def _setup(work: Path, tracer: Optional[Tracer]) -> Tuple[float, float]:
    """Generate and register the opamp structure, then warm a service backend."""
    from repro.api import make_placer
    from repro.core.generator import MultiPlacementGenerator
    from repro.service.registry import StructureRegistry
    from repro.synthesis.opamp_design import two_stage_opamp_design

    start = now_ns()
    circuit = two_stage_opamp_design().circuit
    config = _config(circuit)
    generate_start = now_ns()
    structure = MultiPlacementGenerator(circuit, config).generate()
    generate_s = (now_ns() - generate_start) / 1e9
    StructureRegistry(work).put(structure, config)
    placer = make_placer(_backend_spec(work, circuit), circuit)
    if tracer is not None:
        install_placement_wrappers(tracer)
        tracer.active = True
    placer.service.warm(circuit)
    if tracer is not None:
        tracer.active = False
        tracer.unwrap_all()
    return (now_ns() - start) / 1e9, generate_s


def _install_synthesis_wrappers(tracer: Tracer) -> None:
    from repro.route.router import GlobalRouter
    from repro.service.placer import ServicePlacer
    from repro.synthesis import loop
    from repro.synthesis.binding import CircuitSizingModel
    from repro.synthesis.performance import TwoStageOpampModel

    install_placement_wrappers(tracer)
    tracer.wrap(loop.LayoutInclusiveSynthesis, "evaluate", "synthesis.evaluate")
    tracer.wrap(CircuitSizingModel, "dims_for", "synthesis.sizing")
    tracer.wrap(ServicePlacer, "place", "synthesis.place")
    tracer.wrap(GlobalRouter, "route", "route.route", tag=lambda layout: layout.overflow)
    tracer.wrap(loop, "estimate_parasitics_from_routes", "synthesis.parasitics")
    tracer.wrap(TwoStageOpampModel, "evaluate", "synthesis.performance")


def _repetition(
    root: Path, inputs: Dict[str, object], tracer: Optional[Tracer], speed: SpeedLog
) -> Dict[str, object]:
    """One synthesis run on a fresh backend; per-evaluation timings and placements.

    Evaluation times are scaled to reference speed block by block
    (calibration runs between evaluations, outside their timing).
    """
    from repro.synthesis.loop import LayoutInclusiveSynthesis, SynthesisConfig
    from repro.synthesis.opamp_design import two_stage_opamp_design

    class TimedSynthesis(LayoutInclusiveSynthesis):
        """Times every sizing evaluation from the caller's side."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.timings = Calibrated(speed)
            self.placements: List[object] = []

        def evaluate(self, point):
            if tracer is not None:
                tracer.request = len(self.placements)
            started = now_ns()
            evaluation = super().evaluate(point)
            elapsed = now_ns() - started
            self.placements.append(evaluation.placement)
            self.timings.add(elapsed)
            return evaluation

    design = two_stage_opamp_design()
    synthesis = TimedSynthesis(
        design.sizing_model,
        design.performance_model,
        design.spec,
        backend=_backend_spec(root, design.circuit),
        config=SynthesisConfig(routed_parasitics=True),
        seed=inputs["synthesis_seed"],
    )
    try:
        synthesis.backend.service.warm(design.circuit)
        if tracer is not None:
            _install_synthesis_wrappers(tracer)
            tracer.active = True
        try:
            result = synthesis.run(dict(inputs["initial"]))
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.request = None
                tracer.unwrap_all()
        stats = synthesis.backend.stats()
    finally:
        synthesis.close()
    synthesis.timings.finish()
    return {
        "result": result,
        "evaluation_ns": synthesis.timings.raw,
        "scaled_ns": synthesis.timings.scaled,
        "placements": synthesis.placements,
        "stats": stats,
        "traced": tracer is not None,
    }


def _replay(
    root: Path, placements: List[object], rng: random.Random, speed: SpeedLog
) -> Tuple[List[float], int]:
    """Re-ask every query of one repetition, in shuffled order, through a fresh service.

    Returns the per-call latencies (scaled to reference speed) and the
    number of answers whose cost differs from the loop's placement for
    the same query.
    """
    from repro.service.engine import PlacementService
    from repro.service.registry import StructureRegistry
    from repro.synthesis.opamp_design import two_stage_opamp_design

    circuit = two_stage_opamp_design().circuit
    service = PlacementService(StructureRegistry(root), default_config=_config(circuit))
    service.warm(circuit)
    timings = Calibrated(speed)
    mismatches = 0
    for placement in rng.sample(placements, len(placements)):
        started = now_ns()
        answer = service.instantiate(circuit, placement.metadata["dims"])
        timings.add(now_ns() - started)
        mismatches += answer.cost != placement.cost
    timings.finish()
    return timings.scaled, mismatches


def run(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    tracer = Tracer() if trace else None
    speed = SpeedLog()
    setup_s: List[float] = []
    setup_raw_s: List[float] = []
    generate_s: List[float] = []
    for index in range(SETUPS):
        before = speed.mark()
        elapsed, generated = _setup(work / f"setup{index}", tracer)
        setup_raw_s.append(elapsed)
        setup_s.append(elapsed * speed.factor(before, speed.mark()))
        generate_s.append(generated)
    root = work / f"setup{SETUPS - 1}"

    inputs = make_inputs(seed)
    digest, checks = check_inputs(make_inputs, seed)

    repetitions: List[Dict[str, object]] = []
    budget_start = now_ns()
    while True:
        # A traced run alternates untraced and traced repetitions.
        traced = tracer is not None and len(repetitions) % 2 == 1
        started = now_ns()
        repetitions.append(_repetition(root, inputs, tracer if traced else None, speed))
        took = now_ns() - started
        spent = now_ns() - budget_start
        if len(repetitions) >= MIN_REPETITIONS and spent + took > SYNTHESIS_SHARE * seconds * 1e9:
            break

    untraced = [rep for rep in repetitions if not rep["traced"]]
    objectives = {rep["result"].best.objective for rep in repetitions}
    evaluations = {rep["result"].evaluations for rep in repetitions}
    checks["same_seed_same_objective"] = len(objectives) == 1
    checks["same_seed_same_evaluations"] = len(evaluations) == 1

    replay_ns: List[float] = []
    replay_mismatches = 0
    rng = random.Random(inputs["replay_seed"])
    while not replay_ns or now_ns() - budget_start < seconds * 1e9:
        latencies, mismatches = _replay(root, untraced[0]["placements"], rng, speed)
        replay_ns.extend(latencies)
        replay_mismatches += mismatches
    checks["replay_costs_match"] = replay_mismatches == 0

    attempted = sum(rep["result"].evaluations for rep in repetitions)
    failed = replay_mismatches + (0 if len(objectives) == 1 else len(repetitions))
    first = untraced[0]
    stats = first["stats"]
    counts = {
        "structure": stats["structure_hits"],
        "nearest": stats["nearest_hits"],
        "fallback": stats["fallback_hits"],
    }
    shares = tier_shares(counts)
    costs = [placement.cost.total for placement in first["placements"]]
    evaluation_ms = [ns / 1e6 for rep in untraced for ns in rep["scaled_ns"]]
    # Evaluations per second of evaluation time (at reference speed); the
    # calibration pauses between evaluations are not the loop's.
    rates = [len(rep["scaled_ns"]) / (sum(rep["scaled_ns"]) / 1e9) for rep in untraced]
    result = first["result"]
    report = {
        "inputs_sha256": digest,
        "repetitions": len(repetitions),
        "evaluations": result.evaluations,
        "best_objective": result.best.objective,
        "elapsed_s": [rep["result"].elapsed_seconds for rep in repetitions],
        "routing_s": [rep["result"].routing_seconds for rep in repetitions],
        "placement_s": [rep["result"].placement_seconds for rep in repetitions],
        "tier_counts": counts,
        "tier_share": shares,
        "memo_hits": stats["memo_hits"],
        "failed_frac": failed / attempted,
        "speed_factor": speed.median_factor(),
    }
    samples = {
        "setup_s": summary(setup_s),
        "setup_raw_s": summary(setup_raw_s),
        "evaluation_raw_ms": summary([ns / 1e6 for rep in untraced for ns in rep["evaluation_ns"]]),
        "synth_evals_per_s": summary(rates),
        "evaluation_ms": summary(evaluation_ms),
        "place_latency_ms": summary([ns / 1e6 for ns in replay_ns]),
    }

    if tracer is not None:
        traced_reps = [rep for rep in repetitions if rep["traced"]]
        traced_ns = [ns for rep in traced_reps for ns in rep["evaluation_ns"]]
        traced_evaluations = sum(rep["result"].evaluations for rep in traced_reps)
        routes = tracer.durations_ns("route.route")
        values = placement_layers(tracer)
        values["eval.batch_us_per_candidate"] = batch_us_per_candidate(
            _structure(root), [placement.metadata["dims"] for placement in first["placements"]]
        )
        values.update(
            {
                "service.memo_hit_rate": stats["memo_hits"] / stats["queries"],
                "core.generate_s": median(generate_s),
                "core.placements": _structure(root).num_placements,
                "route.route_ms": median(routes) / 1e6 if routes else 0.0,
                "route.memo_hit_rate": 1.0 - len(routes) / traced_evaluations,
                "route.overflow": mean(tracer.tags("route.route")),
                "synthesis.sizing_us": median(tracer.durations_ns("synthesis.sizing")) / 1e3,
                "synthesis.place_ms": median(tracer.durations_ns("synthesis.place")) / 1e6,
                "synthesis.parasitics_us": median(tracer.durations_ns("synthesis.parasitics")) / 1e3,
                "synthesis.performance_us": median(tracer.durations_ns("synthesis.performance")) / 1e3,
                "trace.unattributed_ms": unattributed_ms(tracer, traced_ns),
                "trace.overhead_frac": median(
                    [rep["result"].elapsed_seconds for rep in traced_reps]
                )
                / median([rep["result"].elapsed_seconds for rep in untraced])
                - 1.0,
            }
        )
        values.update({f"core.tier_share.{tier}": shares[tier] for tier in TIERS})
        tracer.write_jsonl(work.parent / "spans" / f"synth_routed-seed{seed}.jsonl")
        report["spans"] = len(tracer.spans)
        metrics = layer_metrics(values)
    else:
        evals_per_s = median(rates)
        replay_ms = [ns / 1e6 for ns in replay_ns]
        cost_mean = mean(costs)
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "place_p50_ms": (percentile(replay_ms, 0.5), "ms"),
            "place_qps": (len(replay_ns) / (sum(replay_ns) / 1e9), "1/s"),
            "place_cost_mean": (cost_mean, "cost"),
            "synth_evals_per_s": (evals_per_s, "1/s"),
            "synth_best_objective": (result.best.objective, "objective"),
            # No daemon on this workload (perfbench/README.md).
            "serve_cost_mean": (cost_mean, "cost"),
        }
    return RunResult(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        checks=checks,
        samples=samples,
        report=report,
    )


def _structure(root: Path):
    from repro.service.registry import StructureRegistry
    from repro.synthesis.opamp_design import two_stage_opamp_design

    circuit = two_stage_opamp_design().circuit
    return StructureRegistry(root).get(circuit, _config(circuit))
