"""Golden routes: the global router's output, pinned edge for edge.

Template placements of the four ``serve_mixed`` circuits at fixed seeded
dims are routed under ``RouterConfig()`` and ``RouterConfig(capacity=1)``
(the latter runs rip-up-and-reroute rounds), plus the mirrored-pair
circuit of ``tests/route/test_router.py`` (template placements produce no
mirrored nets).  Every net's sorted segments, stubs, ``repr`` of its
wirelength, ``mirrored_from`` and ``failed`` flag, and every layout's
overflow, congestion, iteration count and grid shape must equal
``fixtures/routes.json``.

The placed rects are part of the fixture, so the test pins the router
alone: the template placer's Kernighan-Lin split can change with the
interpreter's string-hash seed.  The fixture was produced by the
tuple-keyed A* router that preceded the compiled lattice kernel, and it
is never refreshed: a router change that moves a route is a behaviour
change, not a fixture update.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.baselines.template import TemplatePlacer
from repro.benchcircuits.library import get_benchmark
from repro.circuit.builder import CircuitBuilder
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect
from repro.route import RouterConfig, derive_bounds, route_placement

FIXTURE = Path(__file__).parent / "fixtures" / "routes.json"

CIRCUITS = ("two_stage_opamp", "single_ended_opamp", "mixer", "tso_cascode")

#: Seed of each circuit's dims draw.
DIMS_SEED = 7


def seeded_dims(circuit) -> List[Tuple[int, int]]:
    """Per-block dims drawn uniformly inside each block's bounds."""
    rng = random.Random(f"{DIMS_SEED}:{circuit.name}")
    return [
        (rng.randint(b.min_w, b.max_w), rng.randint(b.min_h, b.max_h))
        for b in circuit.blocks
    ]


def mirrored_pair():
    """Two symmetric nets over a self-symmetric tail (axis at x = 10)."""
    builder = CircuitBuilder("diff")
    builder.block("a_l", 4, 4, 4, 4)
    builder.block("a_r", 4, 4, 4, 4)
    builder.block("tail", 4, 4, 4, 4)
    builder.net("n_l", ("a_l", "c"), ("tail", "c"))
    builder.net("n_r", ("a_r", "c"), ("tail", "c"))
    builder.symmetry("s", pairs=[("a_l", "a_r")], self_symmetric=["tail"])
    rects = {
        "a_l": Rect(2, 10, 4, 4),
        "a_r": Rect(14, 10, 4, 4),
        "tail": Rect(8, 2, 4, 4),
    }
    return builder.build(), rects, FloorplanBounds(20, 20)


def template_rects(name: str) -> Dict[str, List[int]]:
    """``name``'s template placement at its seeded dims, as fixture input."""
    circuit = get_benchmark(name)
    rects = TemplatePlacer(circuit).place(seeded_dims(circuit)).rects
    return {block: [r.x, r.y, r.w, r.h] for block, r in sorted(rects.items())}


def route_cases(inputs: Dict[str, Dict[str, List[int]]]) -> Dict[str, object]:
    """Case name -> routed layout, for every pinned input.

    ``inputs`` maps each of :data:`CIRCUITS` to its placed rects.
    """
    configs = {"default": RouterConfig(), "capacity1": RouterConfig(capacity=1)}
    layouts: Dict[str, object] = {}
    for name in CIRCUITS:
        circuit = get_benchmark(name)
        rects = {block: Rect(*xywh) for block, xywh in inputs[name].items()}
        bounds = derive_bounds(rects)
        for label, config in configs.items():
            layouts[f"{name}/{label}"] = route_placement(
                circuit, rects, bounds=bounds, config=config
            )
    circuit, rects, bounds = mirrored_pair()
    for label, config in (
        ("res1", RouterConfig(resolution=1)),
        ("res1_capacity1", RouterConfig(resolution=1, capacity=1)),
    ):
        layouts[f"mirrored_pair/{label}"] = route_placement(
            circuit, rects, bounds=bounds, config=config
        )
    return layouts


def layout_snapshot(layout) -> dict:
    """The JSON-comparable facts the fixture pins for one layout."""
    return {
        "overflow": layout.overflow,
        "max_congestion": layout.max_congestion,
        "iterations": layout.iterations,
        "grid_shape": list(layout.grid_shape),
        "nets": {
            name: {
                "segments": [[*a, *b] for a, b in sorted(net.segments)],
                "stubs": [[*a, *b] for a, b in net.stubs],
                "wirelength": repr(net.wirelength),
                "mirrored_from": net.mirrored_from,
                "failed": net.failed,
            }
            for name, net in sorted(layout.nets.items())
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def snapshots(golden) -> dict:
    layouts = route_cases(golden["inputs"])
    return {name: layout_snapshot(layout) for name, layout in layouts.items()}


def test_fixture_covers_every_case(golden, snapshots):
    assert sorted(golden["inputs"]) == sorted(CIRCUITS)
    assert sorted(golden["cases"]) == sorted(snapshots)


@pytest.mark.parametrize(
    "case",
    [f"{name}/{label}" for name in CIRCUITS for label in ("default", "capacity1")]
    + ["mirrored_pair/res1", "mirrored_pair/res1_capacity1"],
)
def test_routes_match_golden(golden, snapshots, case):
    assert snapshots[case] == golden["cases"][case]


def test_fixture_exercises_ripup_and_mirroring(golden):
    # Guards the fixture's reach: without rip-up rounds and a mirrored net
    # the golden would not pin the negotiation loop or _mirror_route.
    cases = golden["cases"].values()
    assert any(case["iterations"] > 0 for case in cases)
    assert any(
        net["mirrored_from"] is not None
        for case in cases
        for net in case["nets"].values()
    )
