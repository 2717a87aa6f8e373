"""Property: the instantiator's compiled kernels agree with the scalar oracles.

A :class:`~repro.core.compiled.LegalityPlan` must answer what
``bounds.contains`` plus :func:`~repro.geometry.overlap.any_overlap`
answer on the placed rects, and an
:class:`~repro.core.compiled.IndexedScorer` must return the
:class:`~repro.cost.cost_function.CostBreakdown` of
:meth:`PlacementCostFunction.evaluate`, bit for bit.  Random structures
are biased toward the boundary cases of both: coincident and touching
anchors, blocks flush with the canvas edge, negative anchors, dims inside
and outside the block bounds, nets of every degree and nonzero penalty
weights.

The structure's compiled interval rows are checked the same way: through
random ``insert`` / ``remove_index`` / ``from_list`` / ``update_ranges``
sequences, every row probe and every Equation 4 lookup must match a brute
force over the stored boxes and the per-row ``frozenset`` intersection the
bitmask lookup replaced, tie rule included.  The scorer's inline
two-point nets are checked on netlists that interleave pin-pin, pin-I/O,
degree-0/1 and larger nets.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.circuit.net import Net, Terminal
from repro.circuit.netlist import Circuit
from repro.core.compiled import IndexedScorer, LegalityPlan
from repro.core.instantiator import PlacementInstantiator
from repro.core.intervals import Interval, IntervalList
from repro.core.placement_entry import DimensionRange, StoredPlacement
from repro.core.structure import MultiPlacementStructure
from repro.cost.cost_function import CostWeights, PlacementCostFunction
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.overlap import any_overlap
from repro.geometry.rect import Rect
from tests.properties.conftest import TRIALS, random_circuit

#: Dimension vectors checked per random structure.
QUERIES = 40


def box_ranges(circuit) -> List[DimensionRange]:
    """Each block's full bounds as its dimension range."""
    return [
        DimensionRange(Interval(b.min_w, b.max_w), Interval(b.min_h, b.max_h))
        for b in circuit.blocks
    ]


def random_anchors(rng: random.Random, circuit, bounds: FloorplanBounds) -> List[Tuple[int, int]]:
    """Anchors that often coincide, touch, sit flush with the canvas or go negative.

    The rest sit on a grid of the largest block, or anywhere on the canvas.
    """
    cell = (
        max(b.max_w for b in circuit.blocks),
        max(b.max_h for b in circuit.blocks),
    )
    columns = max(1, bounds.width // cell[0])
    anchors: List[Tuple[int, int]] = []
    for index, block in enumerate(circuit.blocks):
        coords = []
        slot = (index % columns, index // columns)
        for axis, extent, size in ((0, bounds.width, block.max_w), (1, bounds.height, block.max_h)):
            roll = rng.random()
            if roll < 0.5:
                coords.append(slot[axis] * cell[axis])
            elif anchors and roll < 0.65:
                coords.append(rng.choice(anchors)[axis])  # coincident
            elif anchors and roll < 0.8:
                other = rng.randrange(len(anchors))
                other_size = circuit.blocks[other].min_w if axis == 0 else circuit.blocks[other].min_h
                coords.append(anchors[other][axis] + other_size)  # touching at min dims
            elif roll < 0.88:
                coords.append(extent - size)  # flush with the far edge
            elif roll < 0.92:
                coords.append(-rng.randint(1, 3))  # never legal
            else:
                coords.append(rng.randint(0, extent))
        anchors.append((coords[0], coords[1]))
    return anchors


def random_dims(rng: random.Random, circuit) -> Tuple[Tuple[int, int], ...]:
    """Positive dims, inside the block bounds or beyond them on either side."""
    dims = []
    for block in circuit.blocks:
        if rng.random() < 0.6:
            dims.append((rng.randint(block.min_w, block.max_w), rng.randint(block.min_h, block.max_h)))
        else:
            dims.append((rng.randint(1, block.max_w + 8), rng.randint(1, block.max_h + 8)))
    return tuple(dims)


def placed(circuit, anchors, dims):
    return {
        block.name: Rect(x, y, w, h)
        for block, (x, y), (w, h) in zip(circuit.blocks, anchors, dims)
    }


def oracle_legal(bounds: FloorplanBounds, rects) -> bool:
    rect_list = list(rects.values())
    return all(bounds.contains(r) for r in rect_list) and not any_overlap(rect_list)


def with_every_degree(rng: random.Random, circuit) -> None:
    """Add nets of degree 0 (bounds-less external), 1, 2 and >= 3."""
    names = [block.name for block in circuit.blocks]
    io = (round(rng.random(), 3), round(rng.random(), 3))
    circuit.add_net(Net("deg0", (), weight=1.5, external=True, io_position=io))
    circuit.add_net(Net("deg1", (Terminal(rng.choice(names)),), weight=0.75))
    circuit.add_net(Net("deg2", tuple(Terminal(n) for n in rng.sample(names, 2)), weight=2.0))
    many = tuple(Terminal(rng.choice(names)) for _ in range(rng.randint(3, 6)))
    circuit.add_net(Net("deg3plus", many, weight=1.25, external=rng.random() < 0.5))


@pytest.mark.parametrize("seed", range(TRIALS))
def test_compiled_legality_matches_contains_and_any_overlap(seed):
    rng = random.Random(seed)
    circuit = random_circuit(rng)
    bounds = FloorplanBounds(rng.randint(30, 100), rng.randint(30, 100))
    stored = [
        StoredPlacement(
            index=k,
            anchors=random_anchors(rng, circuit, bounds),
            ranges=box_ranges(circuit),
            average_cost=1.0,
            best_cost=1.0,
        )
        for k in range(4)
    ]
    plan = LegalityPlan(stored, bounds)
    for _ in range(QUERIES):
        dims = random_dims(rng, circuit)
        legal = [oracle_legal(bounds, placed(circuit, sp.anchors, dims)) for sp in stored]
        expected = next((sp for sp, ok in zip(stored, legal) if ok), None)
        assert plan.first_legal(dims) is expected
        for sp, ok in zip(stored, legal):
            assert (LegalityPlan([sp], bounds).first_legal(dims) is sp) == ok


@pytest.mark.parametrize("seed", range(TRIALS))
def test_touching_and_coincident_pairs_exactly(seed):
    """Two blocks at a fixed offset: legal iff the lower one fits in the gap."""
    rng = random.Random(5000 + seed)
    circuit = random_circuit(rng)
    bounds = FloorplanBounds(200, 200)
    gap_x, gap_y = rng.randint(0, 6), rng.randint(0, 6)
    anchors = [(50, 50), (50 + gap_x, 50 + gap_y)] + [
        (150 + 10 * k, 150) for k in range(circuit.num_blocks - 2)
    ]
    sp = StoredPlacement(0, anchors, box_ranges(circuit), 1.0, 1.0)
    plan = LegalityPlan([sp], bounds)
    for _ in range(QUERIES):
        dims = tuple((rng.randint(1, 8), rng.randint(1, 8)) for _ in circuit.blocks)
        assert (plan.first_legal(dims) is sp) == oracle_legal(
            bounds, placed(circuit, anchors, dims)
        )


@pytest.mark.parametrize("model", ["hpwl", "star", "mst"])
@pytest.mark.parametrize("with_bounds", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_indexed_scorer_equals_evaluate(seed, with_bounds, model):
    rng = random.Random(9000 + seed)
    circuit = random_circuit(rng)
    with_every_degree(rng, circuit)
    bounds = FloorplanBounds(rng.randint(20, 60), rng.randint(20, 60)) if with_bounds else None
    weight_sets = [
        CostWeights(),
        CostWeights(
            wirelength=rng.uniform(0.1, 2.0),
            area=rng.uniform(0.01, 0.2),
            overlap=rng.uniform(0.5, 50.0),
            out_of_bounds=rng.uniform(0.5, 50.0),
            symmetry=rng.uniform(0.1, 5.0),
            aspect_ratio=rng.uniform(0.1, 5.0),
            routability=rng.uniform(0.1, 5.0),
        ),
    ]
    canvas = bounds or FloorplanBounds(40, 40)
    for weights in weight_sets:
        cost_function = PlacementCostFunction(circuit, bounds, weights, model)
        scorer = IndexedScorer(cost_function)
        for _ in range(QUERIES // 4):
            anchors = random_anchors(rng, circuit, canvas)
            dims = random_dims(rng, circuit)
            rects = placed(circuit, anchors, dims)
            assert scorer.evaluate(anchors, dims, rects) == cost_function.evaluate(rects)


def reference_answer(structure, dims):
    """``(source, index)`` by the scalar tier order: box, first legal by cost, fallback."""
    hit = structure.query(dims)
    if hit is not None:
        return "structure", hit.index
    for sp in sorted(structure, key=lambda sp: (sp.best_cost, sp.index)):
        if oracle_legal(structure.bounds, placed(structure.circuit, sp.anchors, dims)):
            return "nearest", sp.index
    return "fallback", None


@pytest.mark.parametrize("seed", range(TRIALS))
def test_instantiator_tiers_and_costs_match_the_oracles(seed):
    rng = random.Random(13000 + seed)
    circuit = random_circuit(rng)
    bounds = FloorplanBounds(rng.randint(30, 100), rng.randint(30, 100))
    structure = MultiPlacementStructure(circuit, bounds)
    for _ in range(rng.randint(1, 5)):
        narrow = [
            DimensionRange(
                Interval(b.min_w, rng.randint(b.min_w, b.max_w)),
                Interval(b.min_h, rng.randint(b.min_h, b.max_h)),
            )
            for b in circuit.blocks
        ]
        cost = round(rng.uniform(1.0, 3.0), 1)  # ties exercise the index order
        structure.add_placement(random_anchors(rng, circuit, bounds), narrow, cost + 1.0, cost)
    structure.set_fallback([(0, 0)] * circuit.num_blocks)
    instantiator = PlacementInstantiator(structure)
    oracle = PlacementCostFunction(circuit, bounds)
    for _ in range(QUERIES):
        dims = random_dims(rng, circuit)
        clamped = tuple(b.clamp_dims(w, h) for b, (w, h) in zip(circuit.blocks, dims))
        placement = instantiator.instantiate(dims)
        assert (placement.source, placement.metadata["placement_index"]) == reference_answer(
            structure, clamped
        )
        assert placement.cost == oracle.evaluate(dict(placement.rects))


class CountingCost(PlacementCostFunction):
    """A cost subclass with its own ``evaluate`` (a flat surcharge)."""

    calls = 0

    def evaluate(self, rects):
        CountingCost.calls += 1
        base = super().evaluate(rects)
        return self.compose(self.weights, base.wirelength + 1.0, base.area)


@pytest.mark.parametrize("seed", range(4))
def test_overriding_cost_subclass_is_still_called(seed):
    rng = random.Random(17000 + seed)
    circuit = random_circuit(rng)
    bounds = FloorplanBounds(60, 60)
    structure = MultiPlacementStructure(circuit, bounds)
    structure.add_placement(random_anchors(rng, circuit, bounds), box_ranges(circuit), 2.0, 1.0)
    structure.set_fallback([(0, 0)] * circuit.num_blocks)
    cost_function = CountingCost(circuit, bounds)
    instantiator = PlacementInstantiator(structure, cost_function)
    CountingCost.calls = 0
    for _ in range(10):
        placement = instantiator.instantiate(random_dims(rng, circuit))
        assert placement.cost == cost_function.evaluate(dict(placement.rects))
    assert CountingCost.calls == 20


def test_add_placement_after_first_query_rebuilds_the_plan():
    rng = random.Random(21000)
    circuit = random_circuit(rng)
    bounds = FloorplanBounds(250, 250)
    structure = MultiPlacementStructure(circuit, bounds)
    tight = [DimensionRange(Interval(b.min_w, b.min_w), Interval(b.min_h, b.min_h)) for b in circuit.blocks]
    # Every block stacked on one anchor: illegal at any dims.
    structure.add_placement([(0, 0)] * circuit.num_blocks, tight, 2.0, 1.0)
    structure.set_fallback([(30 * k, 100) for k in range(circuit.num_blocks)])
    instantiator = PlacementInstantiator(structure)
    dims = [b.max_dims for b in circuit.blocks]
    first = instantiator.instantiate(dims)
    assert first.source == "fallback"

    spread = structure.add_placement(
        [(30 * k, 0) for k in range(circuit.num_blocks)], tight, 6.0, 5.0
    )
    second = instantiator.instantiate(dims)
    assert (second.source, second.metadata["placement_index"]) == ("nearest", spread.index)

    # A cheaper legal placement added later takes over.
    cheaper = structure.add_placement(
        [(0, 30 * k) for k in range(circuit.num_blocks)], tight, 1.5, 0.5
    )
    third = instantiator.instantiate(dims)
    assert (third.source, third.metadata["placement_index"]) == ("nearest", cheaper.index)


# --------------------------------------------------------------------------- #
# Compiled interval rows and the Equation 4 lookup
# --------------------------------------------------------------------------- #
def brute_force_row(spans, value):
    """Indices whose registered spans in the row contain ``value``."""
    return frozenset(
        index for index, intervals in spans.items() if any(iv.contains(value) for iv in intervals)
    )


@pytest.mark.parametrize("seed", range(TRIALS))
def test_compiled_row_matches_brute_force_through_mutations(seed):
    rng = random.Random(23000 + seed)
    row = IntervalList()
    spans = {}
    for _ in range(rng.randint(5, 30)):
        roll = rng.random()
        if roll < 0.6 or not spans:
            start = rng.randint(0, 40)
            interval = Interval(start, start + rng.randint(0, 15))
            index = rng.randint(0, 12)
            row.insert(interval, index)
            spans.setdefault(index, []).append(interval)
        elif roll < 0.85:
            index = rng.choice(sorted(spans) + [99])
            row.remove_index(index)
            spans.pop(index, None)
        else:
            row = IntervalList.from_list(row.to_list())
        row.check_invariants()
        for value in range(-2, 60):
            expected = brute_force_row(spans, value)
            assert row.query(value) == expected
            assert row.mask_at(value) == sum(1 << index for index in expected)


def segment_query(row, value):
    """Per-row reference read straight from the row's segments."""
    for interval, indices in row:
        if interval.contains(value):
            return indices
    return frozenset()


def reference_candidates(structure, dims):
    """The per-row ``frozenset`` intersection of Equation 4."""
    result = None
    for block_index, (w, h) in enumerate(dims):
        hits = segment_query(structure.width_row(block_index), int(w)) & segment_query(
            structure.height_row(block_index), int(h)
        )
        result = hits if result is None else result & hits
    return frozenset(result or ())


def reference_query(structure, dims):
    candidates = reference_candidates(structure, dims)
    if not candidates:
        return None
    return min(
        (structure.placement(index) for index in candidates),
        key=lambda sp: (sp.average_cost, sp.index),
    )


def random_box(rng: random.Random, circuit) -> List[DimensionRange]:
    ranges = []
    for block in circuit.blocks:
        w0 = rng.randint(block.min_w, block.max_w)
        h0 = rng.randint(block.min_h, block.max_h)
        ranges.append(
            DimensionRange(
                Interval(w0, rng.randint(w0, block.max_w)),
                Interval(h0, rng.randint(h0, block.max_h)),
            )
        )
    return ranges


@pytest.mark.parametrize("seed", range(TRIALS))
def test_structure_lookup_matches_brute_force_and_row_intersection(seed):
    """Hand-built boxes overlap freely, so several candidates and cost ties occur."""
    rng = random.Random(27000 + seed)
    circuit = random_circuit(rng)
    structure = MultiPlacementStructure(circuit, FloorplanBounds(60, 60))
    anchors = [(0, 0)] * circuit.num_blocks
    for _ in range(rng.randint(4, 16)):
        roll = rng.random()
        if roll < 0.55 or not len(structure):
            cost = float(rng.randint(1, 3))  # few distinct costs: ties are common
            index = rng.choice([None, rng.randint(0, 40)])
            if index is not None and structure.has_placement(index):
                index = None
            structure.add_placement(anchors, random_box(rng, circuit), cost, cost, index=index)
        elif roll < 0.8:
            structure.update_ranges(rng.choice(structure.placements()).index, random_box(rng, circuit))
        else:
            structure.remove_placement(rng.choice(structure.placements()).index)
        stored = structure.placements()
        for _ in range(QUERIES // 4):
            if stored and rng.random() < 0.5:
                box = rng.choice(stored).ranges
                dims = [
                    (rng.randint(r.width.start, r.width.end), rng.randint(r.height.start, r.height.end))
                    for r in box
                ]
            else:
                dims = [
                    (rng.randint(b.min_w, b.max_w), rng.randint(b.min_h, b.max_h))
                    for b in circuit.blocks
                ]
            expected = frozenset(sp.index for sp in stored if sp.contains(dims))
            assert structure.query_candidates(dims) == expected
            assert reference_candidates(structure, dims) == expected
            assert structure.query(dims) is reference_query(structure, dims)


# --------------------------------------------------------------------------- #
# Inline two-point nets
# --------------------------------------------------------------------------- #
#: Net shapes as ``(block terminals, external)``; ``None`` terminals means 3-6.
NET_SHAPES = {
    "pin-pin": (2, False),
    "pin-io": (1, True),
    "pin-pin-io": (2, True),
    "io-only": (0, True),
    "lone-pin": (1, False),
    "many": (None, False),
    "many-io": (None, True),
}


def interleaved_netlist(rng: random.Random, circuit) -> Circuit:
    """``circuit``'s blocks with nets of every shape, in random order."""
    mixed = Circuit(circuit.name)
    for block in circuit.blocks:
        mixed.add_block(block)
    for index in range(rng.randint(6, 20)):
        count, external = NET_SHAPES[rng.choice(sorted(NET_SHAPES))]
        terminals = []
        for _ in range(rng.randint(3, 6) if count is None else count):
            block = rng.choice(circuit.blocks)
            terminals.append(Terminal(block.name, rng.choice(sorted(block.pins))))
        mixed.add_net(
            Net(
                f"n{index}",
                tuple(terminals),
                weight=rng.uniform(0.1, 3.0),
                external=external,
                io_position=(rng.random(), rng.random()),
            )
        )
    return mixed


@pytest.mark.parametrize("model", ["hpwl", "star", "mst"])
@pytest.mark.parametrize("with_bounds", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_inline_two_point_nets_equal_evaluate(seed, with_bounds, model):
    rng = random.Random(31000 + seed)
    circuit = interleaved_netlist(rng, random_circuit(rng))
    bounds = FloorplanBounds(rng.randint(20, 60), rng.randint(20, 60)) if with_bounds else None
    canvas = bounds or FloorplanBounds(40, 40)
    cost_function = PlacementCostFunction(circuit, bounds, CostWeights(), model)
    scorer = IndexedScorer(cost_function)
    for _ in range(QUERIES // 4):
        anchors = random_anchors(rng, circuit, canvas)
        dims = random_dims(rng, circuit)
        rects = placed(circuit, anchors, dims)
        assert scorer.evaluate(anchors, dims, rects) == cost_function.evaluate(rects)
