"""Tests for the multi-placement structure (Equations 1, 4, 5)."""

import random

import pytest

from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from tests.conftest import build_chain_circuit


def ranges_for(circuit, w, h):
    return [DimensionRange(Interval(*w), Interval(*h)) for _ in circuit.blocks]


@pytest.fixture
def structure():
    circuit = build_chain_circuit(3)
    bounds = FloorplanBounds(60, 60)
    return MultiPlacementStructure(circuit, bounds)


class TestStorage:
    def test_empty_structure(self, structure):
        assert structure.num_placements == 0
        assert len(structure) == 0
        assert structure.query([(5, 5)] * 3) is None
        assert structure.marginal_coverage() == 0.0

    def test_add_and_query(self, structure):
        circuit = structure.circuit
        placement = structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 8), (4, 8)),
            average_cost=10.0,
            best_cost=9.0,
            best_dims=[(6, 6)] * 3,
        )
        assert structure.num_placements == 1
        assert structure.placement(placement.index) is placement
        assert structure.query([(5, 5), (6, 6), (7, 7)]) is placement
        assert structure.query([(5, 5), (6, 6), (12, 7)]) is None

    def test_query_candidates_intersection(self, structure):
        circuit = structure.circuit
        structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 6), (4, 6)),
            average_cost=10.0,
            best_cost=9.0,
        )
        structure.add_placement(
            anchors=[(0, 20), (15, 20), (30, 20)],
            ranges=ranges_for(circuit, (7, 10), (7, 10)),
            average_cost=12.0,
            best_cost=11.0,
        )
        assert structure.query_candidates([(5, 5)] * 3) == {0}
        assert structure.query_candidates([(8, 8)] * 3) == {1}
        assert structure.query_candidates([(5, 8)] * 3) == frozenset()

    def test_query_wrong_length_rejected(self, structure):
        with pytest.raises(ValueError):
            structure.query([(5, 5)])

    def test_duplicate_index_rejected(self, structure):
        circuit = structure.circuit
        structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 6), (4, 6)),
            average_cost=10.0,
            best_cost=9.0,
            index=5,
        )
        with pytest.raises(ValueError):
            structure.add_placement(
                anchors=[(0, 0), (15, 0), (30, 0)],
                ranges=ranges_for(circuit, (7, 9), (7, 9)),
                average_cost=10.0,
                best_cost=9.0,
                index=5,
            )

    def test_remove_placement_clears_rows(self, structure):
        circuit = structure.circuit
        placement = structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 8), (4, 8)),
            average_cost=10.0,
            best_cost=9.0,
        )
        structure.remove_placement(placement.index)
        assert structure.num_placements == 0
        assert structure.query([(5, 5)] * 3) is None
        with pytest.raises(KeyError):
            structure.placement(placement.index)

    def test_update_ranges_moves_coverage(self, structure):
        circuit = structure.circuit
        placement = structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 6), (4, 6)),
            average_cost=10.0,
            best_cost=9.0,
        )
        structure.update_ranges(placement.index, ranges_for(circuit, (8, 10), (8, 10)))
        assert structure.query([(5, 5)] * 3) is None
        assert structure.query([(9, 9)] * 3) is placement

    def test_update_ranges_bumps_mutation_count(self, structure):
        circuit = structure.circuit
        placement = structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 6), (4, 6)),
            average_cost=10.0,
            best_cost=9.0,
        )
        before = structure.mutation_count
        structure.update_ranges(placement.index, ranges_for(circuit, (8, 10), (8, 10)))
        assert structure.mutation_count > before

    @pytest.mark.parametrize("index", [-1, 1.5, True, "0"])
    def test_bad_index_rejected_before_any_change(self, structure, index):
        circuit = structure.circuit
        with pytest.raises(ValueError, match="non-negative int"):
            structure.add_placement(
                anchors=[(0, 0), (15, 0), (30, 0)],
                ranges=ranges_for(circuit, (4, 6), (4, 6)),
                average_cost=10.0,
                best_cost=9.0,
                index=index,
            )
        assert structure.num_placements == 0
        assert structure.mutation_count == 0
        assert structure.query([(5, 5)] * 3) is None

    def test_store_rejects_a_negative_index(self, structure):
        probe = structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(structure.circuit, (4, 6), (4, 6)),
            average_cost=10.0,
            best_cost=9.0,
        )
        with pytest.raises(ValueError, match="non-negative int"):
            structure.store(probe.with_ranges(probe.ranges, index=-1))
        assert structure.num_placements == 1

    def test_multiple_candidates_prefers_lower_cost(self, structure):
        # Bypass overlap resolution deliberately to exercise the tie-break.
        circuit = structure.circuit
        structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 8), (4, 8)),
            average_cost=20.0,
            best_cost=18.0,
        )
        best = structure.add_placement(
            anchors=[(0, 20), (15, 20), (30, 20)],
            ranges=ranges_for(circuit, (4, 8), (4, 8)),
            average_cost=10.0,
            best_cost=9.0,
        )
        assert structure.query([(5, 5)] * 3) is best

    def test_equal_cost_candidates_prefer_lower_index(self, structure):
        circuit = structure.circuit
        for index in (7, 3, 5):
            structure.add_placement(
                anchors=[(0, 0), (15, 0), (30, 0)],
                ranges=ranges_for(circuit, (4, 8), (4, 8)),
                average_cost=10.0,
                best_cost=9.0,
                index=index,
            )
        assert structure.query_candidates([(5, 5)] * 3) == {3, 5, 7}
        assert structure.query([(5, 5)] * 3).index == 3


class TestCoverageAndInvariants:
    def test_marginal_coverage_grows_with_placements(self, structure):
        circuit = structure.circuit
        assert structure.marginal_coverage() == 0.0
        structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 6), (4, 6)),
            average_cost=10.0,
            best_cost=9.0,
        )
        first = structure.marginal_coverage()
        structure.add_placement(
            anchors=[(0, 20), (15, 20), (30, 20)],
            ranges=ranges_for(circuit, (7, 12), (7, 12)),
            average_cost=10.0,
            best_cost=9.0,
        )
        assert structure.marginal_coverage() > first

    def test_volume_coverage_bounds(self, structure):
        circuit = structure.circuit
        rng = random.Random(0)
        assert structure.volume_coverage(rng, samples=50) == 0.0
        structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=[
                DimensionRange(
                    Interval(block.min_w, block.max_w), Interval(block.min_h, block.max_h)
                )
                for block in circuit.blocks
            ],
            average_cost=10.0,
            best_cost=9.0,
        )
        assert structure.volume_coverage(rng, samples=50) == 1.0

    def test_volume_coverage_requires_samples(self, structure):
        with pytest.raises(ValueError):
            structure.volume_coverage(random.Random(0), samples=0)

    def test_check_invariants_detects_equation5_violation(self, structure):
        circuit = structure.circuit
        structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 8), (4, 8)),
            average_cost=10.0,
            best_cost=9.0,
        )
        structure.add_placement(
            anchors=[(0, 20), (15, 20), (30, 20)],
            ranges=ranges_for(circuit, (6, 10), (6, 10)),
            average_cost=11.0,
            best_cost=9.0,
        )
        with pytest.raises(AssertionError):
            structure.check_invariants()

    def test_overlapping_placements_probe(self, structure):
        circuit = structure.circuit
        stored = structure.add_placement(
            anchors=[(0, 0), (15, 0), (30, 0)],
            ranges=ranges_for(circuit, (4, 8), (4, 8)),
            average_cost=10.0,
            best_cost=9.0,
        )
        hits = structure.overlapping_placements(ranges_for(circuit, (6, 9), (6, 9)))
        assert hits == [stored]
        assert structure.overlapping_placements(ranges_for(circuit, (9, 12), (9, 12))) == []


class TestFallback:
    def test_set_fallback_validates_length(self, structure):
        with pytest.raises(ValueError):
            structure.set_fallback([(0, 0)])

    def test_fallback_used_by_instantiate(self, structure):
        structure.set_fallback([(0, 0), (20, 0), (40, 0)])
        result = structure.instantiate([(5, 5), (5, 5), (5, 5)])
        assert result.source == "fallback"
        assert result.placement_index is None
        rect_list = list(result.rects.values())
        assert rect_list[1].x == 20
