"""Tests for structure serialization."""

import json

import pytest

from repro.circuit.block import Block
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.serialization import (
    circuit_from_dict,
    circuit_to_dict,
    load_structure,
    save_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from repro.benchcircuits.library import get_benchmark


class TestCircuitRoundtrip:
    def test_roundtrip_preserves_statistics(self):
        circuit = get_benchmark("two_stage_opamp")
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        assert rebuilt.summary() == circuit.summary()
        assert rebuilt.block_names() == circuit.block_names()
        assert [n.name for n in rebuilt.nets] == [n.name for n in circuit.nets]
        assert len(rebuilt.symmetry_groups) == len(circuit.symmetry_groups)

    def test_roundtrip_preserves_pins_and_bounds(self):
        circuit = get_benchmark("two_stage_opamp")
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        original_block = circuit.block("dp")
        rebuilt_block = rebuilt.block("dp")
        assert set(rebuilt_block.pins) == set(original_block.pins)
        assert rebuilt_block.min_dims == original_block.min_dims
        assert rebuilt_block.max_dims == original_block.max_dims
        assert rebuilt_block.device_type == original_block.device_type


class TestStructureRoundtrip:
    def test_dict_roundtrip_preserves_queries(self, generated_chain_structure):
        structure = generated_chain_structure
        rebuilt = structure_from_dict(structure_to_dict(structure))
        assert rebuilt.num_placements == structure.num_placements
        assert rebuilt.fallback_anchors == structure.fallback_anchors
        circuit = structure.circuit
        # Every stored placement is found at its best dimensions in both.
        for placement in structure:
            if not placement.best_dims:
                continue
            dims = list(placement.best_dims)
            original = structure.query_candidates(dims)
            restored = rebuilt.query_candidates(dims)
            assert original == restored
        rebuilt.check_invariants()

    def test_file_roundtrip(self, generated_chain_structure, tmp_path):
        path = save_structure(generated_chain_structure, tmp_path / "structure.json")
        assert path.exists()
        loaded = load_structure(path)
        assert loaded.num_placements == generated_chain_structure.num_placements
        assert loaded.bounds.width == generated_chain_structure.bounds.width

    def test_unsupported_version_rejected(self, generated_chain_structure):
        data = structure_to_dict(generated_chain_structure)
        data["format_version"] = 999
        with pytest.raises(ValueError):
            structure_from_dict(data)

    def test_missing_version_rejected(self, generated_chain_structure):
        data = structure_to_dict(generated_chain_structure)
        del data["format_version"]
        with pytest.raises(ValueError):
            structure_from_dict(data)

    @pytest.mark.parametrize("index", [-1, 1.5, True])
    def test_bad_placement_index_rejected_at_load(self, generated_chain_structure, index):
        data = structure_to_dict(generated_chain_structure)
        data["placements"][-1]["index"] = index
        with pytest.raises(ValueError, match="non-negative int"):
            structure_from_dict(data)

    def test_bad_placement_index_rejected_by_load_structure(
        self, generated_chain_structure, tmp_path
    ):
        path = save_structure(generated_chain_structure, tmp_path / "structure.json")
        data = json.loads(path.read_text())
        data["placements"][0]["index"] = -1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="non-negative int"):
            load_structure(path)


class TestEdgeCaseRoundtrips:
    def build_minimal_structure(self):
        """A hand-built structure with no fallback anchors."""
        circuit = Circuit("edge")
        circuit.add_block(Block("m0", 4, 8, 4, 8, pins={}))
        circuit.add_block(Block("m1", 4, 8, 4, 8, pins={}))
        structure = MultiPlacementStructure(circuit, FloorplanBounds(40, 40))
        structure.add_placement(
            anchors=[(0, 0), (10, 0)],
            ranges=[
                DimensionRange(Interval(4, 8), Interval(4, 8)),
                DimensionRange(Interval(4, 8), Interval(4, 8)),
            ],
            average_cost=5.0,
            best_cost=5.0,
        )
        return structure

    def test_structure_without_fallback_anchors(self):
        structure = self.build_minimal_structure()
        assert structure.fallback_anchors is None
        rebuilt = structure_from_dict(structure_to_dict(structure))
        assert rebuilt.fallback_anchors is None
        assert rebuilt.num_placements == 1

    def test_blocks_with_empty_pin_dicts(self):
        structure = self.build_minimal_structure()
        rebuilt = structure_from_dict(structure_to_dict(structure))
        for name in ("m0", "m1"):
            # Only the auto-added center pin exists, before and after.
            assert set(rebuilt.circuit.block(name).pins) == {"c"}
            assert set(structure.circuit.block(name).pins) == {"c"}

    def test_net_with_non_default_io_position(self):
        circuit = (
            CircuitBuilder("io_edge")
            .block("m0", 4, 8, 4, 8)
            .net("out", ("m0", "c"), external=True, io_position=(1.0, 0.25))
            .build()
        )
        rebuilt = circuit_from_dict(circuit_to_dict(circuit))
        net = rebuilt.net("out")
        assert net.external
        assert net.io_position == (1.0, 0.25)

    def test_empty_placement_list_roundtrip(self):
        circuit = Circuit("empty")
        circuit.add_block(Block("m0", 4, 8, 4, 8))
        structure = MultiPlacementStructure(circuit, FloorplanBounds(20, 20))
        rebuilt = structure_from_dict(structure_to_dict(structure))
        assert rebuilt.num_placements == 0
        assert rebuilt.query([(5, 5)]) is None


class TestAtomicSave:
    def test_save_leaves_no_temp_files(self, generated_chain_structure, tmp_path):
        save_structure(generated_chain_structure, tmp_path / "structure.json")
        assert [p.name for p in tmp_path.iterdir()] == ["structure.json"]

    def test_save_replaces_existing_file(self, generated_chain_structure, tmp_path):
        path = tmp_path / "structure.json"
        path.write_text("not json")
        save_structure(generated_chain_structure, path)
        loaded = load_structure(path)
        assert loaded.num_placements == generated_chain_structure.num_placements

    def test_failed_save_preserves_the_old_file(self, generated_chain_structure, tmp_path, monkeypatch):
        path = tmp_path / "structure.json"
        save_structure(generated_chain_structure, path)
        before = path.read_text()

        import repro.core.serialization as serialization

        def boom(structure):
            raise RuntimeError("serialization exploded")

        monkeypatch.setattr(serialization, "structure_to_dict", boom)
        with pytest.raises(RuntimeError):
            save_structure(generated_chain_structure, path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["structure.json"]
