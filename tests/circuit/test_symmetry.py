"""Tests for symmetry groups and their mismatch measure."""

import pytest

from repro.circuit.symmetry import SymmetryGroup
from repro.geometry.rect import Rect


class TestSymmetryGroup:
    def test_requires_some_constraint(self):
        with pytest.raises(ValueError):
            SymmetryGroup("empty")

    def test_blocks_listing(self):
        group = SymmetryGroup("g", pairs=(("a", "b"),), self_symmetric=("c",))
        assert set(group.blocks()) == {"a", "b", "c"}

    def test_perfectly_mirrored_pair_has_zero_mismatch(self):
        group = SymmetryGroup("g", pairs=(("a", "b"),))
        rects = {"a": Rect(0, 0, 4, 4), "b": Rect(10, 0, 4, 4)}
        assert group.mismatch(rects) == pytest.approx(0.0)

    def test_vertical_misalignment_penalised(self):
        group = SymmetryGroup("g", pairs=(("a", "b"),))
        rects = {"a": Rect(0, 0, 4, 4), "b": Rect(10, 6, 4, 4)}
        assert group.mismatch(rects) == pytest.approx(6.0)

    def test_self_symmetric_block_off_axis(self):
        group = SymmetryGroup("g", pairs=(("a", "b"),), self_symmetric=("c",))
        rects = {
            "a": Rect(0, 0, 4, 4),
            "b": Rect(10, 0, 4, 4),
            "c": Rect(20, 0, 4, 4),
        }
        # Pair midpoint is x=7, block c center is x=22: the shared axis sits
        # between them, so both contribute mismatch.
        assert group.mismatch(rects) > 0.0

    def test_missing_blocks_ignored(self):
        group = SymmetryGroup("g", pairs=(("a", "b"),))
        assert group.mismatch({"a": Rect(0, 0, 4, 4)}) == 0.0

    def test_best_axis_of_empty_layout(self):
        group = SymmetryGroup("g", pairs=(("a", "b"),))
        assert group.best_axis({}) == 0.0

    def test_list_pairs_inside_a_tuple_are_frozen(self):
        pair = ["a", "b"]
        group = SymmetryGroup("g", pairs=(pair,))
        assert group.pairs == (("a", "b"),)
        pair[1] = "z"
        assert group.pairs == (("a", "b"),)
        hash(group)
