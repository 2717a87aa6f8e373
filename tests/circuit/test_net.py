"""Tests for nets, terminals and pins."""

import pytest

from repro.circuit.net import Net, Terminal, make_net
from repro.circuit.pin import Pin
from repro.geometry.rect import Rect


class TestPin:
    def test_position_in_rect(self):
        pin = Pin("d", 0.25, 0.75)
        assert pin.position(Rect(0, 0, 8, 4)) == (2.0, 3.0)

    def test_out_of_range_offsets_rejected(self):
        with pytest.raises(ValueError):
            Pin("d", 1.5, 0.5)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Pin("")


class TestTerminal:
    def test_defaults_to_center_pin(self):
        assert Terminal("m1").pin == "c"

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            Terminal("")


class TestNet:
    def test_basic_net(self):
        net = Net("n1", (Terminal("a"), Terminal("b")))
        assert net.num_terminals == 2
        assert net.degree == 2
        assert net.blocks() == ("a", "b")

    def test_external_net_counts_io_in_degree(self):
        net = Net("n1", (Terminal("a"),), external=True)
        assert net.num_terminals == 1
        assert net.degree == 2

    def test_net_without_terminals_must_be_external(self):
        with pytest.raises(ValueError):
            Net("n1", ())
        assert Net("pad", (), external=True).num_terminals == 0

    def test_duplicate_blocks_deduplicated_in_blocks(self):
        net = Net("n1", (Terminal("a", "d"), Terminal("a", "g"), Terminal("b")))
        assert net.blocks() == ("a", "b")
        assert net.num_terminals == 3

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            Net("n1", (Terminal("a"), Terminal("b")), weight=0.0)

    def test_io_position_validated(self):
        with pytest.raises(ValueError):
            Net("n1", (Terminal("a"),), external=True, io_position=(2.0, 0.0))

    def test_list_io_position_is_frozen_to_a_tuple(self):
        position = [1.0, 0.25]
        net = Net("n1", (Terminal("a"),), external=True, io_position=position)
        assert net.io_position == (1.0, 0.25)
        assert isinstance(net.io_position, tuple)
        # Hashable like every frozen net, and detached from the caller's list.
        assert hash(net) == hash(
            Net("n1", (Terminal("a"),), external=True, io_position=(1.0, 0.25))
        )
        position[0] = 0.0
        assert net.io_position == (1.0, 0.25)

    def test_with_weight(self):
        net = Net("n1", (Terminal("a"), Terminal("b")))
        heavier = net.with_weight(3.0)
        assert heavier.weight == 3.0
        assert heavier.terminals == net.terminals

    def test_make_net_helper(self):
        net = make_net("n1", ("a", "d"), ("b", "g"), weight=2.0)
        assert net.num_terminals == 2
        assert net.terminals[0] == Terminal("a", "d")
        assert net.weight == 2.0
