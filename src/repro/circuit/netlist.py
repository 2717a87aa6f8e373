"""The :class:`Circuit` netlist container.

A circuit is "a set of N blocks" plus the nets connecting them (Section
2.1).  Blocks keep a stable index order because the multi-placement
structure stores one interval row per block per dimension, addressed by
block index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.circuit.block import Block
from repro.circuit.net import Net
from repro.circuit.symmetry import SymmetryGroup


@dataclass
class Circuit:
    """An analog circuit topology: named blocks, nets and symmetry groups."""

    name: str
    blocks: List[Block] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)
    symmetry_groups: List[SymmetryGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("circuit name must be non-empty")
        self._index: Dict[str, int] = {}
        #: Digest memo of :func:`repro.service.fingerprint.circuit_fingerprint`.
        self._fingerprint_memo: Dict[bool, Tuple[List[object], str]] = {}
        self._reindex()

    def _reindex(self) -> None:
        self._index = {block.name: i for i, block in enumerate(self.blocks)}
        if len(self._index) != len(self.blocks):
            raise ValueError(f"circuit {self.name}: duplicate block names")

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        """Number of blocks (the paper's N)."""
        return len(self.blocks)

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self.nets)

    @property
    def num_terminals(self) -> int:
        """Total number of block terminals across all nets (Table 1's Terminals)."""
        return sum(net.num_terminals for net in self.nets)

    def block_names(self) -> List[str]:
        """Block names in index order."""
        return [block.name for block in self.blocks]

    def block_index(self, name: str) -> int:
        """Index of the block called ``name``."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise KeyError(f"circuit {self.name} has no block named {name!r}") from exc

    def block(self, name: str) -> Block:
        """The block called ``name``."""
        return self.blocks[self.block_index(name)]

    def has_block(self, name: str) -> bool:
        """True when a block called ``name`` exists."""
        return name in self._index

    def net(self, name: str) -> Net:
        """The net called ``name``."""
        for net in self.nets:
            if net.name == name:
                return net
        raise KeyError(f"circuit {self.name} has no net named {name!r}")

    def min_dims(self) -> List[Tuple[int, int]]:
        """Per-block minimum dimensions in index order."""
        return [block.min_dims for block in self.blocks]

    def max_dims(self) -> List[Tuple[int, int]]:
        """Per-block maximum dimensions in index order."""
        return [block.max_dims for block in self.blocks]

    def dims_in_bounds(self, dims: Sequence[Tuple[int, int]]) -> bool:
        """True when every ``(w, h)`` in ``dims`` respects its block's bounds."""
        if len(dims) != self.num_blocks:
            return False
        return all(block.admits(w, h) for block, (w, h) in zip(self.blocks, dims))

    def nets_on_block(self, name: str) -> List[Net]:
        """All nets with at least one terminal on block ``name``."""
        return [net for net in self.nets if name in net.blocks()]

    # ------------------------------------------------------------------ #
    # Mutation (used by CircuitBuilder)
    # ------------------------------------------------------------------ #
    def add_block(self, block: Block) -> None:
        """Append a block, keeping the name index consistent."""
        if block.name in self._index:
            raise ValueError(f"circuit {self.name}: duplicate block {block.name!r}")
        self.blocks.append(block)
        self._index[block.name] = len(self.blocks) - 1

    def add_net(self, net: Net) -> None:
        """Append a net after checking its terminals reference known blocks."""
        for terminal in net.terminals:
            if terminal.block not in self._index:
                raise ValueError(
                    f"circuit {self.name}: net {net.name} references unknown block "
                    f"{terminal.block!r}"
                )
            self.block(terminal.block).pin(terminal.pin)
        if any(existing.name == net.name for existing in self.nets):
            raise ValueError(f"circuit {self.name}: duplicate net {net.name!r}")
        self.nets.append(net)

    def add_symmetry_group(self, group: SymmetryGroup) -> None:
        """Register a symmetry constraint group."""
        for left, right in group.pairs:
            if left not in self._index or right not in self._index:
                raise ValueError(
                    f"circuit {self.name}: symmetry group {group.name} references "
                    f"unknown blocks"
                )
        for name in group.self_symmetric:
            if name not in self._index:
                raise ValueError(
                    f"circuit {self.name}: symmetry group {group.name} references "
                    f"unknown block {name!r}"
                )
        self.symmetry_groups.append(group)

    # ------------------------------------------------------------------ #
    # Graph views
    # ------------------------------------------------------------------ #
    def connectivity_graph(self) -> "nx.Graph":
        """Weighted block connectivity graph (edge weight = shared net weight sum).

        Template placers and net-aware perturbation use this view.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self.block_names())
        for net in self.nets:
            blocks = net.blocks()
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    u, v = blocks[i], blocks[j]
                    if graph.has_edge(u, v):
                        graph[u][v]["weight"] += net.weight
                    else:
                        graph.add_edge(u, v, weight=net.weight)
        return graph

    def summary(self) -> Dict[str, int]:
        """Table 1-style statistics for the circuit."""
        return {
            "blocks": self.num_blocks,
            "nets": self.num_nets,
            "terminals": self.num_terminals,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Circuit({self.name!r}, blocks={self.num_blocks}, nets={self.num_nets}, "
            f"terminals={self.num_terminals})"
        )
