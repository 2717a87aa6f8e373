"""Nets and terminals.

A terminal attaches a net to a specific pin of a specific block.  Nets with
fewer than two block terminals may additionally be marked *external*: they
also connect to an I/O location on the floorplan boundary so their
wirelength contribution is still meaningful (several benchmark circuits in
Table 1 report more nets than terminals, which only makes sense with
external connections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class Terminal:
    """A (block, pin) attachment point of a net."""

    block: str
    pin: str = "c"

    def __post_init__(self) -> None:
        if not self.block:
            raise ValueError("terminal block name must be non-empty")
        if not self.pin:
            raise ValueError("terminal pin name must be non-empty")


@dataclass(frozen=True)
class Net:
    """A named electrical net connecting block terminals.

    Parameters
    ----------
    name:
        Unique net identifier within its circuit.
    terminals:
        The block terminals the net connects.
    weight:
        Relative criticality used by the wirelength cost (default 1.0).
    external:
        When true the net also connects to an external I/O pin at
        ``io_position`` expressed as fractions of the floorplan bounds.
    io_position:
        Fractional floorplan position of the external connection.
    """

    name: str
    terminals: Tuple[Terminal, ...] = field(default_factory=tuple)
    weight: float = 1.0
    external: bool = False
    io_position: Tuple[float, float] = (0.0, 0.5)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("net name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"net {self.name}: weight must be positive")
        if not isinstance(self.terminals, tuple):
            object.__setattr__(self, "terminals", tuple(self.terminals))
        if not isinstance(self.io_position, tuple):
            object.__setattr__(self, "io_position", tuple(self.io_position))
        if not self.terminals and not self.external:
            raise ValueError(f"net {self.name}: must have terminals or be external")
        fx, fy = self.io_position
        if not (0.0 <= fx <= 1.0 and 0.0 <= fy <= 1.0):
            raise ValueError(f"net {self.name}: io_position must lie in [0, 1]^2")

    @property
    def num_terminals(self) -> int:
        """Number of block terminals on the net."""
        return len(self.terminals)

    @property
    def degree(self) -> int:
        """Number of distinct connection points (terminals plus external pin)."""
        return self.num_terminals + (1 if self.external else 0)

    def blocks(self) -> Tuple[str, ...]:
        """Names of the blocks touched by this net (with repetition removed)."""
        seen = []
        for terminal in self.terminals:
            if terminal.block not in seen:
                seen.append(terminal.block)
        return tuple(seen)

    def with_weight(self, weight: float) -> "Net":
        """Return a copy of the net with a different weight."""
        return Net(self.name, self.terminals, weight, self.external, self.io_position)


def make_net(name: str, *attachments: Tuple[str, str], weight: float = 1.0,
             external: bool = False, io_position: Optional[Tuple[float, float]] = None) -> Net:
    """Convenience constructor: ``make_net("n1", ("m1", "d"), ("m2", "g"))``."""
    terminals = tuple(Terminal(block, pin) for block, pin in attachments)
    kwargs = {"weight": weight, "external": external}
    if io_position is not None:
        kwargs["io_position"] = io_position
    return Net(name, terminals, **kwargs)
