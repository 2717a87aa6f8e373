"""Wirelength estimators.

The BDIO's cost calculator scores a candidate layout "based on the
wire-lengths and area of that proposed design" (Section 3.2.2).  Three
standard estimators are provided — half-perimeter (HPWL, the default), star
and rectilinear minimum spanning tree — so the "customizable cost function"
can swap models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.net import Net
from repro.circuit.netlist import Circuit
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect

Position = Tuple[float, float]

#: One net compiled for index-ordered arithmetic: its ``(block_index, fx,
#: fy)`` pin slots in terminal order, then its constant external I/O point
#: (``None`` when the net has none or there are no bounds).
CompiledNet = Tuple[Tuple[Tuple[int, float, float], ...], Optional[Position]]


def compile_net_terminals(
    circuit: Circuit, bounds: Optional[FloorplanBounds] = None
) -> List[CompiledNet]:
    """Every net of ``circuit`` flattened into :data:`CompiledNet` form.

    A pin slot sits at ``x + fx*w, y + fy*h`` of block ``block_index``'s
    rect — :meth:`~repro.geometry.rect.Rect.terminal_position`'s
    arithmetic — and the external point is the one
    :func:`net_terminal_positions` appends, so positions built from the
    compiled form equal that function's bitwise, in the same order,
    without its per-call name, block and pin lookups.
    """
    compiled: List[CompiledNet] = []
    for net in circuit.nets:
        pins = []
        for terminal in net.terminals:
            pin = circuit.block(terminal.block).pin(terminal.pin)
            pins.append((circuit.block_index(terminal.block), pin.fx, pin.fy))
        external: Optional[Position] = None
        if net.external and bounds is not None:
            fx, fy = net.io_position
            external = (fx * bounds.width, fy * bounds.height)
        compiled.append((tuple(pins), external))
    return compiled


def net_terminal_positions(
    net: Net,
    circuit: Circuit,
    rects: Dict[str, Rect],
    bounds: Optional[FloorplanBounds] = None,
) -> List[Position]:
    """Absolute positions of every connection point of ``net``.

    Block terminals resolve through the block's pin offsets; external nets
    additionally contribute their boundary I/O position when ``bounds`` is
    given.
    """
    positions: List[Position] = []
    for terminal in net.terminals:
        block = circuit.block(terminal.block)
        rect = rects[terminal.block]
        pin = block.pin(terminal.pin)
        positions.append(pin.position(rect))
    if net.external and bounds is not None:
        fx, fy = net.io_position
        positions.append((fx * bounds.width, fy * bounds.height))
    return positions


def _two_pin_length(positions: Sequence[Position]) -> float:
    """Manhattan distance of a two-terminal net (HPWL == star == MST there)."""
    (x0, y0), (x1, y1) = positions
    return abs(x0 - x1) + abs(y0 - y1)


def hpwl(positions: Sequence[Position]) -> float:
    """Half-perimeter wirelength of a set of terminal positions."""
    if len(positions) < 2:
        return 0.0
    if len(positions) == 2:
        return _two_pin_length(positions)
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def star_wirelength(positions: Sequence[Position]) -> float:
    """Star-model wirelength: Manhattan distance of every terminal to the centroid."""
    if len(positions) < 2:
        return 0.0
    if len(positions) == 2:
        return _two_pin_length(positions)
    cx = sum(p[0] for p in positions) / len(positions)
    cy = sum(p[1] for p in positions) / len(positions)
    return sum(abs(p[0] - cx) + abs(p[1] - cy) for p in positions)


def mst_wirelength(positions: Sequence[Position]) -> float:
    """Rectilinear minimum-spanning-tree wirelength (Prim's algorithm).

    On the parasitics hot path (called for every net of every synthesis
    iteration), so the dense O(n^2) Prim is fused into a single selection
    + relaxation pass over flat coordinate lists: the inner loop performs
    no allocation, no tuple unpacking and no method calls.
    """
    n = len(positions)
    if n < 2:
        return 0.0
    if n == 2:
        return _two_pin_length(positions)
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    inf = float("inf")
    # distance[i] < 0 marks "already in the tree" — one list doubles as
    # both the frontier distances and the membership flags.
    distance = [inf] * n
    distance[0] = -1.0
    total = 0.0
    last = 0
    for _ in range(n - 1):
        lx = xs[last]
        ly = ys[last]
        best = -1
        best_dist = inf
        for i in range(n):
            d = distance[i]
            if d < 0.0:
                continue
            dx = xs[i] - lx
            if dx < 0.0:
                dx = -dx
            dy = ys[i] - ly
            if dy < 0.0:
                dy = -dy
            nd = dx + dy
            if nd < d:
                d = nd
                distance[i] = nd
            if d < best_dist:
                best_dist = d
                best = i
        distance[best] = -1.0
        total += best_dist
        last = best
    return total


_MODELS = {
    "hpwl": hpwl,
    "star": star_wirelength,
    "mst": mst_wirelength,
}


def wirelength_estimator(model: str):
    """The per-net estimator callable for ``model`` (``hpwl``/``star``/``mst``).

    The incremental evaluator caches per-net lengths and needs the same
    callable :func:`total_wirelength` dispatches to, so the two paths
    agree bitwise.
    """
    try:
        return _MODELS[model]
    except KeyError as exc:
        raise ValueError(f"unknown wirelength model {model!r}; choose from {sorted(_MODELS)}") from exc


def total_wirelength(
    circuit: Circuit,
    rects: Dict[str, Rect],
    bounds: Optional[FloorplanBounds] = None,
    model: str = "hpwl",
) -> float:
    """Weighted total wirelength of a layout under the chosen net model."""
    estimator = wirelength_estimator(model)
    total = 0.0
    for net in circuit.nets:
        positions = net_terminal_positions(net, circuit, rects, bounds)
        total += net.weight * estimator(positions)
    return total


def per_net_wirelength(
    circuit: Circuit,
    rects: Dict[str, Rect],
    bounds: Optional[FloorplanBounds] = None,
    model: str = "hpwl",
) -> Dict[str, float]:
    """Unweighted wirelength of each net (used by the parasitic estimator)."""
    estimator = _MODELS[model]
    lengths: Dict[str, float] = {}
    for net in circuit.nets:
        positions = net_terminal_positions(net, circuit, rects, bounds)
        lengths[net.name] = estimator(positions)
    return lengths
