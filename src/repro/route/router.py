"""The grid-based symmetry-aware global router.

:class:`GlobalRouter` turns a placed circuit into per-net routes over a
:class:`~repro.route.grid.RoutingGrid`:

* every net's terminals (block pins via their fractional offsets, plus the
  boundary I/O point of external nets) escape onto the lattice at their
  nearest unblocked *access node*;
* multi-terminal nets grow a rectilinear Steiner-ish tree by repeatedly
  A*-connecting the closest remaining terminal to the partial tree, with
  congestion-aware edge costs;
* the search runs on the grid's compiled lattice (node ints, edge ids, the
  flat edge-cost table; see :meth:`RoutingGrid.route_tree`), with
  ``(i, j)`` tuples built only for the :class:`RoutedNet` it returns;
* nets matched by a symmetry group are routed as geometric mirror images
  across the group axis (analog parasitic matching), falling back to
  independent routing when the mirrored path is illegal;
* a rip-up-and-reroute negotiation loop resolves edge overflow: offending
  nets are ripped up, overflowed edges accumulate history cost, and the
  nets re-route around the congestion.

The routed wirelength of every net counts its lattice edges *plus* the
pin-to-access-node stubs, which makes it a true upper bound of the net's
HPWL regardless of grid resolution — the sanity invariant
``benchmarks/bench_routing.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.api.placement import Placement
from repro.circuit.netlist import Circuit
from repro.cost.wirelength import hpwl, net_terminal_positions
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect
from repro.obs.spans import is_enabled as _obs_enabled, metrics as _obs_metrics, span
from repro.route.grid import (
    DEFAULT_CONGESTION_WEIGHT,
    DEFAULT_EDGE_CAPACITY,
    Node,
    RoutingGrid,
)
from repro.route.result import RoutedLayout, RoutedNet, Segment
from repro.route.symmetry import NetPair, symmetric_net_pairs
from repro.utils.timer import Timer

#: Tolerance when checking that a symmetry axis lands on the lattice.
_AXIS_EPS = 1e-6


@dataclass(frozen=True)
class RouterConfig:
    """Knobs of the global router."""

    #: Node pitch in layout units; ``None`` picks an automatic pitch.
    resolution: Optional[float] = None
    #: Nets one routing edge can carry before it overflows.
    capacity: int = DEFAULT_EDGE_CAPACITY
    #: Cost added per unit of would-be overflow when choosing paths.
    congestion_weight: float = DEFAULT_CONGESTION_WEIGHT
    #: History cost added to every overflowed edge per negotiation round.
    history_weight: float = 0.5
    #: Maximum rip-up-and-reroute rounds before giving up on overflow.
    max_iterations: int = 8
    #: Route symmetry-paired nets as mirror images when geometrically legal.
    mirror_symmetric_nets: bool = True

    def __post_init__(self) -> None:
        # The search's closed-set early exit and its distance heuristic are
        # exact only while every edge costs at least its length.
        if self.resolution is not None and not self.resolution > 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {self.capacity}")
        if not self.congestion_weight >= 0:
            raise ValueError(
                f"congestion_weight must be non-negative, got {self.congestion_weight}"
            )
        if not self.history_weight >= 0:
            raise ValueError(
                f"history_weight must be non-negative, got {self.history_weight}"
            )
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be non-negative, got {self.max_iterations}"
            )


class GlobalRouter:
    """Route every net of one circuit over placed block rectangles."""

    def __init__(
        self,
        circuit: Circuit,
        bounds: Optional[FloorplanBounds] = None,
        config: Optional[RouterConfig] = None,
    ) -> None:
        self._circuit = circuit
        self._bounds = bounds
        self._config = config if config is not None else RouterConfig()

    @property
    def circuit(self) -> Circuit:
        """The circuit being routed."""
        return self._circuit

    @property
    def config(self) -> RouterConfig:
        """The router configuration in use."""
        return self._config

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def route(self, rects: Mapping[str, Rect]) -> RoutedLayout:
        """Route all nets of the circuit over the placed ``rects``."""
        config = self._config
        with span(
            "route.route", circuit=self._circuit.name, nets=len(self._circuit.nets)
        ) as obs_span, Timer() as timer:
            bounds = self._bounds if self._bounds is not None else derive_bounds(rects)
            grid = RoutingGrid(
                bounds, config.resolution, config.capacity, config.congestion_weight
            )
            grid.add_blockages(rects.values())

            # Terminal geometry: exact pin positions and lattice access nodes.
            rects_dict = dict(rects)
            exact: Dict[str, List[Tuple[float, float]]] = {}
            access: Dict[str, Optional[List[int]]] = {}
            for net in self._circuit.nets:
                positions = net_terminal_positions(net, self._circuit, rects_dict, bounds)
                exact[net.name] = positions
                nodes: Optional[List[int]] = []
                for x, y in positions:
                    node = grid.access_index(x, y)
                    if node is None:
                        nodes = None
                        break
                    nodes.append(node)
                access[net.name] = nodes

            pairs = symmetric_net_pairs(self._circuit) if config.mirror_symmetric_nets else []
            mirror_of: Dict[str, NetPair] = {pair.mirror: pair for pair in pairs}
            # The mirror axes are layout properties: compute once per call,
            # not once per mirror attempt per negotiation round.
            axes: Dict[str, float] = {
                group.name: group.best_axis(rects_dict)
                for group in self._circuit.symmetry_groups
            }
            partner: Dict[str, str] = {}
            for pair in pairs:
                partner[pair.primary] = pair.mirror
                partner[pair.mirror] = pair.primary

            # Short nets first: they have the least routing freedom, so they
            # claim their corridors before long nets spread congestion.
            order = [net.name for net in self._circuit.nets]
            order.sort(key=lambda name: hpwl(exact[name]))
            order.sort(key=lambda name: 1 if name in mirror_of else 0)

            # Each net's routing tree as a set of edge ids.
            edges: Dict[str, Optional[Set[int]]] = {}
            mirrored_from: Dict[str, str] = {}

            def route_one(name: str) -> None:
                if len(exact[name]) < 2:
                    # Nothing to connect: a degenerate single-pin net is
                    # trivially routed, blocked or not.
                    edges[name] = set()
                    return
                nodes = access[name]
                if nodes is None:
                    edges[name] = None
                    return
                pair = mirror_of.get(name)
                if pair is not None:
                    mirrored = self._mirror_route(
                        grid, axes.get(pair.group), edges.get(pair.primary), nodes
                    )
                    if mirrored is not None:
                        edges[name] = mirrored
                        mirrored_from[name] = pair.primary
                        grid.add_edge_usage(mirrored, +1)
                        return
                    mirrored_from.pop(name, None)
                tree = grid.route_tree(nodes)
                edges[name] = tree
                if tree:
                    grid.add_edge_usage(tree, +1)

            for name in order:
                route_one(name)

            iterations = 0
            for _ in range(config.max_iterations):
                overflowed = grid.overflowed_edge_ids()
                if not overflowed:
                    break
                iterations += 1
                over_set = set(overflowed)
                offenders = {
                    name
                    for name, tree in edges.items()
                    if tree and not over_set.isdisjoint(tree)
                }
                # Mirror pairs rip up and reroute as one unit so the mirror
                # can re-derive from its partner's fresh route.
                for name in list(offenders):
                    if name in partner:
                        offenders.add(partner[name])
                grid.add_edge_history(overflowed, config.history_weight)
                for name in offenders:
                    tree = edges.get(name)
                    if tree:
                        grid.add_edge_usage(tree, -1)
                    edges[name] = set()
                for name in order:
                    if name in offenders:
                        route_one(name)

            nets = {
                net.name: self._build_net(
                    grid,
                    net.name,
                    exact[net.name],
                    access[net.name],
                    edges.get(net.name),
                    mirrored_from.get(net.name),
                )
                for net in self._circuit.nets
            }
            astar_calls, expanded_nodes = grid.astar_calls, grid.expanded_nodes
            obs_span.set(
                iterations=iterations,
                overflow=grid.total_overflow,
                astar_calls=astar_calls,
                expanded_nodes=expanded_nodes,
            )
            if _obs_enabled():
                metrics = _obs_metrics()
                metrics.inc("route.routes")
                metrics.inc("route.ripup_iterations", iterations)
                metrics.inc("route.astar_calls", astar_calls)
                metrics.inc("route.expanded_nodes", expanded_nodes)
                if grid.total_overflow:
                    metrics.inc("route.overflowed_layouts")
        return RoutedLayout(
            nets=nets,
            resolution=grid.resolution,
            grid_shape=grid.shape,
            overflow=grid.total_overflow,
            max_congestion=grid.max_usage,
            iterations=iterations,
            elapsed_seconds=timer.elapsed,
        )

    # ------------------------------------------------------------------ #
    # Symmetry mirroring
    # ------------------------------------------------------------------ #
    def _mirror_route(
        self,
        grid: RoutingGrid,
        axis: Optional[float],
        primary_edges: Optional[Set[int]],
        mirror_access: Sequence[int],
    ) -> Optional[Set[int]]:
        """The primary's route (edge ids) reflected across the pair's ``axis``.

        Returns ``None`` (fall back to independent routing) when the axis
        does not land on the lattice, any reflected node is off-grid or
        blocked, or the reflected tree misses one of the mirror net's
        access nodes (which would leave it disconnected).
        """
        if primary_edges is None or axis is None:
            return None
        doubled = 2.0 * axis / grid.resolution
        if abs(doubled - round(doubled)) > _AXIS_EPS:
            return None
        flip = int(round(doubled))

        mirrored: Set[int] = set()
        nodes: Set[Node] = set()
        for edge in primary_edges:
            (ai, aj), (bi, bj) = grid.edge_nodes(edge)
            ma = (flip - ai, aj)
            mb = (flip - bi, bj)
            if not (grid.in_grid(ma) and grid.in_grid(mb)):
                return None
            if grid.is_blocked(ma) or grid.is_blocked(mb):
                return None
            mirrored.add(grid.edge_id(ma, mb))
            nodes.add(ma)
            nodes.add(mb)
        unique_access = {grid.node(index) for index in mirror_access}
        if not mirrored:
            # A zero-edge primary mirrors onto a zero-edge route only when
            # the mirror net also collapses onto a single access node.
            return set() if len(unique_access) <= 1 else None
        if not unique_access.issubset(nodes):
            return None
        return mirrored

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _build_net(
        self,
        grid: RoutingGrid,
        name: str,
        exact: Sequence[Tuple[float, float]],
        access: Optional[Sequence[int]],
        tree: Optional[Set[int]],
        mirrored_from: Optional[str],
    ) -> RoutedNet:
        if len(exact) < 2:
            return RoutedNet(name=name)
        if access is None or tree is None:
            return RoutedNet(name=name, failed=True)
        stubs: List[Segment] = []
        stub_length = 0.0
        for (x, y), node in zip(exact, access):
            px, py = grid.node_position(grid.node(node))
            length = abs(px - x) + abs(py - y)
            if length > 1e-9:
                stubs.append(((x, y), (px, py)))
                stub_length += length
        segments = tuple(
            sorted(
                (grid.node_position(a), grid.node_position(b))
                for a, b in map(grid.edge_nodes, tree)
            )
        )
        wirelength = len(tree) * grid.resolution + stub_length
        return RoutedNet(
            name=name,
            segments=segments,
            stubs=tuple(stubs),
            wirelength=wirelength,
            mirrored_from=mirrored_from,
        )


# ---------------------------------------------------------------------- #
# Convenience entry points
# ---------------------------------------------------------------------- #
def derive_bounds(rects: Mapping[str, Rect]) -> FloorplanBounds:
    """The smallest origin-anchored canvas containing every placed rect."""
    if not rects:
        return FloorplanBounds(1, 1)
    width = max(rect.x2 for rect in rects.values())
    height = max(rect.y2 for rect in rects.values())
    return FloorplanBounds(max(width, 1), max(height, 1))


def route_placement(
    circuit: Circuit,
    placement: Union[Placement, Mapping[str, Rect]],
    bounds: Optional[FloorplanBounds] = None,
    config: Optional[RouterConfig] = None,
) -> RoutedLayout:
    """Route one placement (a :class:`Placement` or a name->rect mapping)."""
    rects = placement.rects if isinstance(placement, Placement) else placement
    router = GlobalRouter(circuit, bounds=bounds, config=config)
    return router.route(rects)
