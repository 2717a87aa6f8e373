"""Property: the compiled global router routes exactly like the tuple router.

:class:`GlobalRouter` searches an integer lattice (row-major node ints, a
flat per-edge cost table, one inlined A* kernel).  The reference below is
the tuple-keyed router it replaced — ``_astar``, ``_route_tree``,
``_mirror_route``, the negotiation loop, ``access_node``'s ring scan and
``overflowed_edges`` — kept here as the oracle, reading the grid only
through its public tuple methods.  On random canvases, fractional and
automatic resolutions, extra blockages, terminal sets of every degree
(single-pin, external, mirrored pairs), capacities 1-4 and random
congestion/history weights, both must return the same
:class:`RoutedLayout` field for field, wirelength bits included.

Each layout's ``overflow`` and ``max_congestion`` must also equal what its
per-net segments imply, which checks that edge accounting stays exact
through rip-up and reroute, and the grid's ``cost_table`` (which the kernel
reads directly) must equal ``edge_cost`` after any usage or history update.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.cost.wirelength import hpwl, net_terminal_positions
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect
from repro.route import GlobalRouter, RouterConfig, derive_bounds, symmetric_net_pairs
from repro.route.grid import Edge, Node, RoutingGrid
from repro.route.result import RoutedLayout, RoutedNet, Segment
from tests.properties.conftest import TRIALS

_AXIS_EPS = 1e-6


# ---------------------------------------------------------------------- #
# The reference: the tuple-keyed router, reading only public grid methods
# ---------------------------------------------------------------------- #
def _norm_edge(a: Node, b: Node) -> Edge:
    return (a, b) if a <= b else (b, a)


def ref_ring(grid: RoutingGrid, ci: int, cj: int, radius: int):
    i_lo, i_hi = ci - radius, ci + radius
    j_lo, j_hi = cj - radius, cj + radius
    for i in range(max(i_lo, 0), min(i_hi, grid.nx - 1) + 1):
        if 0 <= j_lo < grid.ny:
            yield (i, j_lo)
        if 0 <= j_hi < grid.ny and j_hi != j_lo:
            yield (i, j_hi)
    for j in range(max(j_lo + 1, 0), min(j_hi - 1, grid.ny - 1) + 1):
        if 0 <= i_lo < grid.nx:
            yield (i_lo, j)
        if 0 <= i_hi < grid.nx and i_hi != i_lo:
            yield (i_hi, j)


def ref_access_node(grid: RoutingGrid, x: float, y: float) -> Optional[Node]:
    ci, cj = grid.snap(x, y)
    if not grid.is_blocked((ci, cj)):
        return (ci, cj)
    best: Optional[Node] = None
    best_dist = float("inf")
    found_radius: Optional[int] = None
    max_radius = max(grid.nx, grid.ny)
    for radius in range(1, max_radius + 1):
        if found_radius is not None and radius > 2 * found_radius + 1:
            break
        for i, j in ref_ring(grid, ci, cj, radius):
            if grid.is_blocked((i, j)):
                continue
            dist = abs(i * grid.resolution - x) + abs(j * grid.resolution - y)
            if dist < best_dist:
                best = (i, j)
                best_dist = dist
        if best is not None and found_radius is None:
            found_radius = radius
    return best


def ref_edges(grid: RoutingGrid) -> List[Edge]:
    """Every lattice edge: horizontal row-major, then vertical row-major."""
    nx, ny = grid.shape
    edges = [((i, j), (i + 1, j)) for j in range(ny) for i in range(nx - 1)]
    edges += [((i, j), (i, j + 1)) for j in range(ny - 1) for i in range(nx)]
    return edges


def ref_overflowed_edges(grid: RoutingGrid) -> List[Edge]:
    return [(a, b) for a, b in ref_edges(grid) if grid.usage(a, b) > grid.capacity]


class ReferenceRouter:
    """The tuple-keyed router the compiled kernel replaced."""

    def __init__(self, circuit, bounds=None, config=None) -> None:
        self._circuit = circuit
        self._bounds = bounds
        self._config = config if config is not None else RouterConfig()

    def route(self, rects: Mapping[str, Rect]) -> RoutedLayout:
        config = self._config
        bounds = self._bounds if self._bounds is not None else derive_bounds(rects)
        grid = RoutingGrid(bounds, config.resolution, config.capacity)
        grid.add_blockages(rects.values())

        rects_dict = dict(rects)
        exact: Dict[str, List[Tuple[float, float]]] = {}
        access: Dict[str, Optional[List[Node]]] = {}
        for net in self._circuit.nets:
            positions = net_terminal_positions(net, self._circuit, rects_dict, bounds)
            exact[net.name] = positions
            nodes: Optional[List[Node]] = []
            for x, y in positions:
                node = ref_access_node(grid, x, y)
                if node is None:
                    nodes = None
                    break
                nodes.append(node)
            access[net.name] = nodes

        pairs = symmetric_net_pairs(self._circuit) if config.mirror_symmetric_nets else []
        mirror_of = {pair.mirror: pair for pair in pairs}
        axes = {
            group.name: group.best_axis(rects_dict)
            for group in self._circuit.symmetry_groups
        }
        partner: Dict[str, str] = {}
        for pair in pairs:
            partner[pair.primary] = pair.mirror
            partner[pair.mirror] = pair.primary

        order = [net.name for net in self._circuit.nets]
        order.sort(key=lambda name: hpwl(exact[name]))
        order.sort(key=lambda name: 1 if name in mirror_of else 0)

        edges: Dict[str, Optional[Set[Edge]]] = {}
        mirrored_from: Dict[str, str] = {}

        def route_one(name: str) -> None:
            if len(exact[name]) < 2:
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
                    grid.add_usage(mirrored, +1)
                    return
                mirrored_from.pop(name, None)
            tree = self._route_tree(grid, nodes)
            edges[name] = tree
            if tree:
                grid.add_usage(tree, +1)

        for name in order:
            route_one(name)

        iterations = 0
        for _ in range(config.max_iterations):
            overflowed = ref_overflowed_edges(grid)
            if not overflowed:
                break
            iterations += 1
            over_set = set(overflowed)
            offenders = {
                name
                for name, tree in edges.items()
                if tree and not over_set.isdisjoint(tree)
            }
            for name in list(offenders):
                if name in partner:
                    offenders.add(partner[name])
            grid.add_history(overflowed, config.history_weight)
            for name in offenders:
                tree = edges.get(name)
                if tree:
                    grid.add_usage(tree, -1)
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
        usages = [grid.usage(a, b) for a, b in ref_edges(grid)]
        return RoutedLayout(
            nets=nets,
            resolution=grid.resolution,
            grid_shape=grid.shape,
            overflow=sum(u - grid.capacity for u in usages if u > grid.capacity),
            max_congestion=max(usages, default=0),
            iterations=iterations,
        )

    def _route_tree(self, grid: RoutingGrid, nodes: Sequence[Node]) -> Optional[Set[Edge]]:
        unique: List[Node] = []
        for node in nodes:
            if node not in unique:
                unique.append(node)
        tree_edges: Set[Edge] = set()
        if len(unique) <= 1:
            return tree_edges
        tree: Set[Node] = {unique[0]}
        remaining = unique[1:]
        while remaining:
            best_index = 0
            best_dist = float("inf")
            for index, candidate in enumerate(remaining):
                dist = min(
                    abs(candidate[0] - n[0]) + abs(candidate[1] - n[1]) for n in tree
                )
                if dist < best_dist:
                    best_dist = dist
                    best_index = index
            start = remaining.pop(best_index)
            path = self._astar(grid, start, tree)
            if path is None:
                return None
            previous: Optional[Node] = None
            for node in path:
                tree.add(node)
                if previous is not None:
                    tree_edges.add(_norm_edge(previous, node))
                previous = node
        return tree_edges

    def _astar(
        self, grid: RoutingGrid, start: Node, targets: Set[Node]
    ) -> Optional[List[Node]]:
        if start in targets:
            return [start]
        resolution = grid.resolution
        congestion_weight = self._config.congestion_weight
        min_i = min(i for i, _ in targets)
        max_i = max(i for i, _ in targets)
        min_j = min(j for _, j in targets)
        max_j = max(j for _, j in targets)

        def heuristic(i: int, j: int) -> float:
            dx = min_i - i if i < min_i else (i - max_i if i > max_i else 0)
            dy = min_j - j if j < min_j else (j - max_j if j > max_j else 0)
            return (dx + dy) * resolution

        best_g: Dict[Node, float] = {start: 0.0}
        parent: Dict[Node, Node] = {}
        open_heap: List[Tuple[float, float, Node]] = [
            (heuristic(*start), 0.0, start)
        ]
        closed: Set[Node] = set()
        nx, ny = grid.shape
        while open_heap:
            _, g, node = heapq.heappop(open_heap)
            if node in closed:
                continue
            closed.add(node)
            if node in targets:
                path = [node]
                while node in parent:
                    node = parent[node]
                    path.append(node)
                path.reverse()
                return path
            i, j = node
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if not (0 <= ni < nx and 0 <= nj < ny):
                    continue
                neighbour = (ni, nj)
                if neighbour in closed or grid.is_blocked(neighbour):
                    continue
                tentative = g + grid.edge_cost(node, neighbour, congestion_weight)
                if tentative < best_g.get(neighbour, float("inf")):
                    best_g[neighbour] = tentative
                    parent[neighbour] = node
                    heapq.heappush(
                        open_heap, (tentative + heuristic(ni, nj), tentative, neighbour)
                    )
        return None

    def _mirror_route(
        self,
        grid: RoutingGrid,
        axis: Optional[float],
        primary_edges: Optional[Set[Edge]],
        mirror_access: Sequence[Node],
    ) -> Optional[Set[Edge]]:
        if primary_edges is None or axis is None:
            return None
        doubled = 2.0 * axis / grid.resolution
        if abs(doubled - round(doubled)) > _AXIS_EPS:
            return None
        flip = int(round(doubled))
        mirrored: Set[Edge] = set()
        nodes: Set[Node] = set()
        for (ai, aj), (bi, bj) in primary_edges:
            ma = (flip - ai, aj)
            mb = (flip - bi, bj)
            if not (grid.in_grid(ma) and grid.in_grid(mb)):
                return None
            if grid.is_blocked(ma) or grid.is_blocked(mb):
                return None
            mirrored.add(_norm_edge(ma, mb))
            nodes.add(ma)
            nodes.add(mb)
        unique_access = set(mirror_access)
        if not mirrored:
            return set() if len(unique_access) <= 1 else None
        if not unique_access.issubset(nodes):
            return None
        return mirrored

    def _build_net(self, grid, name, exact, access, tree, mirrored_from) -> RoutedNet:
        if len(exact) < 2:
            return RoutedNet(name=name)
        if access is None or tree is None:
            return RoutedNet(name=name, failed=True)
        stubs: List[Segment] = []
        stub_length = 0.0
        for (x, y), node in zip(exact, access):
            px, py = grid.node_position(node)
            length = abs(px - x) + abs(py - y)
            if length > 1e-9:
                stubs.append(((x, y), (px, py)))
                stub_length += length
        segments = tuple(
            sorted((grid.node_position(a), grid.node_position(b)) for a, b in tree)
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
# Random routing problems
# ---------------------------------------------------------------------- #
def random_problem(rng: random.Random):
    """A random circuit, placed rects (plus walls), bounds and router config."""
    builder = CircuitBuilder("prop_route")
    width = rng.randint(6, 28)
    height = rng.randint(6, 28)
    rects: Dict[str, Rect] = {}
    names: List[str] = []
    pins_of: Dict[str, List[str]] = {}

    def add_block(name: str, rect: Rect, pins: Dict[str, Tuple[float, float]]) -> None:
        builder.block(name, rect.w, rect.w, rect.h, rect.h, pins=pins)
        rects[name] = rect
        names.append(name)
        pins_of[name] = sorted(pins)

    def random_pins() -> Dict[str, Tuple[float, float]]:
        pins = {"c": (0.5, 0.5)}
        for index in range(rng.randint(0, 2)):
            pins[f"p{index}"] = (round(rng.random(), 3), round(rng.random(), 3))
        return pins

    mirrored = rng.random() < 0.6
    if mirrored:
        # A mirror pair about an axis that sometimes misses the lattice.
        axis2 = rng.randint(6, 2 * width - 6)  # twice the axis x
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        gap = rng.randint(0, 4)
        y = rng.randint(0, max(0, height - h))
        offset = rng.choice([(0.5, 0.5), (0.25, 0.75), (0.0, 0.5)])
        mirror_offset = (1.0 - offset[0], offset[1])
        left_x = (axis2 - 2 * gap - 2 * w) // 2
        add_block("l", Rect(left_x, y, w, h), {"c": (0.5, 0.5), "q": offset})
        add_block(
            "r", Rect(axis2 - left_x - w, y, w, h), {"c": (0.5, 0.5), "q": mirror_offset}
        )
        tail_w = 2 * rng.randint(1, 2)
        tail_y = rng.randint(0, max(0, height - 2))
        tail = Rect(axis2 // 2 - tail_w // 2, tail_y, tail_w, 2)
        add_block("tail", tail, {"c": (0.5, 0.5)})
        builder.net("m_a", ("l", "c"), ("tail", "c"))
        builder.net("m_b", ("r", "c"), ("tail", "c"))
        if rng.random() < 0.5:
            builder.net("m_c", ("l", "q"), ("tail", "c"), ("l", "c"))
            builder.net("m_d", ("r", "q"), ("tail", "c"), ("r", "c"))
        builder.symmetry("s", pairs=[("l", "r")], self_symmetric=["tail"])

    for index in range(rng.randint(2, 6)):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        x = rng.randint(-1, max(0, width - w + 1))
        y = rng.randint(-1, max(0, height - h + 1))
        add_block(f"b{index}", Rect(x, y, w, h), random_pins())

    for index in range(rng.randint(1, 10)):
        degree = rng.choice([1, 2, 2, 2, 3, 4])
        members = [rng.choice(names) for _ in range(degree)]
        terminals = [(member, rng.choice(pins_of[member])) for member in members]
        builder.net(
            f"n{index}",
            *terminals,
            external=rng.random() < 0.25,
            io_position=(round(rng.random(), 3), round(rng.random(), 3)),
        )
    circuit = builder.build(validate=False)

    for index in range(rng.choice([0, 0, 1, 2, 3])):
        w, h = rng.randint(1, 8), rng.randint(1, 8)
        rects[f"wall{index}"] = Rect(
            rng.randint(-2, width), rng.randint(-2, height), w, h
        )
    bounds = None if rng.random() < 0.3 else FloorplanBounds(width, height)
    config = RouterConfig(
        resolution=rng.choice([None, 0.5, 0.75, 1, 1, 1.1, 1.5, 2, 2.5]),
        capacity=rng.randint(1, 4),
        congestion_weight=rng.choice([0.0, 0.5, 2.0, round(rng.uniform(0, 5), 3)]),
        history_weight=rng.choice([0.0, 0.5, round(rng.uniform(0, 3), 3)]),
        max_iterations=rng.randint(0, 8),
        mirror_symmetric_nets=rng.random() < 0.85,
    )
    return circuit, rects, bounds, config


def layout_facts(layout: RoutedLayout) -> tuple:
    """Every field of a layout except its wall-clock time."""
    return (
        dict(layout.nets),
        layout.resolution,
        layout.grid_shape,
        layout.overflow,
        layout.max_congestion,
        layout.iterations,
    )


def implied_congestion(layout: RoutedLayout, capacity: int) -> Tuple[int, int]:
    """``(overflow, max_congestion)`` recounted from the per-net segments."""
    usage: Counter = Counter()
    for net in layout.nets.values():
        usage.update(set(net.segments))
    overflow = sum(count - capacity for count in usage.values() if count > capacity)
    return overflow, max(usage.values(), default=0)


# ---------------------------------------------------------------------- #
# Properties
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(4 * TRIALS))
def test_router_matches_tuple_reference(seed):
    rng = random.Random(8100 + seed)
    circuit, rects, bounds, config = random_problem(rng)
    compiled = GlobalRouter(circuit, bounds=bounds, config=config).route(rects)
    reference = ReferenceRouter(circuit, bounds=bounds, config=config).route(rects)
    assert layout_facts(compiled) == layout_facts(reference)
    assert implied_congestion(compiled, config.capacity) == (
        compiled.overflow,
        compiled.max_congestion,
    )


def test_generator_reaches_ripup_mirroring_and_failures():
    # Guards the suite's reach: a generator that never negotiates, mirrors
    # or fails would leave those paths of the kernel unchecked.
    iterations = mirrored = failed = overflowed = 0
    for seed in range(4 * TRIALS):
        circuit, rects, bounds, config = random_problem(random.Random(8100 + seed))
        layout = GlobalRouter(circuit, bounds=bounds, config=config).route(rects)
        iterations += layout.iterations > 0
        mirrored += bool(layout.mirrored_nets)
        failed += bool(layout.failed_nets)
        overflowed += layout.overflow > 0
    assert iterations >= 5
    assert mirrored >= 3
    assert failed >= 1
    assert overflowed >= 1


@pytest.mark.parametrize("seed", range(TRIALS))
def test_access_node_matches_ring_reference(seed):
    rng = random.Random(8300 + seed)
    bounds = FloorplanBounds(rng.randint(1, 25), rng.randint(1, 25))
    grid = RoutingGrid(bounds, rng.choice([None, 0.5, 0.7, 1, 1.3, 2, 3]))
    for _ in range(rng.randint(0, 6)):
        grid.block_rect(
            Rect(
                rng.randint(-3, 25), rng.randint(-3, 25), rng.randint(1, 15), rng.randint(1, 15)
            )
        )
    for _ in range(30):
        x = rng.uniform(-2.0, bounds.width + 2.0)
        y = rng.uniform(-2.0, bounds.height + 2.0)
        assert grid.access_node(x, y) == ref_access_node(grid, x, y)


@pytest.mark.parametrize("seed", range(TRIALS))
def test_cost_table_tracks_usage_and_history(seed):
    # The kernel reads cost_table directly, so every usage or history update
    # must leave it equal to edge_cost's expression on every edge.
    rng = random.Random(8500 + seed)
    grid = RoutingGrid(
        FloorplanBounds(rng.randint(1, 12), rng.randint(1, 12)),
        rng.choice([0.5, 1, 1.5, 2]),
        capacity=rng.randint(1, 4),
        congestion_weight=rng.choice([0.0, 2.0, round(rng.uniform(0, 5), 3)]),
    )
    edges = ref_edges(grid)
    if not edges:
        return
    for _ in range(20):
        chosen = rng.sample(edges, rng.randint(1, len(edges)))
        if rng.random() < 0.5:
            grid.add_usage(chosen, rng.choice([+1, +1, +2, -1]))
        else:
            grid.add_history(chosen, round(rng.uniform(0, 2), 3))
        for a, b in edges:
            expected = grid.edge_cost(a, b, grid.congestion_weight)
            assert grid.cost_table[grid.edge_id(a, b)] == expected
