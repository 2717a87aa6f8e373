"""The uniform routing grid a global router works on.

Global routing abstracts the layout into a lattice of routing nodes with
capacitated edges between neighbours: blocks become blockages, pins become
access points on the lattice, and a route is a path over the surviving
edges.  :class:`RoutingGrid` derives that lattice from a
:class:`~repro.geometry.floorplan.FloorplanBounds` canvas at a chosen
resolution (layout grid units between adjacent routing nodes) and tracks
per-edge usage, capacity and negotiation history for the rip-up-and-reroute
loop.

The lattice is compiled once per grid into flat tables that the A* kernel
(:meth:`RoutingGrid.route_tree`) reads with integer arithmetic only: node
``(i, j)`` is the int ``k = i * ny + j`` (so ints order exactly like the
tuples they stand for, and heap ties break as they would on tuples),
``blocked`` is a ``bytearray`` in that order, and each edge has one id —
horizontal edges first, then vertical ones, in :meth:`RoutingGrid.edge_key`
order — indexing the usage, history and traversal-cost tables.  A cost is
recomputed only for the edges a usage or history update touches.  The
tuple methods are thin views over those same tables.

Blockage is resolution-limited by design: a routing node is blocked when it
lies *strictly inside* a placed rectangle, so block boundaries remain
routable corridors (the classic "route along macro edges" abstraction) and
finer blockage detail than the node pitch is intentionally not modelled.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect

#: Default number of nets one routing edge can carry.
DEFAULT_EDGE_CAPACITY = 4

#: Default cost added per unit of would-be overflow on an edge.
DEFAULT_CONGESTION_WEIGHT = 2.0

#: Target node count per grid side when the resolution is chosen automatically.
_TARGET_NODES_PER_SIDE = 48

#: A routing node addressed by its (column, row) lattice indices.
Node = Tuple[int, int]

#: A grid edge: the node pair it connects, in lattice indices.
Edge = Tuple[Node, Node]

#: Position-space tolerance when classifying nodes against rect boundaries:
#: a node within this distance of an edge counts as *on* it (routable),
#: guarding the strictly-interior test against float division error at
#: fractional resolutions (e.g. 33/1.1 evaluating just below 30).
_BOUNDARY_EPS = 1e-7


def default_resolution(bounds: FloorplanBounds) -> int:
    """The automatic node pitch for ``bounds``.

    One layout grid unit per node for small canvases, coarsening so that
    neither side exceeds ``_TARGET_NODES_PER_SIDE`` nodes — keeps the maze
    search cheap on large floorplans without losing the small-canvas
    exactness the tests rely on.
    """
    return max(1, math.ceil(max(bounds.width, bounds.height) / _TARGET_NODES_PER_SIDE))


class RoutingGrid:
    """A capacitated routing lattice over a floorplan canvas.

    Parameters
    ----------
    bounds:
        The layout canvas the lattice spans.
    resolution:
        Distance between adjacent nodes in layout grid units; defaults to
        :func:`default_resolution`.
    capacity:
        Number of nets each edge can carry before it overflows.
    congestion_weight:
        Cost per unit of would-be overflow in the compiled edge-cost table.
    """

    def __init__(
        self,
        bounds: FloorplanBounds,
        resolution: Optional[float] = None,
        capacity: int = DEFAULT_EDGE_CAPACITY,
        congestion_weight: float = DEFAULT_CONGESTION_WEIGHT,
    ) -> None:
        if resolution is None:
            resolution = default_resolution(bounds)
        if resolution <= 0:
            raise ValueError(f"grid resolution must be positive, got {resolution}")
        if capacity < 1:
            raise ValueError(f"edge capacity must be at least 1, got {capacity}")
        self.bounds = bounds
        self.resolution = float(resolution)
        self.capacity = capacity
        self.congestion_weight = congestion_weight
        self.nx = int(math.floor(bounds.width / self.resolution)) + 1
        self.ny = int(math.floor(bounds.height / self.resolution)) + 1
        #: Node ``(i, j)`` is blocked when ``blocked[i * ny + j]`` is set.
        self.blocked = bytearray(self.nx * self.ny)
        #: Horizontal edge ``(i, j)-(i+1, j)`` is id ``j * (nx - 1) + i``;
        #: vertical edge ``(i, j)-(i, j+1)`` is ``h_edges + j * nx + i``.
        self.h_edges = self.ny * (self.nx - 1)
        num_edges = self.h_edges + (self.ny - 1) * self.nx
        self.usage_table = [0] * num_edges
        self.history_table = [0.0] * num_edges
        #: Traversal cost of one more net over each edge (see :meth:`edge_cost`).
        self.cost_table = [self._cost(0, 0.0, congestion_weight)] * num_edges
        #: Searches run and nodes they expanded (see :meth:`route_tree`).
        self.astar_calls = 0
        self.expanded_nodes = 0

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(columns, rows)`` of the node lattice."""
        return (self.nx, self.ny)

    @property
    def num_nodes(self) -> int:
        """Total number of routing nodes."""
        return self.nx * self.ny

    def node_position(self, node: Node) -> Tuple[float, float]:
        """Layout coordinates of a lattice node."""
        i, j = node
        return (i * self.resolution, j * self.resolution)

    def snap(self, x: float, y: float) -> Node:
        """The lattice node nearest to layout position ``(x, y)``, clamped."""
        i = int(round(x / self.resolution))
        j = int(round(y / self.resolution))
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))

    def node(self, index: int) -> Node:
        """The ``(i, j)`` node of node int ``index``."""
        return divmod(index, self.ny)

    def in_grid(self, node: Node) -> bool:
        """True when ``node`` lies on the lattice."""
        i, j = node
        return 0 <= i < self.nx and 0 <= j < self.ny

    def edge_nodes(self, edge_id: int) -> Edge:
        """The ``(lower, upper)`` node pair of edge ``edge_id``."""
        if edge_id < self.h_edges:
            j, i = divmod(edge_id, self.nx - 1)
            return ((i, j), (i + 1, j))
        j, i = divmod(edge_id - self.h_edges, self.nx)
        return ((i, j), (i, j + 1))

    # ------------------------------------------------------------------ #
    # Blockages and pin access
    # ------------------------------------------------------------------ #
    def block_rect(self, rect: Rect) -> None:
        """Block every node strictly inside ``rect``."""
        res = self.resolution
        i_lo = int(math.floor((rect.x + _BOUNDARY_EPS) / res)) + 1
        i_hi = int(math.ceil((rect.x2 - _BOUNDARY_EPS) / res)) - 1
        j_lo = int(math.floor((rect.y + _BOUNDARY_EPS) / res)) + 1
        j_hi = int(math.ceil((rect.y2 - _BOUNDARY_EPS) / res)) - 1
        for i in range(max(i_lo, 0), min(i_hi, self.nx - 1) + 1):
            base = i * self.ny
            for j in range(max(j_lo, 0), min(j_hi, self.ny - 1) + 1):
                self.blocked[base + j] = 1

    def add_blockages(self, rects: Iterable[Rect]) -> None:
        """Block the interiors of all ``rects``."""
        for rect in rects:
            self.block_rect(rect)

    def is_blocked(self, node: Node) -> bool:
        """True when ``node`` lies strictly inside a blockage."""
        i, j = node
        return bool(self.blocked[i * self.ny + j])

    def access_node(self, x: float, y: float) -> Optional[Node]:
        """The nearest unblocked node to layout position ``(x, y)``.

        Pins sit inside their own block's footprint, so their snapped node
        is usually blocked; the access node is where the net escapes onto
        the routing lattice (the pin-to-node stub is accounted separately).
        Returns ``None`` when every node is blocked.
        """
        index = self.access_index(x, y)
        return None if index is None else self.node(index)

    def access_index(self, x: float, y: float) -> Optional[int]:
        """:meth:`access_node` as a node int."""
        ci, cj = self.snap(x, y)
        ny, res, blocked = self.ny, self.resolution, self.blocked
        if not blocked[ci * ny + cj]:
            return ci * ny + cj
        best: Optional[int] = None
        best_dist = float("inf")
        found_radius: Optional[int] = None
        for radius in range(1, max(self.nx, ny) + 1):
            # Once a candidate exists at Chebyshev radius r, a nearer
            # *Manhattan* candidate can still hide out to radius 2r (+1
            # for the pin's sub-pitch offset from its snapped node).
            if found_radius is not None and radius > 2 * found_radius + 1:
                break
            for i, j in self._ring(ci, cj, radius):
                if blocked[i * ny + j]:
                    continue
                dist = abs(i * res - x) + abs(j * res - y)
                if dist < best_dist:
                    best = i * ny + j
                    best_dist = dist
            if best is not None and found_radius is None:
                found_radius = radius
        return best

    def _ring(self, ci: int, cj: int, radius: int) -> Iterable[Node]:
        """Lattice nodes at Chebyshev distance ``radius`` from ``(ci, cj)``."""
        i_lo, i_hi = ci - radius, ci + radius
        j_lo, j_hi = cj - radius, cj + radius
        for i in range(max(i_lo, 0), min(i_hi, self.nx - 1) + 1):
            if 0 <= j_lo < self.ny:
                yield (i, j_lo)
            if 0 <= j_hi < self.ny and j_hi != j_lo:
                yield (i, j_hi)
        for j in range(max(j_lo + 1, 0), min(j_hi - 1, self.ny - 1) + 1):
            if 0 <= i_lo < self.nx:
                yield (i_lo, j)
            if 0 <= i_hi < self.nx and i_hi != i_lo:
                yield (i_hi, j)

    # ------------------------------------------------------------------ #
    # Edge accounting
    # ------------------------------------------------------------------ #
    def edge_key(self, a: Node, b: Node) -> Tuple[bool, int]:
        """``(horizontal, flat index)`` of the edge between neighbours ``a``/``b``."""
        (ai, aj), (bi, bj) = a, b
        if aj == bj and abs(ai - bi) == 1:
            return (True, aj * (self.nx - 1) + min(ai, bi))
        if ai == bi and abs(aj - bj) == 1:
            return (False, min(aj, bj) * self.nx + ai)
        raise ValueError(f"nodes {a} and {b} are not lattice neighbours")

    def edge_id(self, a: Node, b: Node) -> int:
        """The table index of the edge between neighbours ``a``/``b``."""
        horizontal, index = self.edge_key(a, b)
        return index if horizontal else self.h_edges + index

    def usage(self, a: Node, b: Node) -> int:
        """Current number of nets over the edge ``a``-``b``."""
        return self.usage_table[self.edge_id(a, b)]

    def add_usage(self, edges: Iterable[Edge], delta: int) -> None:
        """Add ``delta`` nets to every edge in ``edges``."""
        self.add_edge_usage([self.edge_id(a, b) for a, b in edges], delta)

    def add_history(self, edges: Iterable[Edge], amount: float) -> None:
        """Grow the negotiation history cost of every edge in ``edges``."""
        self.add_edge_history([self.edge_id(a, b) for a, b in edges], amount)

    def add_edge_usage(self, edge_ids: Iterable[int], delta: int) -> None:
        """:meth:`add_usage` over edge ids, refreshing their costs."""
        usage, history, cost = self.usage_table, self.history_table, self.cost_table
        weight = self.congestion_weight
        for e in edge_ids:
            usage[e] += delta
            cost[e] = self._cost(usage[e], history[e], weight)

    def add_edge_history(self, edge_ids: Iterable[int], amount: float) -> None:
        """:meth:`add_history` over edge ids, refreshing their costs."""
        usage, history, cost = self.usage_table, self.history_table, self.cost_table
        weight = self.congestion_weight
        for e in edge_ids:
            history[e] += amount
            cost[e] = self._cost(usage[e], history[e], weight)

    def edge_cost(self, a: Node, b: Node, congestion_weight: float) -> float:
        """Congestion-aware traversal cost of one more net over ``a``-``b``.

        Base cost is the physical edge length; the negotiated history and
        the would-be overflow (usage after this net, past capacity) are
        added on top, so the cost never drops below the length and distance
        heuristics stay admissible.  With the grid's own congestion weight
        this is the edge's entry in :attr:`cost_table`.
        """
        e = self.edge_id(a, b)
        return self._cost(self.usage_table[e], self.history_table[e], congestion_weight)

    def _cost(self, usage: int, history: float, congestion_weight: float) -> float:
        over = usage + 1 - self.capacity
        penalty = history + (congestion_weight * over if over > 0 else 0.0)
        return self.resolution * (1.0 + penalty)

    def overflowed_edges(self) -> List[Edge]:
        """All edges currently carrying more nets than their capacity."""
        return [self.edge_nodes(e) for e in self.overflowed_edge_ids()]

    def overflowed_edge_ids(self) -> List[int]:
        """Ids of the overflowed edges, in increasing order."""
        cap = self.capacity
        return [e for e, usage in enumerate(self.usage_table) if usage > cap]

    @property
    def total_overflow(self) -> int:
        """Total net-units above capacity over all edges."""
        cap = self.capacity
        return sum(u - cap for u in self.usage_table if u > cap)

    @property
    def max_usage(self) -> int:
        """The most nets any single edge carries."""
        return max(self.usage_table, default=0)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def route_tree(self, nodes: Sequence[int]) -> Optional[Set[int]]:
        """Connect node ints ``nodes`` into one tree of edge ids.

        Grows the tree from the first terminal, each time A*-connecting the
        remaining terminal nearest (Manhattan, first on ties) to any tree node,
        over the current edge costs.  ``None`` when any leg is unreachable.
        """
        unique: List[int] = []
        for node in nodes:
            if node not in unique:
                unique.append(node)
        tree_edges: Set[int] = set()
        if len(unique) <= 1:
            return tree_edges
        ny = self.ny
        first = unique[0]
        tree: Set[int] = {first}
        fi, fj = divmod(first, ny)
        box = [fi, fi, fj, fj]  # min_i, max_i, min_j, max_j of the tree
        remaining = unique[1:]
        coords = [divmod(node, ny) for node in remaining]
        # Each remaining terminal's Manhattan distance to the nearest tree node.
        gaps = [abs(i - fi) + abs(j - fj) for i, j in coords]
        while remaining:
            best_index = gaps.index(min(gaps))  # the first of equal gaps
            start = remaining.pop(best_index)
            del coords[best_index], gaps[best_index]
            path = self._astar(start, tree, box)
            if path is None:
                return None
            previous = -1
            for node in path:
                if node not in tree:
                    tree.add(node)
                    i, j = divmod(node, ny)
                    box[:] = min(box[0], i), max(box[1], i), min(box[2], j), max(box[3], j)
                    for index, (ci, cj) in enumerate(coords):
                        dist = abs(ci - i) + abs(cj - j)
                        if dist < gaps[index]:
                            gaps[index] = dist
                if previous >= 0:
                    tree_edges.add(self.edge_id(self.node(previous), self.node(node)))
                previous = node
        return tree_edges

    def _astar(self, start: int, targets: Set[int], box: List[int]) -> Optional[List[int]]:
        """Cheapest congestion-aware path from ``start`` to any of ``targets``.

        ``box`` is ``targets``' ``[min_i, max_i, min_j, max_j]``; the heuristic
        is the Manhattan distance to it times the pitch, admissible because no
        edge costs less than its length.  Heap entries are ``(f, g, node)``,
        so equal-cost ties break on the node int.
        """
        self.astar_calls += 1
        if start in targets:
            return [start]
        nx, ny, res = self.nx, self.ny, self.resolution
        cost, blocked, h_edges = self.cost_table, self.blocked, self.h_edges
        min_i, max_i, min_j, max_j = box
        # Per-column and per-row distance to the box, in lattice steps.
        hx = [min_i - i if i < min_i else max(i - max_i, 0) for i in range(nx)]
        hy = [min_j - j if j < min_j else max(j - max_j, 0) for j in range(ny)]
        row = last_i = nx - 1  # horizontal edges per row; the last column
        last_j = ny - 1
        size = nx * ny
        best_g = [float("inf")] * size
        parent = [-1] * size
        closed = bytearray(size)
        best_g[start] = 0.0
        si, sj = divmod(start, ny)
        heap = [((hx[si] + hy[sj]) * res, 0.0, start)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            _, g, node = pop(heap)
            if closed[node]:
                continue
            closed[node] = 1
            if node in targets:
                self.expanded_nodes += closed.count(1)
                path = [node]
                node = parent[node]
                while node >= 0:
                    path.append(node)
                    node = parent[node]
                path.reverse()
                return path
            i, j = divmod(node, ny)
            # Neighbours in (i-1, j), (i+1, j), (i, j-1), (i, j+1) order.
            if i > 0:
                nb = node - ny
                if not closed[nb] and not blocked[nb]:
                    t = g + cost[j * row + i - 1]
                    if t < best_g[nb]:
                        best_g[nb] = t
                        parent[nb] = node
                        push(heap, (t + (hx[i - 1] + hy[j]) * res, t, nb))
            if i < last_i:
                nb = node + ny
                if not closed[nb] and not blocked[nb]:
                    t = g + cost[j * row + i]
                    if t < best_g[nb]:
                        best_g[nb] = t
                        parent[nb] = node
                        push(heap, (t + (hx[i + 1] + hy[j]) * res, t, nb))
            if j > 0:
                nb = node - 1
                if not closed[nb] and not blocked[nb]:
                    t = g + cost[h_edges + (j - 1) * nx + i]
                    if t < best_g[nb]:
                        best_g[nb] = t
                        parent[nb] = node
                        push(heap, (t + (hx[i] + hy[j - 1]) * res, t, nb))
            if j < last_j:
                nb = node + 1
                if not closed[nb] and not blocked[nb]:
                    t = g + cost[h_edges + j * nx + i]
                    if t < best_g[nb]:
                        best_g[nb] = t
                        parent[nb] = node
                        push(heap, (t + (hx[i] + hy[j + 1]) * res, t, nb))
        self.expanded_nodes += closed.count(1)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RoutingGrid({self.nx}x{self.ny} @ {self.resolution}, "
            f"capacity={self.capacity})"
        )
