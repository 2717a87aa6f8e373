"""The mutable layout state behind incremental cost evaluation.

Every optimizer in the library proposes *small* changes — move one block,
swap two anchors, resize a handful of modules — yet the from-scratch cost
path rebuilds every rectangle and rescans every net and every pair of
blocks per proposal.  :class:`LayoutState` keeps the layout mutable and
caches exactly the quantities whose recomputation dominates that scan:

* per-net unweighted wirelength (only nets touching a moved block are
  re-measured),
* total pairwise overlap area, maintained through a
  :class:`~repro.geometry.overlap.SpatialGrid` so each move only tests
  its local neighbourhood,
* per-block out-of-bounds area,
* per-group symmetry mismatch (only groups containing a moved block are
  re-measured),
* per-net RUDY congestion contributions into the routability bins.

All cached components except routability are *bitwise* identical to the
from-scratch functions in :mod:`repro.cost`: unaffected values are reused
verbatim and totals are re-accumulated in the same iteration order with
the same arithmetic, so an incremental evaluation and
:meth:`repro.cost.cost_function.PlacementCostFunction.evaluate` agree
exactly.  The routability bins accumulate float add/subtract drift, which
:meth:`refresh` (the periodic resync) clears.

Mutations are transactional: :meth:`apply` stages a set of block updates
and journals everything it touches, :meth:`commit` keeps them and
:meth:`rollback` restores the previous state exactly — the shape a
simulated-annealing accept/reject loop needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.cost.penalties import DEFAULT_TRACK_CAPACITY, rudy_net_entries
from repro.cost.wirelength import CompiledNet, compile_net_terminals, wirelength_estimator
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.overlap import SpatialGrid, auto_cell_size
from repro.geometry.rect import Rect

Anchor = Tuple[int, int]
Dims = Tuple[int, int]

#: A staged change to one block: ``(block_index, new_rect)``.
RectUpdate = Tuple[int, Rect]


class LayoutState:
    """Mutable placed layout with component caches and transactional updates.

    Parameters
    ----------
    circuit:
        The circuit whose nets and symmetry groups drive the caches.
    bounds:
        Floorplan canvas (``None`` disables out-of-bounds and routability
        tracking and external-net I/O terminals).
    rects:
        Initial block rectangles in circuit block-index order.
    wirelength_model:
        ``"hpwl"``, ``"star"`` or ``"mst"``.
    track_overlap / track_out_of_bounds / track_symmetry / track_routability:
        Which penalty caches to maintain; leave off whatever the cost
        weights do not use so moves stay as cheap as possible.
    """

    def __init__(
        self,
        circuit: Circuit,
        bounds: Optional[FloorplanBounds],
        rects: Sequence[Rect],
        wirelength_model: str = "hpwl",
        track_overlap: bool = False,
        track_out_of_bounds: bool = False,
        track_symmetry: bool = False,
        track_routability: bool = False,
        routability_bins: int = 8,
        track_capacity: float = DEFAULT_TRACK_CAPACITY,
    ) -> None:
        if len(rects) != circuit.num_blocks:
            raise ValueError(
                f"rects must have one entry per block ({circuit.num_blocks}), got {len(rects)}"
            )
        if (track_out_of_bounds or track_routability) and bounds is None:
            raise ValueError("out-of-bounds and routability tracking require floorplan bounds")
        self._circuit = circuit
        self._bounds = bounds
        self._estimator = wirelength_estimator(wirelength_model)
        self._track_overlap = track_overlap
        self._track_oob = track_out_of_bounds
        self._track_symmetry = track_symmetry and bool(circuit.symmetry_groups)
        self._track_routability = track_routability
        self._bins = routability_bins
        self._track_capacity = track_capacity

        self._rects: List[Rect] = list(rects)
        # Name-keyed view in block order; shared with the from-scratch cost
        # helpers so component values match the full evaluation bitwise.
        self._rects_dict: Dict[str, Rect] = {
            block.name: rect for block, rect in zip(circuit.blocks, self._rects)
        }

        # Static adjacency: which nets / symmetry groups each block touches.
        self._block_nets: List[List[int]] = [[] for _ in range(circuit.num_blocks)]
        for net_index, net in enumerate(circuit.nets):
            for name in net.blocks():
                self._block_nets[circuit.block_index(name)].append(net_index)
        # Flattened terminals per net, so re-measuring a net is arithmetic
        # over the rect list instead of name/pin lookups (bitwise equal to
        # net_terminal_positions, see compile_net_terminals).
        self._net_terminals: List[CompiledNet] = compile_net_terminals(circuit, bounds)
        self._block_groups: List[List[int]] = [[] for _ in range(circuit.num_blocks)]
        if self._track_symmetry:
            for group_index, group in enumerate(circuit.symmetry_groups):
                for name in group.blocks():
                    block_index = circuit.block_index(name)
                    if group_index not in self._block_groups[block_index]:
                        self._block_groups[block_index].append(group_index)

        self._grid: Optional[SpatialGrid] = None
        self._journal: Optional[dict] = None
        self.refresh()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def circuit(self) -> Circuit:
        """The circuit the state is laid out for."""
        return self._circuit

    @property
    def bounds(self) -> Optional[FloorplanBounds]:
        """The floorplan canvas, if any."""
        return self._bounds

    def rect(self, index: int) -> Rect:
        """The current rectangle of block ``index``."""
        return self._rects[index]

    def rects(self) -> Dict[str, Rect]:
        """Copy of the name -> rectangle mapping (block-index order)."""
        return dict(self._rects_dict)

    def anchors(self) -> Tuple[Anchor, ...]:
        """Current block anchors in index order."""
        return tuple((r.x, r.y) for r in self._rects)

    def dims(self) -> Tuple[Dims, ...]:
        """Current block dimensions in index order."""
        return tuple((r.w, r.h) for r in self._rects)

    @property
    def in_transaction(self) -> bool:
        """True while an :meth:`apply` is awaiting commit/rollback."""
        return self._journal is not None

    # ------------------------------------------------------------------ #
    # Full (re)computation — construction and the periodic resync
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Rebuild every cache from the current rectangles.

        Called at construction and by the evaluator's periodic resync; it
        bounds the float drift the routability bins can accumulate.
        """
        if self._journal is not None:
            raise RuntimeError("cannot refresh with an uncommitted transaction pending")
        circuit = self._circuit
        self._net_lengths: List[float] = [
            self._estimator(self._net_positions(net_index))
            for net_index in range(circuit.num_nets)
        ]

        if self._track_overlap:
            grid = SpatialGrid(cell_size=auto_cell_size(self._rects))
            for index, rect in enumerate(self._rects):
                grid.insert(index, rect)
            self._grid = grid
            total = 0
            for index, rect in enumerate(self._rects):
                total += self._overlap_with_others(index, rect)
            # Every pair was counted twice (once per endpoint).
            self._overlap_total = total // 2

        if self._track_oob:
            assert self._bounds is not None
            canvas = self._bounds.as_rect()
            self._oob: List[int] = []
            for rect in self._rects:
                inside = rect.intersection(canvas)
                self._oob.append(rect.area - (inside.area if inside is not None else 0))
            self._oob_total = sum(self._oob)

        if self._track_symmetry:
            self._group_mismatch: List[float] = [
                group.mismatch(self._rects_dict) for group in circuit.symmetry_groups
            ]

        if self._track_routability:
            assert self._bounds is not None
            self._bin_w = self._bounds.width / self._bins
            self._bin_h = self._bounds.height / self._bins
            self._density: List[float] = [0.0] * (self._bins * self._bins)
            self._net_bins: List[List[Tuple[int, float]]] = []
            for net_index, net in enumerate(circuit.nets):
                positions = self._net_positions(net_index)
                entries = rudy_net_entries(
                    positions, net.weight, self._bins, self._bin_w, self._bin_h
                )
                self._net_bins.append(entries)
                for bin_index, amount in entries:
                    self._density[bin_index] += amount

    def _net_positions(self, net_index: int) -> List[Tuple[float, float]]:
        """All connection-point positions of one net, from the rect list.

        Equivalent to :func:`~repro.cost.wirelength.net_terminal_positions`
        (same order, same arithmetic) without the per-call name, block and
        pin lookups.
        """
        rects = self._rects
        pins, external = self._net_terminals[net_index]
        positions = []
        for block_index, fx, fy in pins:
            rect = rects[block_index]
            positions.append((rect.x + fx * rect.w, rect.y + fy * rect.h))
        if external is not None:
            positions.append(external)
        return positions

    # ------------------------------------------------------------------ #
    # Component readouts (match repro.cost bitwise, see module docstring)
    # ------------------------------------------------------------------ #
    def wirelength(self) -> float:
        """Weighted total wirelength from the per-net cache (net order)."""
        total = 0.0
        for net, length in zip(self._circuit.nets, self._net_lengths):
            total += net.weight * length
        return total

    def net_length(self, net_index: int) -> float:
        """Cached unweighted wirelength of net ``net_index``."""
        return self._net_lengths[net_index]

    def _bbox(self) -> Tuple[int, int]:
        """Width and height of the layout bounding box (one fused scan).

        Integer mins/maxes, so the result matches
        :func:`~repro.geometry.rect.bounding_box_of` exactly.
        """
        first = self._rects[0]
        x_lo, y_lo = first.x, first.y
        x_hi, y_hi = first.x + first.w, first.y + first.h
        for rect in self._rects:
            x, y = rect.x, rect.y
            if x < x_lo:
                x_lo = x
            if y < y_lo:
                y_lo = y
            x2, y2 = x + rect.w, y + rect.h
            if x2 > x_hi:
                x_hi = x2
            if y2 > y_hi:
                y_hi = y2
        return (x_hi - x_lo, y_hi - y_lo)

    def bbox_costs(self) -> Tuple[float, float]:
        """Bounding-box area and aspect-ratio penalty from one fused scan.

        Matches :func:`repro.cost.area.area_cost` and
        :func:`repro.cost.area.aspect_ratio_penalty` exactly.
        """
        if not self._rects:
            return (0.0, 0.0)
        width, height = self._bbox()
        area = float(width * height)
        if width == 0 or height == 0:
            return (area, 0.0)
        aspect = width / height
        if aspect < 1.0:
            aspect = 1.0 / aspect
        return (area, max(0.0, aspect - 1.0))

    def area(self) -> float:
        """Bounding-box area of the layout (== :func:`repro.cost.area.area_cost`)."""
        return self.bbox_costs()[0]

    def aspect_ratio(self) -> float:
        """Aspect-ratio penalty (== :func:`repro.cost.area.aspect_ratio_penalty`)."""
        return self.bbox_costs()[1]

    def overlap(self) -> float:
        """Total pairwise overlap area (requires overlap tracking)."""
        return float(self._overlap_total)

    def out_of_bounds(self) -> float:
        """Total block area outside the canvas (requires oob tracking)."""
        return float(self._oob_total)

    def symmetry(self) -> float:
        """Total symmetry mismatch from the per-group cache (group order)."""
        return sum(self._group_mismatch)

    def routability(self) -> float:
        """RUDY congestion above capacity from the maintained bins."""
        bin_area = self._bin_w * self._bin_h
        threshold = self._track_capacity * bin_area
        return sum(d - threshold for d in self._density if d > threshold)

    # ------------------------------------------------------------------ #
    # Transactional mutation
    # ------------------------------------------------------------------ #
    def apply(self, updates: Sequence[RectUpdate]) -> None:
        """Stage block updates, refreshing only the caches they touch.

        Exactly one transaction may be pending; finish it with
        :meth:`commit` or :meth:`rollback`.  Updates whose rectangle equals
        the current one are ignored.
        """
        if self._journal is not None:
            raise RuntimeError("a transaction is already pending; commit or rollback first")
        journal: dict = {"rects": []}
        changed: List[int] = []
        canvas = self._bounds.as_rect() if self._track_oob else None
        if self._track_overlap:
            journal["overlap_total"] = self._overlap_total
        if self._track_oob:
            journal["oob"] = []
            journal["oob_total"] = self._oob_total

        for index, new_rect in updates:
            old_rect = self._rects[index]
            if new_rect == old_rect:
                continue
            changed.append(index)
            journal["rects"].append((index, old_rect))
            if self._track_overlap:
                assert self._grid is not None
                self._overlap_total -= self._overlap_with_others(index, old_rect)
                self._grid.remove(index)
            self._rects[index] = new_rect
            self._rects_dict[self._circuit.blocks[index].name] = new_rect
            if self._track_overlap:
                self._grid.insert(index, new_rect)
                self._overlap_total += self._overlap_with_others(index, new_rect)
            if self._track_oob:
                assert canvas is not None
                inside = new_rect.intersection(canvas)
                outside = new_rect.area - (inside.area if inside is not None else 0)
                journal["oob"].append((index, self._oob[index]))
                self._oob_total += outside - self._oob[index]
                self._oob[index] = outside

        if changed:
            self._refresh_nets(changed, journal)
            self._refresh_groups(changed, journal)
        self._journal = journal

    def _refresh_nets(self, changed: Sequence[int], journal: dict) -> None:
        affected = sorted({net_index for i in changed for net_index in self._block_nets[i]})
        journal["nets"] = [(n, self._net_lengths[n]) for n in affected]
        if self._track_routability:
            journal["net_bins"] = [(n, self._net_bins[n]) for n in affected]
            journal["density"] = list(self._density)
        circuit = self._circuit
        for net_index in affected:
            net = circuit.nets[net_index]
            positions = self._net_positions(net_index)
            self._net_lengths[net_index] = self._estimator(positions)
            if self._track_routability:
                for bin_index, amount in self._net_bins[net_index]:
                    self._density[bin_index] -= amount
                entries = rudy_net_entries(
                    positions, net.weight, self._bins, self._bin_w, self._bin_h
                )
                self._net_bins[net_index] = entries
                for bin_index, amount in entries:
                    self._density[bin_index] += amount

    def _refresh_groups(self, changed: Sequence[int], journal: dict) -> None:
        if not self._track_symmetry:
            return
        affected = sorted({g for i in changed for g in self._block_groups[i]})
        journal["groups"] = [(g, self._group_mismatch[g]) for g in affected]
        for group_index in affected:
            group = self._circuit.symmetry_groups[group_index]
            self._group_mismatch[group_index] = group.mismatch(self._rects_dict)

    def commit(self) -> None:
        """Keep the pending transaction."""
        if self._journal is None:
            raise RuntimeError("no transaction to commit")
        self._journal = None

    def rollback(self) -> None:
        """Undo the pending transaction exactly (caches included)."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("no transaction to roll back")
        for index, old_rect in reversed(journal["rects"]):
            if self._track_overlap:
                assert self._grid is not None
                self._grid.remove(index)
                self._grid.insert(index, old_rect)
            self._rects[index] = old_rect
            self._rects_dict[self._circuit.blocks[index].name] = old_rect
        if self._track_overlap:
            self._overlap_total = journal["overlap_total"]
        if self._track_oob:
            # Reversed like the rect restores: duplicate block indices in one
            # transaction journal several entries and the first must win.
            for index, value in reversed(journal["oob"]):
                self._oob[index] = value
            self._oob_total = journal["oob_total"]
        for net_index, length in journal.get("nets", ()):
            self._net_lengths[net_index] = length
        if self._track_routability and "density" in journal:
            self._density = journal["density"]
            for net_index, entries in journal["net_bins"]:
                self._net_bins[net_index] = entries
        for group_index, mismatch in journal.get("groups", ()):
            self._group_mismatch[group_index] = mismatch
        self._journal = None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _overlap_with_others(self, index: int, rect: Rect) -> int:
        """Total overlap area between ``rect`` and every other block."""
        assert self._grid is not None
        total = 0
        for other in self._grid.query(rect, exclude=index):
            inter = rect.intersection(self._rects[other])
            if inter is not None:
                total += inter.area
        return total
