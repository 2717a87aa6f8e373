"""Compiled kernels of the single-query instantiation path.

A structure answers a query from what it stored, so everything a query
checks or measures that depends only on the stored anchors, the canvas
or the netlist is compiled once here and reused by every query:

* :class:`LegalityPlan` — for each stored placement, the canvas caps and
  the per-pair overlap thresholds its fixed anchors reduce
  ``FloorplanBounds.contains`` and ``Rect.intersects`` to;
* :class:`IndexedScorer` — the cost function's wirelength + area terms
  over index-ordered anchors and dims, with every net terminal resolved
  to a block index and pin offset ahead of time, and every two-point net
  (two pins, or one pin and its I/O point) scored inline as its
  Manhattan distance.  HPWL, star and MST all reduce a two-point net to
  exactly ``abs(x0 - x1) + abs(y0 - y1)``, so the inline expression — same
  operands, same order — is the same float the estimator would return.

Both are exact: a plan answers what the scalar ``contains`` /
:func:`~repro.geometry.overlap.any_overlap` scan answers, and a scorer's
:class:`~repro.cost.cost_function.CostBreakdown` equals
:meth:`PlacementCostFunction.evaluate` bitwise.
"""

from __future__ import annotations

from operator import le
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.placement_entry import Dims, StoredPlacement
from repro.cost.cost_function import CostBreakdown, PlacementCostFunction
from repro.cost.wirelength import compile_net_terminals, wirelength_estimator
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect

#: One block-pair overlap test ``ws[kx] > gx and hs[ky] > gy``.
PairTest = Tuple[int, int, int, int]


def _axis_test(i: int, j: int, ci: int, cj: int) -> Tuple[int, int]:
    """``(block, gap)``: blocks ``i`` and ``j`` overlap on one axis iff ``dim[block] > gap``.

    Half-open spans ``[ci, ci + di)`` and ``[cj, cj + dj)`` with the lower
    one at ``ci < cj`` intersect iff ``di > cj - ci`` (the upper span's own
    extent only matters when it is empty).  Equal coordinates always
    intersect for positive extents, which ``dim > 0`` expresses.
    """
    if ci < cj:
        return i, cj - ci
    if cj < ci:
        return j, ci - cj
    return i, 0


class LegalityPlan:
    """Precompiled legality of stored placements, in a fixed try order.

    For each placement the plan holds the per-block canvas caps
    ``(W - x, H - y)`` and one :data:`PairTest` per block pair — the
    thresholds ``Rect.intersects`` reduces to for those anchors.  A block
    of dims ``(w, h)`` is in bounds iff ``w <= W - x and h <= H - y``
    (anchors are non-negative; placements with a negative anchor are never
    legal and are left out), and two blocks overlap iff both axis tests
    pass.

    The plan is sound for any positive dims: no pair is pruned, so a
    block's bounds changing after compilation cannot make it stale.  Block
    minimums are at least 1, so every clamped query qualifies.
    """

    __slots__ = ("_entries",)

    def __init__(self, placements: Sequence[StoredPlacement], bounds: FloorplanBounds) -> None:
        width, height = bounds.width, bounds.height
        entries = []
        for stored in placements:
            anchors = stored.anchors
            if any(x < 0 or y < 0 for x, y in anchors):
                continue
            cap_w = tuple(width - x for x, _ in anchors)
            cap_h = tuple(height - y for _, y in anchors)
            pairs: List[PairTest] = []
            for i, (xi, yi) in enumerate(anchors):
                for j in range(i + 1, len(anchors)):
                    xj, yj = anchors[j]
                    pairs.append(_axis_test(i, j, xi, xj) + _axis_test(i, j, yi, yj))
            # Tightest pairs first: the ones separated by the thinnest margin
            # at the placement's smallest box dims collide first when a query
            # leaves the box.  This orders the scan; it never drops a test.
            low = [(r.width.start, r.height.start) for r in stored.ranges]
            pairs.sort(key=lambda t: max(t[1] - low[t[0]][0], t[3] - low[t[2]][1]))
            entries.append((stored, cap_w, cap_h, tuple(pairs)))
        self._entries = tuple(entries)

    def first_legal(self, dims: Sequence[Dims]) -> Optional[StoredPlacement]:
        """The first placement in plan order that is legal at ``dims``, if any.

        Caps are checked before pairs and both stop at the first failure.
        """
        ws = [w for w, _ in dims]
        hs = [h for _, h in dims]
        for stored, cap_w, cap_h, pairs in self._entries:
            if not (all(map(le, ws, cap_w)) and all(map(le, hs, cap_h))):
                continue
            for kx, gx, ky, gy in pairs:
                if ws[kx] > gx and hs[ky] > gy:
                    break
            else:
                return stored
        return None


class IndexedScorer:
    """A cost function's :class:`CostBreakdown` from index-ordered anchors and dims.

    Wirelength comes from :func:`~repro.cost.wirelength.compile_net_terminals`:
    each net is compiled once into one record over a point table — the pin
    slots at ``x + fx*w, y + fy*h``, then the constant external I/O points.
    A net with exactly two connection points (two pins, or one pin and its
    I/O point) is scored inline as ``weight * (abs(px - qx) + abs(py - qy))``
    with its first terminal first; that is the expression every estimator
    returns for two points (``_two_pin_length``), so the result is the same
    float.  Every other net goes through the cost function's estimator.
    Nets accumulate left to right in net order with ``+=``, as
    :func:`~repro.cost.wirelength.total_wirelength` does — never ``sum()``,
    whose float rounding differs across Python versions.  Area is the
    integer bounding-box area.  Both then go through
    :meth:`PlacementCostFunction.breakdown_from` — the second half of
    :meth:`~PlacementCostFunction.evaluate` — which prices any nonzero
    penalty weight on the rects mapping and composes the total.

    Only valid for cost functions that do not override evaluation
    (:attr:`~PlacementCostFunction.supports_vectorized`).  The netlist is
    compiled once, so the scorer — like a cached
    :class:`~repro.eval.vector.BatchEvaluator` — assumes the circuit's nets
    and pins do not change afterwards.
    """

    __slots__ = ("_cost_function", "_slots", "_externals", "_nets", "_estimator")

    def __init__(self, cost_function: PlacementCostFunction) -> None:
        if not cost_function.supports_vectorized:
            raise TypeError(
                f"{type(cost_function).__name__} overrides evaluation; score with its evaluate()"
            )
        self._cost_function = cost_function
        circuit = cost_function.circuit
        compiled = compile_net_terminals(circuit, cost_function.bounds)
        slots: List[Tuple[int, float, float]] = []
        for pins, _ in compiled:
            slots.extend(pins)
        # Point table: every pin slot back to back, then the external points.
        externals: List[Tuple[float, float]] = []
        # Per net ``(weight, p, q, members)``: a two-point net is the pair
        # of point indices ``p, q`` and ``members is None``; any other net
        # lists its point indices in ``members``.
        nets = []
        start = 0
        for net, (pins, external) in zip(circuit.nets, compiled):
            members = list(range(start, start + len(pins)))
            start += len(pins)
            if external is not None:
                members.append(len(slots) + len(externals))
                externals.append(external)
            if len(members) == 2:
                nets.append((net.weight, members[0], members[1], None))
            else:
                nets.append((net.weight, 0, 0, tuple(members)))
        self._slots = tuple(slots)
        self._externals = tuple(externals)
        self._nets = tuple(nets)
        self._estimator = wirelength_estimator(cost_function.wirelength_model)

    def evaluate(
        self,
        anchors: Sequence[Tuple[int, int]],
        dims: Sequence[Dims],
        rects: Dict[str, Rect],
    ) -> CostBreakdown:
        """Score the layout ``rects`` given as its index-ordered ``anchors`` and ``dims``."""
        xs = [x for x, _ in anchors]
        ys = [y for _, y in anchors]
        ws = [w for w, _ in dims]
        hs = [h for _, h in dims]
        points = [(xs[b] + fx * ws[b], ys[b] + fy * hs[b]) for b, fx, fy in self._slots]
        points += self._externals
        estimator = self._estimator
        wirelength = 0.0
        for weight, p, q, members in self._nets:
            if members is None:
                px, py = points[p]
                qx, qy = points[q]
                wirelength += weight * (abs(px - qx) + abs(py - qy))
            else:
                wirelength += weight * estimator([points[k] for k in members])
        area = 0.0
        if xs:
            x0 = min(xs)
            y0 = min(ys)
            x2 = max([x + w for x, w in zip(xs, ws)])
            y2 = max([y + h for y, h in zip(ys, hs)])
            area = float((x2 - x0) * (y2 - y0))
        return self._cost_function.breakdown_from(rects, wirelength, area)
