"""Vectorized batch layout scoring on stacked rect tensors.

Annealing proposal batches, genetic populations and ``instantiate_batch``
candidate ranking all score dozens-to-thousands of layouts of the *same*
circuit.  :class:`BatchEvaluator` stacks those candidates into one numpy
rect tensor of shape ``(n_candidates, n_blocks, 4)`` (``[x, y, w, h]`` per
block, circuit block-index order) and evaluates every cost term across the
whole batch in a handful of fused array sweeps:

* HPWL / star wirelength via per-net terminal gathers + masked axis
  min/max reductions,
* pairwise overlap over the upper-triangle block-pair index arrays,
* out-of-bounds clamping against the canvas,
* symmetry-group mismatch through index-paired coordinate algebra,
* RUDY congestion as per-net vectorized bin spreads.

The scalar :meth:`~repro.cost.cost_function.PlacementCostFunction.evaluate`
path stays the bit-exact oracle.  Every kernel here replicates the scalar
arithmetic operation for operation — reductions that the scalar code runs
as sequential Python sums are accumulated in the same order over the
net/pair/bin axis (vectorized over candidates only), the 2-pin star
shortcut is special-cased, and integer terms are computed in int64 — so a
``BatchEvaluator`` total is *bitwise identical* to ``evaluate_layout`` for
the vectorizable wirelength models.  That guarantee is what lets the
optimizers swap in batch scoring without disturbing fixed-seed
trajectories.

The ``"mst"`` wirelength model (sequential Prim) and cost subclasses that
override evaluation (see
:attr:`~repro.cost.cost_function.PlacementCostFunction.supports_vectorized`)
cannot be array-evaluated; :mod:`repro.eval.batch` falls back to the
scalar loop for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cost.cost_function import CostBreakdown, PlacementCostFunction
from repro.cost.penalties import DEFAULT_TRACK_CAPACITY
from repro.cost.wirelength import compile_net_terminals

try:  # pragma: no cover - exercised by uninstalling numpy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Message raised when vectorized evaluation is requested without numpy.
NUMPY_HINT = (
    "numpy is required for vectorized batch evaluation; install it "
    "(python -m pip install numpy) or stay on the scalar oracle path — "
    "PlacementCostFunction.evaluate_layout, which repro.eval.batch falls "
    "back to automatically (and which REPRO_VECTORIZE=0 forces)."
)

#: Wirelength models the batch kernels can express.  ``"mst"`` is an
#: inherently sequential Prim pass and keeps the scalar loop.
VECTORIZABLE_MODELS = frozenset({"hpwl", "star"})

#: Number of RUDY bins per axis (matches ``routability_penalty``'s default).
_RUDY_BINS = 8

#: Rough cap on elements of the largest per-chunk intermediate array;
#: larger batches are scored in candidate slices and re-concatenated.
_CHUNK_ELEMENTS = 1 << 22

#: Per-term array fields of :class:`BatchBreakdown`, in compose order.
_BREAKDOWN_FIELDS = (
    "total",
    "wirelength",
    "area",
    "overlap",
    "out_of_bounds",
    "symmetry",
    "aspect_ratio",
    "routability",
)


def numpy_available() -> bool:
    """True when numpy imported and the vector kernels can run."""
    return _np is not None


def require_numpy():
    """The numpy module, or an :class:`ImportError` pointing at the fallback."""
    if _np is None:
        raise ImportError(NUMPY_HINT)
    return _np


@dataclass(frozen=True)
class BatchBreakdown:
    """Per-candidate cost components of one batch evaluation.

    Every field is a float64 array of shape ``(n_candidates,)``; ``total``
    carries the weighted sum and the rest the unweighted components, so
    ``breakdown(i)`` reconstructs the scalar :class:`CostBreakdown` of
    candidate ``i`` bit for bit.
    """

    total: "Sequence[float]"
    wirelength: "Sequence[float]"
    area: "Sequence[float]"
    overlap: "Sequence[float]"
    out_of_bounds: "Sequence[float]"
    symmetry: "Sequence[float]"
    aspect_ratio: "Sequence[float]"
    routability: "Sequence[float]"

    def __len__(self) -> int:
        return len(self.total)

    def breakdown(self, index: int) -> CostBreakdown:
        """The scalar :class:`CostBreakdown` of candidate ``index``."""
        return CostBreakdown(
            total=float(self.total[index]),
            wirelength=float(self.wirelength[index]),
            area=float(self.area[index]),
            overlap=float(self.overlap[index]),
            out_of_bounds=float(self.out_of_bounds[index]),
            symmetry=float(self.symmetry[index]),
            aspect_ratio=float(self.aspect_ratio[index]),
            routability=float(self.routability[index]),
        )

    def breakdowns(self) -> List[CostBreakdown]:
        """Scalar breakdowns of every candidate, in batch order."""
        return [self.breakdown(i) for i in range(len(self))]

    def best_index(self) -> int:
        """Index of the lowest-total candidate."""
        np = require_numpy()
        return int(np.argmin(np.asarray(self.total)))


class _GroupArrays:
    """Index-paired coordinate arrays of one symmetry group."""

    __slots__ = ("left", "right", "selfs", "count")

    def __init__(self, left: List[int], right: List[int], selfs: List[int]) -> None:
        self.left = left
        self.right = right
        self.selfs = selfs
        self.count = len(left) + len(selfs)


class BatchEvaluator:
    """Score stacked candidate layouts of one circuit in fused array sweeps.

    Construct via :meth:`PlacementCostFunction.batch` (mirroring
    :meth:`~repro.cost.cost_function.PlacementCostFunction.bind`) or let
    :func:`repro.eval.batch.batch_evaluator_for` pick the path.  The
    evaluator is stateless between calls and safe to share across threads.

    Raises
    ------
    ImportError
        When numpy is unavailable (:data:`NUMPY_HINT`).
    TypeError
        When the cost subclass overrides evaluation
        (``supports_vectorized`` is False).
    ValueError
        For non-vectorizable wirelength models (``"mst"``).
    """

    def __init__(self, cost_function: PlacementCostFunction) -> None:
        np = require_numpy()
        if not cost_function.supports_vectorized:
            raise TypeError(
                f"{type(cost_function).__name__} overrides evaluate()/evaluate_layout()/"
                "compose(); its custom terms cannot be array-evaluated. Keep the "
                "scalar loop (repro.eval.batch falls back to it automatically)."
            )
        model = cost_function.wirelength_model
        if model not in VECTORIZABLE_MODELS:
            raise ValueError(
                f"wirelength model {model!r} is inherently sequential and cannot be "
                f"vectorized; vectorizable models: {sorted(VECTORIZABLE_MODELS)}"
            )
        self._cost_function = cost_function
        self._model = model
        circuit = cost_function.circuit
        bounds = cost_function.bounds
        self._circuit = circuit
        self._bounds = bounds
        self._weights = cost_function.weights
        self._num_blocks = circuit.num_blocks

        # --- per-net terminal gather arrays (padded dense (N, D) layout) ---
        # Each slot is either a (block_index, fx, fy) pin — position
        # X + fx*W, Y + fy*H, Rect.terminal_position's arithmetic — or the
        # net's constant external I/O point, both from
        # compile_net_terminals.  Padding slots are masked out of reductions.
        per_net: List[List[Tuple[int, float, float, float, float, bool]]] = []
        max_deg = 1
        for pins, external in compile_net_terminals(circuit, bounds):
            slots = [(bi, fx, fy, 0.0, 0.0, False) for bi, fx, fy in pins]
            if external is not None:
                slots.append((0, 0.0, 0.0, external[0], external[1], True))
            per_net.append(slots)
            max_deg = max(max_deg, len(slots))

        num_nets = circuit.num_nets
        self._num_nets = num_nets
        self._term_block = np.zeros((num_nets, max_deg), dtype=np.intp)
        self._term_fx = np.zeros((num_nets, max_deg))
        self._term_fy = np.zeros((num_nets, max_deg))
        self._term_const_x = np.zeros((num_nets, max_deg))
        self._term_const_y = np.zeros((num_nets, max_deg))
        self._term_is_ext = np.zeros((num_nets, max_deg), dtype=bool)
        self._term_mask = np.zeros((num_nets, max_deg), dtype=bool)
        degrees: List[int] = []
        for n, slots in enumerate(per_net):
            degrees.append(len(slots))
            for d, (bi, fx, fy, cx, cy, ext) in enumerate(slots):
                self._term_block[n, d] = bi
                self._term_fx[n, d] = fx
                self._term_fy[n, d] = fy
                self._term_const_x[n, d] = cx
                self._term_const_y[n, d] = cy
                self._term_is_ext[n, d] = ext
                self._term_mask[n, d] = True
        self._net_degrees = degrees
        self._degree_arr = np.asarray(degrees, dtype=np.int64).reshape(1, num_nets)
        self._net_weights = [net.weight for net in circuit.nets]

        # --- block-pair upper-triangle indices for overlap / legality ---
        self._pair_i, self._pair_j = np.triu_indices(self._num_blocks, k=1)

        # --- symmetry-group index pairs ---
        block_index = circuit.block_index
        self._groups: List[_GroupArrays] = []
        for group in circuit.symmetry_groups:
            left = [block_index(a) for a, _ in group.pairs]
            right = [block_index(b) for _, b in group.pairs]
            selfs = [block_index(name) for name in group.self_symmetric]
            self._groups.append(_GroupArrays(left, right, selfs))

        # --- RUDY bin geometry (matches routability_penalty's defaults) ---
        if bounds is not None:
            self._bin_w = bounds.width / _RUDY_BINS
            self._bin_h = bounds.height / _RUDY_BINS
            span = np.arange(_RUDY_BINS + 1)
            self._bin_lo_x = span[:-1] * self._bin_w
            self._bin_hi_x = span[1:] * self._bin_w
            self._bin_lo_y = span[:-1] * self._bin_h
            self._bin_hi_y = span[1:] * self._bin_h

        # Largest per-candidate intermediate (pairs, gathered terminals,
        # RUDY bin grid) bounds how many candidates one chunk may hold.
        per_candidate = max(
            1,
            self._num_blocks * self._num_blocks,  # the overlap matrix
            num_nets * max_deg,
            _RUDY_BINS * _RUDY_BINS,
        )
        self._chunk = max(1, _CHUNK_ELEMENTS // per_candidate)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def cost_function(self) -> PlacementCostFunction:
        """The cost function whose weights/bounds/model the kernels mirror."""
        return self._cost_function

    @property
    def num_blocks(self) -> int:
        """Blocks per candidate layout (the tensor's second axis)."""
        return self._num_blocks

    # ------------------------------------------------------------------ #
    # Tensor construction
    # ------------------------------------------------------------------ #
    def stack(self, anchors_batch, dims) -> "object":
        """Stack anchors + dims into the ``(n_candidates, n_blocks, 4)`` tensor.

        ``anchors_batch`` is ``(n_candidates, n_blocks, 2)`` (any nested
        sequence); ``dims`` is either one shared ``(n_blocks, 2)`` vector
        (genetic populations, stored-placement ranking) or a per-candidate
        ``(n_candidates, n_blocks, 2)`` batch.
        """
        np = require_numpy()
        anchors = np.asarray(anchors_batch, dtype=np.int64)
        if anchors.ndim != 3 or anchors.shape[1:] != (self._num_blocks, 2):
            raise ValueError(
                "anchors_batch must have shape (n_candidates, "
                f"{self._num_blocks}, 2), got {anchors.shape}"
            )
        dims_arr = np.asarray(dims, dtype=np.int64)
        count = anchors.shape[0]
        if dims_arr.shape == (self._num_blocks, 2):
            dims_arr = np.broadcast_to(dims_arr, (count, self._num_blocks, 2))
        elif dims_arr.shape != (count, self._num_blocks, 2):
            raise ValueError(
                f"dims must have shape ({self._num_blocks}, 2) or "
                f"({count}, {self._num_blocks}, 2), got {dims_arr.shape}"
            )
        rects = np.empty((count, self._num_blocks, 4), dtype=np.int64)
        rects[:, :, :2] = anchors
        rects[:, :, 2:] = dims_arr
        return rects

    def _validate(self, rects):
        np = _np
        rects = np.asarray(rects)
        if rects.ndim != 3 or rects.shape[1:] != (self._num_blocks, 4):
            raise ValueError(
                "rect tensor must have shape (n_candidates, "
                f"{self._num_blocks}, 4), got {rects.shape}"
            )
        if not np.issubdtype(rects.dtype, np.integer):
            raise TypeError(
                f"rect tensor must be integer-valued grid coordinates, got dtype {rects.dtype}"
            )
        rects = rects.astype(np.int64, copy=False)
        if rects.size and int(rects[:, :, 2:].min()) < 0:
            raise ValueError("rectangle dimensions must be non-negative")
        return rects

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate_batch(self, rects) -> BatchBreakdown:
        """Score every candidate of the rect tensor.

        Returns a :class:`BatchBreakdown` whose per-candidate components
        and totals are bitwise identical to running
        :meth:`PlacementCostFunction.evaluate_layout` per candidate.
        """
        np = require_numpy()
        rects = self._validate(rects)
        count = rects.shape[0]
        if count <= self._chunk:
            return self._evaluate_chunk(rects)
        parts = [
            self._evaluate_chunk(rects[start : start + self._chunk])
            for start in range(0, count, self._chunk)
        ]
        return BatchBreakdown(
            **{
                field: np.concatenate([getattr(part, field) for part in parts])
                for field in _BREAKDOWN_FIELDS
            }
        )

    def totals(self, rects) -> "object":
        """The weighted ``(n_candidates,)`` cost vector alone."""
        return self.evaluate_batch(rects).total

    def breakdowns(self, rects) -> List[CostBreakdown]:
        """Scalar :class:`CostBreakdown` per candidate, in batch order."""
        return self.evaluate_batch(rects).breakdowns()

    def feasible_mask(self, rects) -> "object":
        """Per-candidate legality (in-bounds and overlap-free) booleans.

        Matches the scalar check exactly: every rect satisfies
        ``FloorplanBounds.contains`` and no pair satisfies the strict
        ``Rect.intersects`` (which can fire on zero-area touching rects,
        so this is *not* simply ``overlap == 0``).  Requires bounds.
        """
        np = require_numpy()
        if self._bounds is None:
            raise ValueError("feasible_mask requires floorplan bounds on the cost function")
        rects = self._validate(rects)
        count = rects.shape[0]
        if count == 0:
            return np.zeros(0, dtype=bool)
        chunks = []
        for start in range(0, count, self._chunk):
            chunks.append(self._feasible_chunk(rects[start : start + self._chunk]))
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    # ------------------------------------------------------------------ #
    # Kernels (one candidate chunk each)
    # ------------------------------------------------------------------ #
    def _evaluate_chunk(self, rects) -> BatchBreakdown:
        np = _np
        weights = self._weights
        count = rects.shape[0]
        xs = rects[:, :, 0]
        ys = rects[:, :, 1]
        ws = rects[:, :, 2]
        hs = rects[:, :, 3]

        px, py = self._positions(xs, ys, ws, hs)
        wirelength, spans = self._wirelength(px, py, count)
        area, aspect = self._bbox_terms(xs, ys, ws, hs)
        zeros = np.zeros(count)

        overlap = self._overlap(xs, ys, ws, hs) if weights.overlap else zeros
        oob = zeros
        if weights.out_of_bounds and self._bounds is not None:
            oob = self._out_of_bounds(xs, ys, ws, hs)
        symmetry = zeros
        if weights.symmetry and self._groups:
            symmetry = self._symmetry(xs, ys, ws, hs, count)
        if not weights.aspect_ratio:
            aspect = zeros
        routability = zeros
        if weights.routability and self._bounds is not None:
            routability = self._routability(spans, count)

        # The exact expression of PlacementCostFunction.compose, applied
        # elementwise — same left-to-right association, same weights.
        total = (
            weights.wirelength * wirelength
            + weights.area * area
            + weights.overlap * overlap
            + weights.out_of_bounds * oob
            + weights.symmetry * symmetry
            + weights.aspect_ratio * aspect
            + weights.routability * routability
        )
        return BatchBreakdown(
            total=total,
            wirelength=wirelength,
            area=area,
            overlap=overlap,
            out_of_bounds=oob,
            symmetry=symmetry,
            aspect_ratio=aspect,
            routability=routability,
        )

    def _positions(self, xs, ys, ws, hs):
        """Gathered terminal positions, shape ``(count, nets, max_degree)``.

        ``X + fx*W`` / ``Y + fy*H`` per pin slot (Rect.terminal_position's
        arithmetic), constants substituted on external I/O slots.
        """
        np = _np
        if self._num_nets == 0:
            empty = np.zeros((xs.shape[0], 0, 1))
            return empty, empty
        blocks = self._term_block
        px = xs[:, blocks] + self._term_fx * ws[:, blocks]
        py = ys[:, blocks] + self._term_fy * hs[:, blocks]
        if self._term_is_ext.any():
            px = np.where(self._term_is_ext, self._term_const_x, px)
            py = np.where(self._term_is_ext, self._term_const_y, py)
        return px, py

    def _wirelength(self, px, py, count):
        """Weighted total wirelength plus the per-net bbox spans.

        Returns ``(totals, (x_lo, x_hi, y_lo, y_hi))``; the spans feed the
        RUDY kernel, which measures the same terminal bounding boxes.
        """
        np = _np
        if self._num_nets == 0:
            zeros = np.zeros(count)
            return zeros, None
        mask = self._term_mask
        inf = np.inf
        x_lo = np.min(np.where(mask, px, inf), axis=2)
        x_hi = np.max(np.where(mask, px, -inf), axis=2)
        y_lo = np.min(np.where(mask, py, inf), axis=2)
        y_hi = np.max(np.where(mask, py, -inf), axis=2)
        # (max-min)+(max-min) is also bitwise-exact for 2-pin nets, where
        # the scalar shortcut computes abs differences.
        span = (x_hi - x_lo) + (y_hi - y_lo)
        degree = self._degree_arr
        if self._model == "star":
            lengths = np.where(degree == 2, span, self._star_lengths(px, py, count))
        else:
            lengths = span
        lengths = np.where(degree >= 2, lengths, 0.0)

        # Sequential per-net accumulation in net order — the same
        # left-to-right float sum total_wirelength runs.
        totals = np.zeros(count)
        for n, weight in enumerate(self._net_weights):
            totals += weight * lengths[:, n]
        return totals, (x_lo, x_hi, y_lo, y_hi)

    def _star_lengths(self, px, py, count):
        """Star-model per-net lengths (degree > 2), sequential over slots."""
        np = _np
        mask = self._term_mask
        max_deg = mask.shape[1]
        sum_x = np.zeros((count, self._num_nets))
        sum_y = np.zeros((count, self._num_nets))
        for d in range(max_deg):
            slot = mask[:, d]
            sum_x += np.where(slot, px[:, :, d], 0.0)
            sum_y += np.where(slot, py[:, :, d], 0.0)
        degree = np.maximum(self._degree_arr, 1).astype(np.float64)
        cx = sum_x / degree
        cy = sum_y / degree
        deviation = np.zeros((count, self._num_nets))
        for d in range(max_deg):
            slot = mask[:, d]
            term = np.abs(px[:, :, d] - cx) + np.abs(py[:, :, d] - cy)
            deviation += np.where(slot, term, 0.0)
        return deviation

    def _bbox_terms(self, xs, ys, ws, hs):
        """Bounding-box area and aspect-ratio penalty (fused int64 scan)."""
        np = _np
        x_lo = xs.min(axis=1)
        y_lo = ys.min(axis=1)
        x_hi = (xs + ws).max(axis=1)
        y_hi = (ys + hs).max(axis=1)
        bbox_w = x_hi - x_lo
        bbox_h = y_hi - y_lo
        area = (bbox_w * bbox_h).astype(np.float64)
        valid = (bbox_w != 0) & (bbox_h != 0)
        # aspect = w/h, flipped into [1, inf) via 1.0/aspect exactly as
        # aspect_ratio_penalty computes it (not h/w, which rounds apart).
        ratio = bbox_w / np.where(bbox_h == 0, 1, bbox_h)
        ratio = np.where(ratio < 1.0, 1.0 / np.where(ratio > 0.0, ratio, 1.0), ratio)
        aspect = np.where(valid, np.maximum(0.0, ratio - 1.0), 0.0)
        return area, aspect

    def _overlap(self, xs, ys, ws, hs):
        """Total pairwise overlap area per candidate (integer-exact).

        Integer sums are exact under any regrouping, so unlike the float
        terms this kernel is free to change shape: it broadcasts the full
        symmetric ``(candidates, blocks, blocks)`` overlap matrix — much
        cheaper than gathering both ends of every pair by fancy indexing —
        then halves the matrix sum after removing the self-overlap
        diagonal.  Coordinates that fit comfortably in int32 take a
        narrower path for memory bandwidth; pair areas are accumulated in
        int64 either way.
        """
        np = _np
        if self._num_blocks < 2 or xs.shape[0] == 0:
            return np.zeros(xs.shape[0])
        x2 = xs + ws
        y2 = ys + hs
        # Dims are validated non-negative, so x2/y2 bound the coordinates
        # from above and xs/ys from below.
        lo = min(int(xs.min()), int(ys.min()))
        hi = max(int(x2.max()), int(y2.max()))
        if -(1 << 30) < lo and hi < (1 << 30):
            # Differences of values within +/- 2**30 cannot wrap int32.
            x1, y1 = xs.astype(np.int32), ys.astype(np.int32)
            x2, y2 = x2.astype(np.int32), y2.astype(np.int32)
        else:
            x1, y1 = xs, ys
        ow = np.minimum(x2[:, :, None], x2[:, None, :])
        ow -= np.maximum(x1[:, :, None], x1[:, None, :])
        np.maximum(ow, 0, out=ow)
        oh = np.minimum(y2[:, :, None], y2[:, None, :])
        oh -= np.maximum(y1[:, :, None], y1[:, None, :])
        np.maximum(oh, 0, out=oh)
        areas = ow.astype(np.int64, copy=False)
        areas *= oh
        totals = areas.sum(axis=(1, 2))
        totals -= (ws * hs).sum(axis=1)  # drop the self-overlap diagonal
        return (totals >> 1).astype(np.float64)

    def _out_of_bounds(self, xs, ys, ws, hs):
        """Total block area outside the canvas per candidate."""
        np = _np
        bounds = self._bounds
        iw = np.minimum(xs + ws, bounds.width) - np.maximum(xs, 0)
        ih = np.minimum(ys + hs, bounds.height) - np.maximum(ys, 0)
        inside = np.where((iw > 0) & (ih > 0), iw * ih, 0)
        return (ws * hs - inside).sum(axis=1).astype(np.float64)

    def _symmetry(self, xs, ys, ws, hs, count):
        """Total symmetry mismatch, group by group in group order."""
        np = _np
        # Rect.center arithmetic: x + w/2.0 (float divide, then add).
        cx = xs + ws / 2.0
        cy = ys + hs / 2.0
        total = np.zeros(count)
        for group in self._groups:
            acc = np.zeros(count)
            for li, ri in zip(group.left, group.right):
                acc += (cx[:, li] + cx[:, ri]) / 2.0
            for si in group.selfs:
                acc += cx[:, si]
            axis = acc / group.count
            mismatch = np.zeros(count)
            for li, ri in zip(group.left, group.right):
                midpoint = (cx[:, li] + cx[:, ri]) / 2.0
                mismatch += np.abs(midpoint - axis)
                mismatch += np.abs(cy[:, li] - cy[:, ri])
            for si in group.selfs:
                mismatch += np.abs(cx[:, si] - axis)
            total += mismatch
        return total

    def _routability(self, spans, count):
        """RUDY congestion above track capacity, sequential over nets/bins.

        Per net the scalar code spreads ``rudy * bin_overlap_area`` onto
        disjoint bins; accumulating one net's whole (vectorized) spread at
        a time in net order reproduces the scalar density bins bitwise,
        because each bin receives at most one contribution per net.
        """
        np = _np
        density = np.zeros((count, _RUDY_BINS * _RUDY_BINS))
        if spans is not None:
            x_lo, x_hi, y_lo, y_hi = spans
            for n, weight in enumerate(self._net_weights):
                if self._net_degrees[n] < 2:
                    continue
                xl = x_lo[:, n]
                yl = y_lo[:, n]
                # Degenerate (collinear) boxes still occupy one track.
                xh = np.maximum(x_hi[:, n], xl + 1.0)
                yh = np.maximum(y_hi[:, n], yl + 1.0)
                width = xh - xl
                height = yh - yl
                rudy = weight * (width + height) / (width * height)
                ow = np.maximum(
                    np.minimum(xh[:, None], self._bin_hi_x)
                    - np.maximum(xl[:, None], self._bin_lo_x),
                    0.0,
                )
                oh = np.maximum(
                    np.minimum(yh[:, None], self._bin_hi_y)
                    - np.maximum(yl[:, None], self._bin_lo_y),
                    0.0,
                )
                # Bin index j*bins + i: rows are y bins, columns x bins.
                areas = ow[:, None, :] * oh[:, :, None]
                density += (rudy[:, None, None] * areas).reshape(
                    count, _RUDY_BINS * _RUDY_BINS
                )
        threshold = DEFAULT_TRACK_CAPACITY * (self._bin_w * self._bin_h)
        penalty = np.zeros(count)
        for b in range(_RUDY_BINS * _RUDY_BINS):
            column = density[:, b]
            penalty += np.where(column > threshold, column - threshold, 0.0)
        return penalty

    def _feasible_chunk(self, rects):
        np = _np
        bounds = self._bounds
        xs = rects[:, :, 0]
        ys = rects[:, :, 1]
        ws = rects[:, :, 2]
        hs = rects[:, :, 3]
        contained = (
            (xs >= 0) & (ys >= 0) & (xs + ws <= bounds.width) & (ys + hs <= bounds.height)
        ).all(axis=1)
        pair_i, pair_j = self._pair_i, self._pair_j
        if len(pair_i) == 0:
            return contained
        xi, xj = xs[:, pair_i], xs[:, pair_j]
        yi, yj = ys[:, pair_i], ys[:, pair_j]
        # Rect.intersects verbatim (strict inequalities), which differs
        # from "overlap area > 0" on zero-area rects.
        intersects = (
            (xi < xj + ws[:, pair_j])
            & (xj < xi + ws[:, pair_i])
            & (yi < yj + hs[:, pair_j])
            & (yj < yi + hs[:, pair_i])
        )
        return contained & ~intersects.any(axis=1)
