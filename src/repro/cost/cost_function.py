"""The customizable placement cost function of Section 3.2.2.

The cost calculator "calculates a cost for the proposed circuit based on
the wire-lengths and area of that proposed design.  This cost function is
customizable."  :class:`PlacementCostFunction` therefore exposes weights for
every component; the defaults reproduce the paper's wirelength + area
objective, while baseline placers additionally enable overlap and
out-of-bounds penalties because their intermediate states may be illegal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.cost.area import area_cost, aspect_ratio_penalty
from repro.cost.penalties import (
    out_of_bounds_penalty,
    overlap_penalty,
    routability_penalty,
    symmetry_penalty,
)
from repro.cost.wirelength import total_wirelength
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (eval imports cost)
    from repro.eval.incremental import IncrementalEvaluator
    from repro.eval.vector import BatchEvaluator


@dataclass(frozen=True)
class CostWeights:
    """Relative weights of the placement cost components."""

    wirelength: float = 1.0
    area: float = 0.05
    overlap: float = 0.0
    out_of_bounds: float = 0.0
    symmetry: float = 0.0
    aspect_ratio: float = 0.0
    #: Weight of the RUDY congestion estimate (needs floorplan bounds).
    routability: float = 0.0

    def with_legalization(self, overlap: float = 50.0, out_of_bounds: float = 50.0) -> "CostWeights":
        """Weights with legalization penalties enabled (for iterative placers).

        Built with :func:`dataclasses.replace` so every other field — present
        or added later — carries over untouched.
        """
        return replace(self, overlap=overlap, out_of_bounds=out_of_bounds)


@dataclass(frozen=True)
class CostBreakdown:
    """Weighted total cost along with the unweighted components."""

    total: float
    wirelength: float
    area: float
    overlap: float = 0.0
    out_of_bounds: float = 0.0
    symmetry: float = 0.0
    aspect_ratio: float = 0.0
    routability: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Component values as a plain dictionary."""
        return {
            "total": self.total,
            "wirelength": self.wirelength,
            "area": self.area,
            "overlap": self.overlap,
            "out_of_bounds": self.out_of_bounds,
            "symmetry": self.symmetry,
            "aspect_ratio": self.aspect_ratio,
            "routability": self.routability,
        }

    @property
    def is_legal(self) -> bool:
        """True when the layout has no overlap or out-of-bounds violation."""
        return self.overlap == 0.0 and self.out_of_bounds == 0.0


class PlacementCostFunction:
    """Evaluate the weighted cost of a placed layout.

    Parameters
    ----------
    circuit:
        The circuit whose nets and symmetry groups define the objective.
    bounds:
        Floorplan canvas; needed for external-net I/O positions and the
        out-of-bounds penalty.
    weights:
        Component weights (defaults reproduce the paper's wirelength+area).
    wirelength_model:
        ``"hpwl"`` (default), ``"star"`` or ``"mst"``.
    """

    def __init__(
        self,
        circuit: Circuit,
        bounds: Optional[FloorplanBounds] = None,
        weights: CostWeights = CostWeights(),
        wirelength_model: str = "hpwl",
    ) -> None:
        self._circuit = circuit
        self._bounds = bounds
        self._weights = weights
        self._model = wirelength_model

    @property
    def circuit(self) -> Circuit:
        """The circuit being scored."""
        return self._circuit

    @property
    def bounds(self) -> Optional[FloorplanBounds]:
        """The floorplan canvas, if any."""
        return self._bounds

    @property
    def weights(self) -> CostWeights:
        """The component weights in use."""
        return self._weights

    @property
    def wirelength_model(self) -> str:
        """The wirelength estimator in use (``hpwl``/``star``/``mst``)."""
        return self._model

    @property
    def supports_incremental(self) -> bool:
        """True when :meth:`bind` yields deltas matching this evaluation.

        Subclasses that override :meth:`evaluate`, :meth:`evaluate_layout`,
        :meth:`rects_from` or :meth:`breakdown_from` change the evaluation
        in ways the generic :class:`~repro.eval.IncrementalEvaluator` knows
        nothing about; optimizers check this flag and fall back to the
        from-scratch path for them (see the README migration note).
        """
        cls = type(self)
        return (
            cls.evaluate is PlacementCostFunction.evaluate
            and cls.evaluate_layout is PlacementCostFunction.evaluate_layout
            and cls.rects_from is PlacementCostFunction.rects_from
            and cls.breakdown_from is PlacementCostFunction.breakdown_from
        )

    @property
    def supports_vectorized(self) -> bool:
        """True when :meth:`batch` scores stacked layouts matching this evaluation.

        Mirrors :attr:`supports_incremental`: subclasses that override
        :meth:`evaluate`, :meth:`evaluate_layout`, :meth:`rects_from` or
        :meth:`breakdown_from` change the evaluation in ways the generic
        array kernels know nothing about.  :meth:`compose` is additionally
        checked because the :class:`~repro.eval.vector.BatchEvaluator`
        re-expresses its weighting arithmetic elementwise rather than
        calling it.  Batch consumers check this flag (via
        :func:`repro.eval.batch.batch_evaluator_for`) and fall back to the
        scalar loop for overriding subclasses.
        """
        cls = type(self)
        return (
            cls.evaluate is PlacementCostFunction.evaluate
            and cls.evaluate_layout is PlacementCostFunction.evaluate_layout
            and cls.rects_from is PlacementCostFunction.rects_from
            and cls.compose is PlacementCostFunction.compose
            and cls.breakdown_from is PlacementCostFunction.breakdown_from
        )

    def batch(self) -> "BatchEvaluator":
        """Build a :class:`~repro.eval.vector.BatchEvaluator` over this cost.

        The evaluator scores ``(n_candidates, n_blocks, 4)`` rect tensors
        with this cost function's weights, bounds and wirelength model,
        bitwise identical to :meth:`evaluate_layout` per candidate — the
        weights stay the single source of truth, exactly as with
        :meth:`bind`.  Raises for unsupported subclasses and models (see
        :attr:`supports_vectorized`); callers that want automatic scalar
        fallback should go through
        :func:`repro.eval.batch.batch_evaluator_for` instead.
        """
        from repro.eval.vector import BatchEvaluator

        return BatchEvaluator(self)

    def bind(
        self,
        anchors: Sequence[Tuple[int, int]],
        dims: Sequence[Tuple[int, int]],
        resync_interval: Optional[int] = None,
    ) -> "IncrementalEvaluator":
        """Bind an :class:`~repro.eval.IncrementalEvaluator` to a layout.

        The evaluator starts at ``(anchors, dims)`` (index order, as in
        :meth:`evaluate_layout`) and prices single-module moves and
        dimension changes by delta, using this cost function's weights,
        bounds and wirelength model throughout — the weights stay the
        single source of truth.
        """
        from repro.eval.incremental import IncrementalEvaluator

        kwargs = {} if resync_interval is None else {"resync_interval": resync_interval}
        return IncrementalEvaluator(self, anchors, dims, **kwargs)

    @staticmethod
    def compose(
        weights: CostWeights,
        wirelength: float,
        area: float,
        overlap: float = 0.0,
        out_of_bounds: float = 0.0,
        symmetry: float = 0.0,
        aspect_ratio: float = 0.0,
        routability: float = 0.0,
    ) -> CostBreakdown:
        """Weigh components into a :class:`CostBreakdown`.

        Shared by :meth:`evaluate` and the incremental evaluator so both
        paths apply the weights with identical arithmetic (and therefore
        agree bitwise on the total).
        """
        total = (
            weights.wirelength * wirelength
            + weights.area * area
            + weights.overlap * overlap
            + weights.out_of_bounds * out_of_bounds
            + weights.symmetry * symmetry
            + weights.aspect_ratio * aspect_ratio
            + weights.routability * routability
        )
        return CostBreakdown(
            total=total,
            wirelength=wirelength,
            area=area,
            overlap=overlap,
            out_of_bounds=out_of_bounds,
            symmetry=symmetry,
            aspect_ratio=aspect_ratio,
            routability=routability,
        )

    def evaluate(self, rects: Dict[str, Rect]) -> CostBreakdown:
        """Score a layout given as a mapping of block name to placed rectangle."""
        wirelength = total_wirelength(self._circuit, rects, self._bounds, self._model)
        return self.breakdown_from(rects, wirelength, area_cost(rects))

    def breakdown_from(
        self, rects: Dict[str, Rect], wirelength: float, area: float
    ) -> CostBreakdown:
        """Weigh an already-measured ``wirelength`` and ``area`` with the penalties of ``rects``.

        The second half of :meth:`evaluate`, shared with the instantiator's
        compiled scorer, which measures the first two terms from
        index-ordered anchors and dims.
        """
        weights = self._weights
        overlap = overlap_penalty(rects) if weights.overlap else 0.0
        oob = 0.0
        if weights.out_of_bounds and self._bounds is not None:
            oob = out_of_bounds_penalty(rects, self._bounds)
        symmetry = 0.0
        if weights.symmetry and self._circuit.symmetry_groups:
            symmetry = symmetry_penalty(rects, self._circuit.symmetry_groups)
        aspect = aspect_ratio_penalty(rects) if weights.aspect_ratio else 0.0
        routability = 0.0
        if weights.routability and self._bounds is not None:
            routability = routability_penalty(rects, self._circuit, self._bounds)
        return self.compose(
            weights,
            wirelength=wirelength,
            area=area,
            overlap=overlap,
            out_of_bounds=oob,
            symmetry=symmetry,
            aspect_ratio=aspect,
            routability=routability,
        )

    def evaluate_layout(
        self,
        anchors: Sequence[Tuple[int, int]],
        dims: Sequence[Tuple[int, int]],
    ) -> CostBreakdown:
        """Score a layout given as parallel anchor and dimension sequences.

        The ordering follows the circuit's block index order, which is how
        the placement explorer and BDIO represent layouts internally.
        """
        rects = self.rects_from(anchors, dims)
        return self.evaluate(rects)

    def rects_from(
        self,
        anchors: Sequence[Tuple[int, int]],
        dims: Sequence[Tuple[int, int]],
    ) -> Dict[str, Rect]:
        """Build the name->Rect mapping from index-ordered anchors and dims."""
        if len(anchors) != self._circuit.num_blocks or len(dims) != self._circuit.num_blocks:
            raise ValueError(
                "anchors and dims must have one entry per circuit block "
                f"({self._circuit.num_blocks}), got {len(anchors)} and {len(dims)}"
            )
        rects: Dict[str, Rect] = {}
        for block, (x, y), (w, h) in zip(self._circuit.blocks, anchors, dims):
            rects[block.name] = Rect(x, y, w, h)
        return rects
