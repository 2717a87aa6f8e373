"""Router configuration checks and the search counters on the ``route.route`` span."""

import contextlib

import pytest

from repro import obs
from repro.baselines.template import TemplatePlacer
from repro.benchcircuits import get_benchmark
from repro.route import GlobalRouter, RouterConfig, derive_bounds
from repro.route import router as router_module


class TestRouterConfigValidation:
    @pytest.mark.parametrize("resolution", [0, -1, -0.5, float("nan")])
    def test_non_positive_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            RouterConfig(resolution=resolution)

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_capacity_below_one_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            RouterConfig(capacity=capacity)

    @pytest.mark.parametrize(
        "field", ["congestion_weight", "history_weight"]
    )
    @pytest.mark.parametrize("value", [-5, -1e-9, float("nan")])
    def test_negative_weights_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RouterConfig(**{field: value})

    def test_negative_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            RouterConfig(max_iterations=-1)

    def test_boundary_values_accepted(self):
        config = RouterConfig(
            resolution=0.25,
            capacity=1,
            congestion_weight=0.0,
            history_weight=0.0,
            max_iterations=0,
        )
        assert config.capacity == 1
        assert RouterConfig().resolution is None


def _opamp_route_inputs():
    circuit = get_benchmark("two_stage_opamp")
    rects = dict(TemplatePlacer(circuit).place(circuit.min_dims()).rects)
    # capacity=1 forces rip-up rounds, so the counts span renegotiation.
    config = RouterConfig(capacity=1, max_iterations=3)
    return circuit, rects, config


def _route_recording_span(monkeypatch):
    """Route with tracing off, capturing the ``route.route`` span's attrs."""
    recorded = {}

    class RecordingSpan:
        def set(self, **attrs):
            recorded.update(attrs)

    @contextlib.contextmanager
    def recording_span(name, **attrs):
        assert name == "route.route"
        yield RecordingSpan()

    circuit, rects, config = _opamp_route_inputs()
    with monkeypatch.context() as patch:
        patch.setattr(router_module, "span", recording_span)
        layout = GlobalRouter(circuit, derive_bounds(rects), config).route(rects)
    return layout, recorded


def _route_traced():
    circuit, rects, config = _opamp_route_inputs()
    obs.configure(enabled=True)
    try:
        layout = GlobalRouter(circuit, derive_bounds(rects), config).route(rects)
        (record,) = [r for r in obs.spans_snapshot() if r["name"] == "route.route"]
        metrics = obs.metrics().snapshot()
    finally:
        obs.reset()
    return layout, record["attrs"], metrics


class TestSearchCounters:
    def test_counts_identical_with_tracing_on_and_off(self, monkeypatch):
        untraced, recorded = _route_recording_span(monkeypatch)
        traced, attrs, metrics = _route_traced()
        assert recorded["astar_calls"] > 0
        assert recorded["expanded_nodes"] > recorded["astar_calls"]
        assert attrs["astar_calls"] == recorded["astar_calls"]
        assert attrs["expanded_nodes"] == recorded["expanded_nodes"]
        assert metrics["route.astar_calls"] == recorded["astar_calls"]
        assert metrics["route.expanded_nodes"] == recorded["expanded_nodes"]
        # Tracing is a pure observer: the routes themselves do not move.
        assert dict(traced.nets) == dict(untraced.nets)
        assert traced.iterations == untraced.iterations > 0

    def test_counts_repeat_across_runs(self):
        _, first, _ = _route_traced()
        _, second, _ = _route_traced()
        assert (first["astar_calls"], first["expanded_nodes"]) == (
            second["astar_calls"],
            second["expanded_nodes"],
        )

    def test_untraced_route_records_no_metrics(self):
        obs.reset()
        circuit, rects, config = _opamp_route_inputs()
        GlobalRouter(circuit, derive_bounds(rects), config).route(rects)
        assert "route.astar_calls" not in obs.metrics().snapshot()
