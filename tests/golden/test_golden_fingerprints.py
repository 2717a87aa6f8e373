"""Golden registry keys: on-disk registries stay valid across refactors.

Structure files are named by :func:`structure_key`, so a change in how the
key is computed orphans every registry already written.  These hex values
were produced by the plain (unmemoized) digest and must never move; an
intentional key-format change needs a registry migration, not a fixture
refresh.
"""

from __future__ import annotations

import pytest

from repro.benchcircuits.library import get_benchmark
from repro.core.generator import GeneratorConfig
from repro.service.fingerprint import structure_key

GOLDEN_KEYS = {
    ("benchmark24", None): "e4f6f290dea9a8f1-44136fa355b3678a",
    ("benchmark24", "smoke0"): "e4f6f290dea9a8f1-1641049e7330aa99",
    ("two_stage_opamp", None): "3080eb6b22bb6750-44136fa355b3678a",
    ("two_stage_opamp", "smoke0"): "3080eb6b22bb6750-1641049e7330aa99",
    ("mixer", None): "9908a01fed4f1253-44136fa355b3678a",
    ("mixer", "smoke0"): "9908a01fed4f1253-1641049e7330aa99",
}

CONFIGS = {None: lambda: None, "smoke0": lambda: GeneratorConfig.smoke(0)}


@pytest.mark.parametrize("name, config", sorted(GOLDEN_KEYS, key=str))
def test_structure_key_is_pinned(name, config):
    circuit = get_benchmark(name)
    expected = GOLDEN_KEYS[(name, config)]
    # Twice: the memoized second call must agree with the first.
    assert structure_key(circuit, CONFIGS[config]()) == expected
    assert structure_key(circuit, CONFIGS[config]()) == expected
