"""Property: memoized fingerprints equal the uncached digest, mutation by mutation.

``circuit_fingerprint`` and ``config_fingerprint`` reuse a digest while
every object it was computed from is unchanged.  Each trial below builds
a random circuit and applies a sequence of in-place mutations; after
every step the memoized functions must return exactly what hashing the
canonical form from scratch returns, including for the int -> equal
float replacements that ``==`` cannot see but ``json.dumps`` can.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import asdict, dataclass, field, replace

import pytest

from repro.circuit.net import Net, Terminal
from repro.circuit.pin import Pin
from repro.circuit.symmetry import SymmetryGroup
from repro.core.generator import GeneratorConfig
from repro.service import fingerprint
from repro.service.fingerprint import (
    KEY_DIGEST_CHARS,
    _digest,
    canonical_circuit_dict,
    circuit_fingerprint,
    config_fingerprint,
    structure_key,
)
from tests.properties.conftest import TRIALS, random_block, random_circuit


def uncached_key(circuit, config) -> str:
    circuit_digest = _digest(canonical_circuit_dict(circuit))
    config_digest = _digest({} if config is None else asdict(config))
    return f"{circuit_digest[:KEY_DIGEST_CHARS]}-{config_digest[:KEY_DIGEST_CHARS]}"


def assert_memo_agrees(circuit, config) -> None:
    for include_name in (False, True):
        expected = _digest(canonical_circuit_dict(circuit, include_name=include_name))
        # Twice: the first call may fill the memo, the second must hit it.
        assert circuit_fingerprint(circuit, include_name=include_name) == expected
        assert circuit_fingerprint(circuit, include_name=include_name) == expected
    assert config_fingerprint(config) == _digest(asdict(config))
    assert structure_key(circuit, config) == uncached_key(circuit, config)


def _bump_bound(circuit, rng):
    block = rng.choice(circuit.blocks)
    block.max_w += 1


def _int_bound_to_float(circuit, rng):
    block = rng.choice(circuit.blocks)
    block.min_h = float(block.min_h)


def _replace_net(circuit, rng):
    index = rng.randrange(len(circuit.nets))
    circuit.nets[index] = circuit.nets[index].with_weight(circuit.nets[index].weight + 0.5)


def _float_io_to_int(circuit, rng):
    index = rng.randrange(len(circuit.nets))
    net = circuit.nets[index]
    circuit.nets[index] = Net(net.name, net.terminals, net.weight, True, (0, 1))


def _add_block(circuit, rng):
    circuit.add_block(random_block(rng, f"extra{circuit.num_blocks}"))


def _add_net(circuit, rng):
    names = rng.sample(circuit.block_names(), 2)
    circuit.add_net(Net(f"extra{circuit.num_nets}", tuple(Terminal(n) for n in names)))


def _insert_pin(circuit, rng):
    block = rng.choice(circuit.blocks)
    block.add_pin(Pin(f"extra{len(block.pins)}", 0.25, 0.75))


def _move_center_pin(circuit, rng):
    block = rng.choice(circuit.blocks)
    block.pins["c"] = Pin("c", 0, 1)


def _retag_block(circuit, rng):
    block = rng.choice(circuit.blocks)
    block.generator = "retagged" if block.generator != "retagged" else None


def _append_symmetry_group(circuit, rng):
    left, right = rng.sample(circuit.block_names(), 2)
    name = f"extra{len(circuit.symmetry_groups)}"
    circuit.add_symmetry_group(SymmetryGroup(name, ((left, right),)))


def _rename(circuit, rng):
    circuit.name = f"{circuit.name}x"


MUTATIONS = [
    _bump_bound,
    _int_bound_to_float,
    _replace_net,
    _float_io_to_int,
    _add_block,
    _add_net,
    _insert_pin,
    _move_center_pin,
    _retag_block,
    _append_symmetry_group,
    _rename,
]


@pytest.mark.parametrize("seed", range(TRIALS))
def test_memo_matches_uncached_digest_through_mutations(seed):
    rng = random.Random(5000 + seed)
    circuit = random_circuit(rng)
    config = GeneratorConfig.smoke(seed=rng.randrange(4))
    assert_memo_agrees(circuit, config)
    for mutate in rng.sample(MUTATIONS, len(MUTATIONS)):
        before = structure_key(circuit, config)
        mutate(circuit, rng)
        assert_memo_agrees(circuit, config)
        if mutate is not _rename:
            # Every mutation here changes the canonical form (the rename
            # only changes the include_name digest).
            assert structure_key(circuit, config) != before, mutate.__name__


@pytest.mark.parametrize("seed", range(TRIALS))
def test_int_to_equal_float_moves_the_key(seed):
    rng = random.Random(6000 + seed)
    circuit = random_circuit(rng)
    block = rng.choice(circuit.blocks)
    before = structure_key(circuit)
    block.max_w = float(block.max_w)
    assert block.max_w == int(block.max_w)
    assert structure_key(circuit) != before
    assert structure_key(circuit) == uncached_key(circuit, None)
    block.max_w = int(block.max_w)
    assert structure_key(circuit) == before


@pytest.mark.parametrize("seed", range(TRIALS))
def test_config_memo_is_by_identity(seed):
    rng = random.Random(7000 + seed)
    config = GeneratorConfig.smoke(seed=rng.randrange(1000))
    twin = replace(config)
    assert twin == config and twin is not config
    assert config_fingerprint(config) == config_fingerprint(twin) == _digest(asdict(config))
    other = replace(config, whitespace_factor=config.whitespace_factor + 0.5)
    assert config_fingerprint(other) == _digest(asdict(other))
    assert config_fingerprint(other) != config_fingerprint(config)
    # Mappings are hashed on every call (their contents can change).
    mapping = {"seed": seed}
    first = config_fingerprint(mapping)
    mapping["seed"] = seed + 1
    assert config_fingerprint(mapping) == _digest(mapping) != first


@dataclass
class MutableConfig:
    seed: int = 0


@dataclass(frozen=True)
class FrozenConfigHoldingAList:
    seeds: list = field(default_factory=list)


def test_configs_that_can_change_are_hashed_every_call():
    mutable = MutableConfig()
    first = config_fingerprint(mutable)
    mutable.seed = 1
    assert config_fingerprint(mutable) == _digest(asdict(mutable)) != first
    holding = FrozenConfigHoldingAList([1])
    first = config_fingerprint(holding)
    holding.seeds.append(2)
    assert config_fingerprint(holding) == _digest(asdict(holding)) != first


def test_unchanged_circuit_and_config_hash_once(monkeypatch):
    circuit = random_circuit(random.Random(8000))
    config = GeneratorConfig.smoke(seed=3)
    key = structure_key(circuit, config)
    calls = []
    monkeypatch.setattr(
        fingerprint,
        "canonical_circuit_dict",
        lambda *args, **kwargs: calls.append(args) or canonical_circuit_dict(*args, **kwargs),
    )
    monkeypatch.setattr(fingerprint, "asdict", lambda c: calls.append(c) or asdict(c))
    for _ in range(5):
        assert structure_key(circuit, config) == key
    assert calls == []
    circuit.blocks[0].max_h += 1
    assert structure_key(circuit, config) != key
    assert len(calls) == 1


def test_copies_revalidate_the_memo_they_carry():
    import copy
    import pickle

    circuit = random_circuit(random.Random(8001))
    key = structure_key(circuit)
    assert structure_key(copy.copy(circuit)) == key
    for clone in (copy.deepcopy(circuit), pickle.loads(pickle.dumps(circuit))):
        assert structure_key(clone) == key
        clone.blocks[0].max_w += 1
        assert structure_key(clone) != key
        assert structure_key(circuit) == key


def test_concurrent_hashing_agrees():
    """8 threads hash one fresh circuit while churning the bounded config table."""
    circuit = random_circuit(random.Random(8002))
    config = GeneratorConfig.smoke(seed=5)
    expected = uncached_key(circuit, config)
    barrier = threading.Barrier(8)
    keys = []
    wrong = []

    def worker(index):
        barrier.wait()
        for step in range(50):
            keys.append(structure_key(circuit, config))
            # Distinct configs push the table past its capacity, so
            # evictions race with the other threads' lookups.
            churn = replace(config, seed=1000 * index + step)
            if config_fingerprint(churn) != _digest(asdict(churn)):
                wrong.append(churn)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert keys == [expected] * 400
    assert wrong == []
