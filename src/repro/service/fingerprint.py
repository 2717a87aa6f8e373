"""Canonical topology fingerprints for keying placement structures.

A multi-placement structure is generated once per topology (Figure 1.a) and
then queried thousands of times (Figure 1.b); to *serve* structures, the
registry must be able to answer "do I already have one for this circuit?"
The fingerprint is a canonical, order-insensitive hash of everything a
structure depends on — blocks (with dimension bounds, device types and
pins), nets (with terminals, weights and I/O positions) and symmetry
groups — so two declarations of the same topology hash identically no
matter the order their blocks or nets were added in.

Generation configuration is hashed separately (:func:`config_fingerprint`):
the same circuit generated under different SA budgets or canvas factors
yields different structures and must occupy different registry slots.

Both digests are memoized, because every served query asks for the key
of a circuit and a config it has seen before:

* A circuit keeps its digests on the instance (``Circuit._fingerprint_memo``),
  together with every object the canonical form reads: each block, its
  name, bounds, device type, generator, symmetry group and pins, then
  every net and symmetry group.  A memo entry is valid only while each of
  those parts is the *same object* (``is``, never ``==``): ``json.dumps``
  tells apart values that ``==`` treats as equal (``4`` and ``4.0``), and
  any in-place mutation -- ``block.max_w += 1``, ``circuit.nets[i] = ...``,
  ``add_block``, ``add_pin`` -- replaces at least one part.  Nets, pins
  and symmetry groups are frozen, so checking their identity covers their
  contents.
* A config is memoized by identity only when it is a frozen dataclass
  built from frozen dataclasses, tuples and scalars (``GeneratorConfig``
  and its nested configs), so nothing inside it can change.  Other
  configs are hashed on every call.

Either memo can only return the digest the uncached computation gives
for the same parts, so keys are byte-identical to an unmemoized run and
registries on disk stay valid.  Memo writes are single dictionary
stores, so concurrent callers at worst compute the same digest twice.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, fields, is_dataclass
from operator import is_
from typing import Any, Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit

#: Number of hex digits kept when composing registry keys from fingerprints.
KEY_DIGEST_CHARS = 16


def canonical_circuit_dict(circuit: Circuit, include_name: bool = False) -> Dict[str, Any]:
    """A canonical plain-data form of ``circuit``, insensitive to declaration order.

    Blocks, nets, symmetry groups, pins, terminals and symmetry pairs are
    all sorted, so circuits that differ only in the order their parts were
    added produce identical dictionaries.  The circuit *name* is excluded
    by default because it is a label, not topology: a structure generated
    for the topology serves every identically-shaped circuit.
    """
    data: Dict[str, Any] = {
        "blocks": sorted(
            (
                {
                    "name": block.name,
                    "bounds": [block.min_w, block.max_w, block.min_h, block.max_h],
                    "device_type": block.device_type.value,
                    "generator": block.generator,
                    "symmetry_group": block.symmetry_group,
                    "pins": sorted(
                        [pin.name, pin.fx, pin.fy] for pin in block.pins.values()
                    ),
                }
                for block in circuit.blocks
            ),
            key=lambda entry: entry["name"],
        ),
        "nets": sorted(
            (
                {
                    "name": net.name,
                    "terminals": sorted([t.block, t.pin] for t in net.terminals),
                    "weight": net.weight,
                    "external": net.external,
                    "io_position": list(net.io_position),
                }
                for net in circuit.nets
            ),
            key=lambda entry: entry["name"],
        ),
        "symmetry_groups": sorted(
            (
                {
                    "name": group.name,
                    "pairs": sorted(list(pair) for pair in group.pairs),
                    "self_symmetric": sorted(group.self_symmetric),
                }
                for group in circuit.symmetry_groups
            ),
            key=lambda entry: entry["name"],
        ),
    }
    if include_name:
        data["name"] = circuit.name
    return data


def _digest(data: Any) -> str:
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _identity_parts(circuit: Circuit) -> List[Any]:
    """Every object :func:`canonical_circuit_dict` reads, in a fixed order.

    Each block record starts with the block object, which no field of a
    record can be, so lists that match element by element also split into
    the same records.
    """
    parts: List[Any] = []
    extend = parts.extend
    for block in circuit.blocks:
        extend((
            block, block.name, block.min_w, block.max_w, block.min_h, block.max_h,
            block.device_type, block.generator, block.symmetry_group,
        ))
        extend(block.pins.values())
    extend(circuit.nets)
    extend(circuit.symmetry_groups)
    return parts


def _same_objects(left: List[Any], right: List[Any]) -> bool:
    return len(left) == len(right) and all(map(is_, left, right))


def circuit_fingerprint(circuit: Circuit, include_name: bool = False) -> str:
    """Hex SHA-256 of the canonical form of ``circuit`` (memoized, see module doc)."""
    parts = _identity_parts(circuit)
    if include_name:
        parts.append(circuit.name)
    memo: Dict[bool, Tuple[List[Any], str]] = circuit._fingerprint_memo
    entry = memo.get(include_name)
    if entry is not None and _same_objects(entry[0], parts):
        return entry[1]
    # Snapshot taken before hashing: a mutation racing with this call
    # leaves parts that no longer match, so later calls recompute.
    digest = _digest(canonical_circuit_dict(circuit, include_name=include_name))
    memo[include_name] = (parts, digest)
    return digest


#: Digest of ``config=None`` (the empty configuration).
_EMPTY_CONFIG_DIGEST = _digest({})
#: Most configs memoized at once; a service sees a handful.
_CONFIG_MEMO_CAPACITY = 64
#: ``id(config) -> (config, digest)``; the strong reference keeps the id
#: from being reused while the entry lives.
_config_memo: Dict[int, Tuple[object, str]] = {}
_config_memo_lock = threading.Lock()
_SCALARS = (str, int, float, bool, type(None))


def _deeply_frozen(value: Any) -> bool:
    """True when nothing reachable from ``value`` can be changed in place."""
    if type(value) in _SCALARS:
        return True
    if type(value) is tuple:
        return all(_deeply_frozen(item) for item in value)
    return (
        is_dataclass(value)
        and not isinstance(value, type)
        and type(value).__dataclass_params__.frozen
        and all(_deeply_frozen(getattr(value, f.name)) for f in fields(value))
    )


def config_fingerprint(config: Optional[object]) -> str:
    """Hex SHA-256 of a generation configuration (``None`` hashes the empty config).

    Accepts any dataclass (e.g. :class:`repro.core.generator.GeneratorConfig`,
    whose nested explorer/BDIO/cost-weight dataclasses flatten via
    :func:`dataclasses.asdict`) or any JSON-serializable mapping.
    """
    if config is None:
        return _EMPTY_CONFIG_DIGEST
    entry = _config_memo.get(id(config))
    if entry is not None and entry[0] is config:
        return entry[1]
    if not (is_dataclass(config) and not isinstance(config, type)):
        return _digest(config)
    digest = _digest(asdict(config))
    if _deeply_frozen(config):
        with _config_memo_lock:
            if len(_config_memo) >= _CONFIG_MEMO_CAPACITY:
                del _config_memo[next(iter(_config_memo))]
            _config_memo[id(config)] = (config, digest)
    return digest


def structure_key(circuit: Circuit, config: Optional[object] = None) -> str:
    """The registry key for ``circuit`` generated under ``config``.

    ``<circuit-digest>-<config-digest>`` with both digests truncated to
    :data:`KEY_DIGEST_CHARS` hex characters — short enough for file names,
    long enough that collisions are never a practical concern.
    """
    return (
        f"{circuit_fingerprint(circuit)[:KEY_DIGEST_CHARS]}"
        f"-{config_fingerprint(config)[:KEY_DIGEST_CHARS]}"
    )
