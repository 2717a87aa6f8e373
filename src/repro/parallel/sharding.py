"""Shard-aware structure registry for many-process deployments.

A flat :class:`~repro.service.registry.StructureRegistry` keeps every
structure file and one ``index.json`` in a single directory; under heavy
concurrent traffic every index write contends on that one file, and
simultaneous first-sight fetches of the same topology each pay a full
generation run ("wasted work, never corruption").

:class:`ShardedStructureRegistry` fixes both at scale:

* **Shards** — registry keys are split by fingerprint prefix into
  ``root/<prefix>/`` subdirectories, each a self-contained flat registry
  with its own index.  Writers touching different shards never contend,
  and the fingerprint's uniform distribution keeps shards balanced.
* **Advisory locks** — ``get_or_generate`` takes a per-key ``flock`` in
  ``root/.locks/`` before concluding a structure is missing, re-reads the
  shard index under the lock, and only then generates.  Across any number
  of processes each topology is generated **exactly once**.

The directory carries a marker file, so :func:`open_registry` can tell a
sharded root from a flat one and hand back the right flavor.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

try:  # POSIX advisory locks; Windows degrades to lock-free (flat semantics).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.circuit.netlist import Circuit
from repro.core.generator import GeneratorConfig, MultiPlacementGenerator
from repro.core.structure import MultiPlacementStructure
from repro.obs.spans import clock, is_enabled as _obs_enabled, metrics as _obs_metrics, span
from repro.service.fingerprint import structure_key
from repro.service.registry import RegistryEntry, RegistryStats, StructureRegistry
from repro.utils.grouping import group_positions
from repro.utils.logging_utils import get_logger

LOGGER = get_logger("parallel.sharding")

MARKER_NAME = "sharding.json"
MARKER_FORMAT_VERSION = 1
LOCK_DIR_NAME = ".locks"

#: Default number of leading key characters that pick a shard (16^2 dirs max).
DEFAULT_SHARD_CHARS = 2


@contextlib.contextmanager
def advisory_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive advisory file lock on ``path`` for the block.

    The lock file is created if missing and never deleted (deleting a lock
    file while another process blocks on it reintroduces the race the lock
    exists to prevent).  On platforms without ``fcntl`` this is a no-op —
    callers degrade to the flat registry's last-writer-wins semantics.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


class ShardedStructureRegistry:
    """A structure registry fanned across fingerprint-prefix shard directories.

    Mirrors the full :class:`~repro.service.registry.StructureRegistry`
    surface (``fetch`` / ``get`` / ``put`` / ``get_or_generate`` /
    ``contains`` / ``keys`` / ``entries`` / ``clear`` / ``stats``), so a
    :class:`~repro.service.engine.PlacementService` can take either
    flavor without caring.

    Parameters
    ----------
    root:
        Directory holding the shard subdirectories, the lock directory
        and the sharding marker.  Created if missing.
    shard_chars:
        Leading key characters that select the shard.  Persisted in the
        marker on first creation; reopening an existing sharded root
        always uses the persisted value.
    """

    def __init__(
        self, root: Union[str, Path], shard_chars: int = DEFAULT_SHARD_CHARS
    ) -> None:
        if shard_chars < 1:
            raise ValueError("shard_chars must be at least 1")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._shard_chars = self._init_marker(shard_chars)
        self._shards: Dict[str, StructureRegistry] = {}
        self._own_stats = RegistryStats()

    # ------------------------------------------------------------------ #
    # Marker / layout
    # ------------------------------------------------------------------ #
    def _marker_path(self) -> Path:
        return self._root / MARKER_NAME

    def _init_marker(self, shard_chars: int) -> int:
        marker = self._marker_path()
        if marker.exists():
            with marker.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            version = data.get("format_version")
            if version != MARKER_FORMAT_VERSION:
                raise ValueError(f"unsupported sharding marker version {version!r}")
            return int(data["shard_chars"])
        # First creation: persist the layout under the key-generation lock
        # so two processes opening one fresh root agree on shard_chars.
        with advisory_lock(self._root / LOCK_DIR_NAME / "marker.lock"):
            if marker.exists():
                with marker.open("r", encoding="utf-8") as handle:
                    return int(json.load(handle)["shard_chars"])
            payload = json.dumps(
                {"format_version": MARKER_FORMAT_VERSION, "shard_chars": shard_chars}
            )
            tmp = marker.with_suffix(".json.writing")
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, marker)
        return shard_chars

    @property
    def root(self) -> Path:
        """The sharded registry directory."""
        return self._root

    @property
    def shard_chars(self) -> int:
        """Number of leading key characters that select a shard."""
        return self._shard_chars

    @property
    def stats(self) -> RegistryStats:
        """Load/generation counters for *this* registry instance."""
        return self._own_stats

    def shard_names(self) -> List[str]:
        """Names of every shard directory present on disk, sorted."""
        names = []
        for path in self._root.iterdir():
            if path.is_dir() and path.name != LOCK_DIR_NAME:
                names.append(path.name)
        return sorted(names)

    def shard_for(self, key: str) -> StructureRegistry:
        """The flat registry owning ``key`` (opened lazily, cached)."""
        return self._open_shard(key[: self._shard_chars])

    def _lock_path(self, key: str) -> Path:
        return self._root / LOCK_DIR_NAME / f"{key}.lock"

    # ------------------------------------------------------------------ #
    # Lookup (StructureRegistry surface)
    # ------------------------------------------------------------------ #
    def key_for(self, circuit: Circuit, config: Optional[GeneratorConfig] = None) -> str:
        """The registry key of ``circuit`` under ``config``."""
        return structure_key(circuit, self._normalize(config))

    _normalize = staticmethod(StructureRegistry._normalize)

    def __len__(self) -> int:
        return sum(len(self._fresh_shard(name)) for name in self.shard_names())

    def _open_shard(self, name: str) -> StructureRegistry:
        shard = self._shards.get(name)
        if shard is None:
            shard = StructureRegistry(self._root / name)
            self._shards[name] = shard
        return shard

    def _fresh_shard(self, name: str) -> StructureRegistry:
        """The shard with its index re-read when we had it cached.

        Aggregate views (``__len__`` / ``keys`` / ``entries``) must see
        what sibling processes have written since our last read; a shard
        opened for the first time already reads the on-disk index.
        """
        shard = self._shards.get(name)
        if shard is None:
            return self._open_shard(name)
        shard.reload()
        return shard

    def keys(self) -> List[str]:
        """All registry keys across every shard, sorted."""
        keys: List[str] = []
        for name in self.shard_names():
            keys.extend(self._fresh_shard(name).keys())
        return sorted(keys)

    def entries(self) -> List[RegistryEntry]:
        """All index entries across every shard, sorted by key."""
        entries: List[RegistryEntry] = []
        for name in self.shard_names():
            entries.extend(self._fresh_shard(name).entries())
        return sorted(entries, key=lambda entry: entry.key)

    def entry(self, key: str) -> Optional[RegistryEntry]:
        """The index entry under ``key``, or ``None``."""
        return self.shard_for(key).entry(key)

    def contains(self, circuit: Circuit, config: Optional[GeneratorConfig] = None) -> bool:
        """True when a structure for (``circuit``, ``config``) is registered."""
        key = self.key_for(circuit, config)
        shard = self.shard_for(key)
        if shard.entry(key) is not None:
            return True
        shard.reload()  # another process may have indexed it since our read
        return shard.entry(key) is not None

    def get(
        self, circuit: Circuit, config: Optional[GeneratorConfig] = None
    ) -> Optional[MultiPlacementStructure]:
        """Load the stored structure for (``circuit``, ``config``), or ``None``."""
        key = self.key_for(circuit, config)
        shard = self.shard_for(key)
        structure = shard.get(circuit, config)
        if structure is None:
            shard.reload()
            structure = shard.get(circuit, config)
        if structure is not None:
            self._own_stats.loads += 1
        return structure

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def put(
        self,
        structure: MultiPlacementStructure,
        config: Optional[GeneratorConfig] = None,
    ) -> RegistryEntry:
        """Persist ``structure`` in its shard under the per-key lock."""
        key = self.key_for(structure.circuit, config)
        with advisory_lock(self._lock_path(key)):
            return self.shard_for(key).put(structure, config)

    def fetch(
        self,
        circuit: Circuit,
        config: Optional[GeneratorConfig] = None,
    ) -> Tuple[MultiPlacementStructure, bool]:
        """``(structure, generated)``, generating **exactly once** across processes.

        The fast path is lock-free: a structure already visible in the
        shard loads immediately.  Only on a miss does the caller take the
        per-key advisory lock, re-read the shard index (a sibling may have
        generated while we waited), and generate if the key is still
        absent — so concurrent first-sight fetches serialize on the lock
        and every process after the first loads from disk.
        """
        key = self.key_for(circuit, config)
        shard = self.shard_for(key)
        with span("registry.fetch", circuit=circuit.name, sharded=True) as obs_span:
            structure = shard.get(circuit, config)
            if structure is not None:
                self._own_stats.loads += 1
                obs_span.set(hit=True)
                if _obs_enabled():
                    _obs_metrics().inc("registry.loads")
                return structure, False
            lock_requested = clock()
            with advisory_lock(self._lock_path(key)):
                if _obs_enabled():
                    # How long this process queued behind siblings for the
                    # per-key generation lock — the cross-process
                    # contention signal of the exactly-once path.
                    _obs_metrics().observe(
                        "registry.lock_wait_seconds", clock() - lock_requested
                    )
                shard.reload()
                structure = shard.get(circuit, config)
                if structure is not None:
                    self._own_stats.loads += 1
                    obs_span.set(hit=True, lock_waited=True)
                    if _obs_enabled():
                        _obs_metrics().inc("registry.loads")
                    return structure, False
                LOGGER.info(
                    "sharded registry miss for circuit %s (key %s); generating",
                    circuit.name,
                    key,
                )
                obs_span.set(hit=False)
                with span("registry.generate", circuit=circuit.name):
                    structure = MultiPlacementGenerator(
                        circuit, self._normalize(config)
                    ).generate()
                shard.put(structure, config)
                self._own_stats.generations += 1
                if _obs_enabled():
                    _obs_metrics().inc("registry.generations")
                return structure, True

    def get_or_generate(
        self,
        circuit: Circuit,
        config: Optional[GeneratorConfig] = None,
    ) -> MultiPlacementStructure:
        """The stored structure for (``circuit``, ``config``), generating if absent."""
        structure, _ = self.fetch(circuit, config)
        return structure

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def reload(self) -> None:
        """Re-read every opened shard's on-disk index."""
        for shard in self._shards.values():
            shard.reload()

    def reap_temp_files(self, max_age_seconds: Optional[float] = None) -> List[Path]:
        """Reap orphaned temp files in every shard (see the flat registry)."""
        reaped: List[Path] = []
        for name in self.shard_names():
            shard = self._open_shard(name)
            if max_age_seconds is None:
                reaped.extend(shard.reap_temp_files())
            else:
                reaped.extend(shard.reap_temp_files(max_age_seconds))
        return reaped

    def clear(self) -> None:
        """Delete every registered structure across all shards."""
        for name in self.shard_names():
            self._open_shard(name).clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedStructureRegistry(root={str(self._root)!r}, "
            f"shard_chars={self._shard_chars}, shards={len(self.shard_names())})"
        )


@dataclass(frozen=True)
class ShardOwnerMap:
    """Deterministic shard-prefix → worker-slot assignment.

    The serving daemon pins each registry shard to one worker process so
    that a shard's structure files and in-process caches stay warm in a
    single place.  Ownership is modular over the hex value of the shard
    prefix: fingerprints are uniformly distributed, so shards spread
    evenly over workers, and the assignment is a pure function of
    ``(prefix, workers)`` — every process (and every restart) computes the
    same map without coordination.  Rebalancing on a worker-count change
    is wholesale, which is fine for single-node process pinning; a
    multi-node deployment would swap this for consistent hashing.
    """

    workers: int
    shard_chars: int = DEFAULT_SHARD_CHARS

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.shard_chars < 1:
            raise ValueError("shard_chars must be at least 1")

    def prefix_for(self, key: str) -> str:
        """The shard prefix of a registry ``key``."""
        return key[: self.shard_chars]

    def owner_for(self, prefix: str) -> int:
        """The worker slot owning shard ``prefix`` (``0 .. workers-1``)."""
        try:
            value = int(prefix, 16)
        except ValueError:
            # Registry keys are hex fingerprints, but stay total for any
            # string so callers never need a fallback path of their own.
            digest = hashlib.sha256(prefix.encode("utf-8")).digest()
            value = int.from_bytes(digest[:8], "big")
        return value % self.workers

    def owner_for_key(self, key: str) -> int:
        """The worker slot owning the shard of registry ``key``."""
        return self.owner_for(self.prefix_for(key))

    def assignments(self, keys: Sequence[str]) -> Dict[int, List[str]]:
        """Group ``keys`` by owning worker slot (slots with no keys omitted)."""
        groups = group_positions(self.owner_for_key(key) for key in keys)
        return {
            slot: [keys[position] for position in positions]
            for slot, positions in groups.items()
        }


AnyRegistry = Union[StructureRegistry, ShardedStructureRegistry]


def open_registry(
    root: Union[str, Path],
    sharded: Optional[bool] = None,
    shard_chars: int = DEFAULT_SHARD_CHARS,
) -> AnyRegistry:
    """Open the registry at ``root``, auto-detecting its layout.

    An existing sharded root (marker file present) always opens sharded; an
    existing flat root (``index.json`` present) always opens flat.  For a
    fresh directory ``sharded`` decides (default: flat, the historical
    layout); passing ``sharded`` against an existing layout of the other
    flavor raises rather than silently splitting the library in two.
    """
    root = Path(root)
    has_marker = (root / MARKER_NAME).exists()
    has_flat_index = (root / "index.json").exists()
    if has_marker:
        if sharded is False:
            raise ValueError(f"registry at {root} is sharded; cannot open flat")
        return ShardedStructureRegistry(root, shard_chars=shard_chars)
    if has_flat_index:
        if sharded is True:
            raise ValueError(f"registry at {root} is flat; cannot open sharded")
        return StructureRegistry(root)
    if sharded:
        return ShardedStructureRegistry(root, shard_chars=shard_chars)
    return StructureRegistry(root)
