"""On-disk structure library: the offline half of the service.

The registry owns a directory of serialized multi-placement structures plus
a JSON index mapping registry keys (:func:`repro.service.fingerprint.structure_key`)
to the file holding each structure.  Its central operation is
``get_or_generate``: return the stored structure for a (circuit, config)
pair, generating and persisting it first if this is the first time the
topology is seen.  All writes are atomic (temp file + ``os.replace``) and
index writes merge with the on-disk state, so concurrent services sharing
one registry directory never observe a truncated structure or lose each
other's entries.  Simultaneous first-sight calls may duplicate a
generation run (last writer wins) — wasted work, never corruption.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.circuit.netlist import Circuit
from repro.core.generator import GeneratorConfig, MultiPlacementGenerator
from repro.core.serialization import load_structure, save_structure
from repro.core.structure import MultiPlacementStructure
from repro.obs.spans import is_enabled as _obs_enabled, metrics as _obs_metrics, span
from repro.service.fingerprint import (
    circuit_fingerprint,
    config_fingerprint,
    structure_key,
)
from repro.utils.logging_utils import get_logger

LOGGER = get_logger("service.registry")

INDEX_NAME = "index.json"
INDEX_FORMAT_VERSION = 1

#: Temp files older than this are considered orphaned by a crashed writer.
STALE_TEMP_SECONDS = 60.0

#: What ``config=None`` keys and generates as; one shared instance, so the
#: identity memo of :func:`config_fingerprint` hits on that path too.
_DEFAULT_CONFIG = GeneratorConfig()


@dataclass(frozen=True)
class RegistryEntry:
    """One structure known to the registry."""

    key: str
    circuit_name: str
    circuit_fingerprint: str
    config_fingerprint: str
    #: File name of the serialized structure, relative to the registry root.
    filename: str
    num_blocks: int
    num_placements: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form stored in the index file."""
        return {
            "key": self.key,
            "circuit_name": self.circuit_name,
            "circuit_fingerprint": self.circuit_fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "filename": self.filename,
            "num_blocks": self.num_blocks,
            "num_placements": self.num_placements,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RegistryEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        return cls(
            key=str(data["key"]),
            circuit_name=str(data["circuit_name"]),
            circuit_fingerprint=str(data["circuit_fingerprint"]),
            config_fingerprint=str(data["config_fingerprint"]),
            filename=str(data["filename"]),
            num_blocks=int(data["num_blocks"]),
            num_placements=int(data["num_placements"]),
        )


@dataclass
class RegistryStats:
    """How often the registry served from disk versus generated from scratch."""

    loads: int = 0
    generations: int = 0

    @property
    def requests(self) -> int:
        """Total fetches answered."""
        return self.loads + self.generations

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from disk."""
        if self.requests == 0:
            return 0.0
        return self.loads / self.requests


class StructureRegistry:
    """A directory of serialized structures with ``get_or_generate`` semantics.

    Parameters
    ----------
    root:
        Directory holding the structure files and the ``index.json`` index.
        Created (with parents) if it does not exist.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._entries: Dict[str, RegistryEntry] = {}
        self._stats = RegistryStats()
        self.reap_temp_files()
        self._load_index()

    @property
    def root(self) -> Path:
        """The registry directory."""
        return self._root

    @property
    def stats(self) -> RegistryStats:
        """Load/generation counters for this registry instance."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[str]:
        """All registry keys, sorted."""
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """All index entries, sorted by key."""
        with self._lock:
            return [self._entries[key] for key in sorted(self._entries)]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize(config: Optional[GeneratorConfig]) -> GeneratorConfig:
        """``None`` means the default config — key and generate it as such."""
        return config if config is not None else _DEFAULT_CONFIG

    def key_for(self, circuit: Circuit, config: Optional[GeneratorConfig] = None) -> str:
        """The registry key of ``circuit`` under ``config``.

        ``config=None`` and ``config=GeneratorConfig()`` are the same slot:
        both generate with the default configuration, so they must not
        occupy (and regenerate) two.
        """
        return structure_key(circuit, self._normalize(config))

    def contains(self, circuit: Circuit, config: Optional[GeneratorConfig] = None) -> bool:
        """True when a structure for (``circuit``, ``config``) is registered."""
        with self._lock:
            return self.key_for(circuit, config) in self._entries

    def entry(self, key: str) -> Optional[RegistryEntry]:
        """The index entry under ``key``, or ``None``."""
        with self._lock:
            return self._entries.get(key)

    def get(
        self, circuit: Circuit, config: Optional[GeneratorConfig] = None
    ) -> Optional[MultiPlacementStructure]:
        """Load the stored structure for (``circuit``, ``config``), or ``None``."""
        with self._lock:
            entry = self._entries.get(self.key_for(circuit, config))
            if entry is None:
                return None
            path = self._root / entry.filename
        structure = load_structure(path)
        self._stats.loads += 1
        return structure

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def put(
        self,
        structure: MultiPlacementStructure,
        config: Optional[GeneratorConfig] = None,
    ) -> RegistryEntry:
        """Persist ``structure`` under its (circuit, config) key and index it.

        An existing structure under the same key is replaced atomically.
        """
        circuit = structure.circuit
        key = self.key_for(circuit, config)
        entry = RegistryEntry(
            key=key,
            circuit_name=circuit.name,
            circuit_fingerprint=circuit_fingerprint(circuit),
            config_fingerprint=config_fingerprint(self._normalize(config)),
            filename=f"{key}.json",
            num_blocks=circuit.num_blocks,
            num_placements=structure.num_placements,
        )
        save_structure(structure, self._root / entry.filename)
        with self._lock:
            self._entries[key] = entry
            self._write_index()
        return entry

    def fetch(
        self,
        circuit: Circuit,
        config: Optional[GeneratorConfig] = None,
    ) -> Tuple[MultiPlacementStructure, bool]:
        """``(structure, generated)`` for the pair, generating on first sight.

        ``generated`` is True when the structure was built by this call
        (registry miss) and False when it was served from disk.
        """
        with span("registry.fetch", circuit=circuit.name) as obs_span:
            structure = self.get(circuit, config)
            if structure is not None:
                obs_span.set(hit=True)
                if _obs_enabled():
                    _obs_metrics().inc("registry.loads")
                return structure, False
            LOGGER.info(
                "registry miss for circuit %s (key %s); generating",
                circuit.name,
                self.key_for(circuit, config),
            )
            obs_span.set(hit=False)
            with span("registry.generate", circuit=circuit.name):
                generator = MultiPlacementGenerator(circuit, self._normalize(config))
                structure = generator.generate()
            self.put(structure, config)
            self._stats.generations += 1
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
        """Re-read the on-disk index, picking up other processes' writes.

        The in-memory entry table is a point-in-time view; concurrent
        services sharing one directory call this (under an advisory lock)
        before deciding a structure is missing, so a sibling's freshly
        indexed structure is never regenerated.
        """
        with self._lock:
            self._load_index()

    def reap_temp_files(self, max_age_seconds: float = STALE_TEMP_SECONDS) -> List[Path]:
        """Delete orphaned ``*.tmp`` files left by crashed writers.

        Atomic writes stage their payload in a ``.{name}.XXXX.tmp`` file
        before :func:`os.replace`; a writer killed between the two steps
        leaks the temp file forever.  Files younger than
        ``max_age_seconds`` are left alone — they may belong to a write in
        flight in another process.  Runs automatically on registry open;
        returns the paths it removed.
        """
        reaped: List[Path] = []
        now = time.time()
        try:
            candidates = list(self._root.iterdir())
        except OSError:
            return reaped
        for path in candidates:
            if not (path.is_file() and path.suffix == ".tmp"):
                continue
            try:
                if now - path.stat().st_mtime < max_age_seconds:
                    continue
                path.unlink()
                reaped.append(path)
            except OSError:
                continue  # a concurrent writer finished (or reaped) it first
        return reaped

    def clear(self) -> None:
        """Delete every registered structure file and empty the index."""
        with self._lock:
            for entry in self._entries.values():
                try:
                    os.unlink(self._root / entry.filename)
                except OSError:
                    pass
            self._entries = {}
            self._write_index(merge=False)

    # ------------------------------------------------------------------ #
    # Index I/O
    # ------------------------------------------------------------------ #
    def _index_path(self) -> Path:
        return self._root / INDEX_NAME

    def _read_index_entries(self) -> Dict[str, RegistryEntry]:
        path = self._index_path()
        if not path.exists():
            return {}
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
        version = data.get("format_version")
        if version != INDEX_FORMAT_VERSION:
            raise ValueError(f"unsupported registry index version {version!r}")
        return {entry["key"]: RegistryEntry.from_dict(entry) for entry in data["entries"]}

    def _load_index(self) -> None:
        self._entries = self._read_index_entries()

    def _write_index(self, merge: bool = True) -> None:
        # Fold in entries another process indexed since our last read so a
        # shared registry directory never loses them (clear() opts out).
        if merge:
            try:
                on_disk = self._read_index_entries()
            except (ValueError, OSError, json.JSONDecodeError, KeyError):
                on_disk = {}
            for key, entry in on_disk.items():
                self._entries.setdefault(key, entry)
        payload = json.dumps(
            {
                "format_version": INDEX_FORMAT_VERSION,
                "entries": [self._entries[key].to_dict() for key in sorted(self._entries)],
            },
            indent=2,
        )
        path = self._index_path()
        fd, tmp_name = tempfile.mkstemp(
            dir=self._root, prefix=f".{INDEX_NAME}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StructureRegistry(root={str(self._root)!r}, structures={len(self)})"
