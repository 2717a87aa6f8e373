"""Parallel execution: process pools, picklable jobs, shard-aware registry.

The synthesis loop is embarrassingly parallel across candidate placements;
this package is the concurrency story that exploits it, and its process
pool is the package's only fan-out across cores (the in-process batch
paths deduplicate and run serially):

* :class:`~repro.parallel.pool.WorkerPool` — a reusable process pool that
  executes :mod:`repro.parallel.jobs` specs (placers reconstructed from
  declarative registry specs inside each worker, results reassembled
  deterministically).
* :class:`~repro.parallel.sharding.ShardedStructureRegistry` — the
  structure library split into fingerprint-prefix shards with per-key
  advisory file locks, so any number of processes share one library with
  exactly-once generation.  :func:`~repro.parallel.sharding.open_registry`
  auto-detects flat vs. sharded roots.
* :class:`~repro.parallel.placer.ParallelPlacer` — the ``"parallel"``
  engine kind: any inner spec, batches fanned across workers.

Entry points: ``make_placer({"kind": "parallel", "inner": ...})``,
``PlacementService.instantiate_batch(..., workers=N)`` /
``route_batch(..., workers=N)``, and ``SynthesisConfig(workers=N)``.
"""

from repro.parallel.jobs import (
    JobResult,
    PlacementJob,
    RouteJob,
    run_placement_job,
    run_route_job,
)
from repro.parallel.placer import ParallelPlacer
from repro.parallel.pool import WorkerPool, default_workers, resolve_start_method
from repro.parallel.sharding import (
    ShardedStructureRegistry,
    advisory_lock,
    open_registry,
)

__all__ = [
    "JobResult",
    "ParallelPlacer",
    "PlacementJob",
    "RouteJob",
    "ShardedStructureRegistry",
    "WorkerPool",
    "advisory_lock",
    "default_workers",
    "open_registry",
    "resolve_start_method",
    "run_placement_job",
    "run_route_job",
]
