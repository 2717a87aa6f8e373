"""Shared helpers: statistics, provenance, memory, result assembly.

Every workload module returns a :class:`RunResult`; :mod:`perfbench.run`
prints its report line and then the one-line JSON result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_DIR = ROOT / ".perfbench"


def now_ns() -> int:
    return time.perf_counter_ns()


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``), linear between order statistics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles (what the report records per metric)."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    return {
        "n": len(values),
        "median": percentile(values, 0.5),
        "q1": percentile(values, 0.25),
        "q3": percentile(values, 0.75),
        "p99": percentile(values, 0.99),
    }


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def git_sha() -> Optional[str]:
    """HEAD's commit id when the checkout is a git work tree, else ``None``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and body: identifies the code measured."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def inputs_digest(inputs: object) -> str:
    """sha256 of the canonical JSON form of a workload's generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def provenance(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a declared dependency
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def check_inputs(make_inputs, seed: int) -> Tuple[str, Dict[str, bool]]:
    """Digest of the seed's inputs plus the reproducibility checks on them.

    The same seed must give byte-identical inputs and the next seed must
    give different ones.
    """
    first = inputs_digest(make_inputs(seed))
    again = inputs_digest(make_inputs(seed))
    other = inputs_digest(make_inputs(seed + 1))
    return first, {"same_seed_identical": first == again, "other_seed_differs": first != other}


# ---------------------------------------------------------------------- #
# Memory
# ---------------------------------------------------------------------- #
def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants(pid: int) -> List[int]:
    """Every live descendant process of ``pid``, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found: List[int] = []
    pending = list(children.get(pid, ()))
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(children.get(current, ()))
    return found


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pid`` and its descendants."""
    total_kb = 0
    for current in [pid] + descendants(pid):
        try:
            for line in Path(f"/proc/{current}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass
class RunResult:
    """What one workload run hands back to the runner."""

    #: ``name -> (value, unit)`` for every metric the run reports.
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    #: Named output checks; any False makes the run incorrect.
    checks: Dict[str, bool]
    #: Per-metric sample summaries (count, median, quartiles).
    samples: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Free-form extra facts for the report line (tier shares, ladder, ...).
    report: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def tier_shares(counts: Mapping[str, float]) -> Dict[str, float]:
    """``structure``/``nearest``/``fallback`` shares of the queries counted."""
    total = sum(counts.get(tier, 0) for tier in TIERS)
    return {tier: (counts.get(tier, 0) / total if total else 0.0) for tier in TIERS}


TIERS = ("structure", "nearest", "fallback")
