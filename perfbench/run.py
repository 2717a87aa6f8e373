"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload place_b24 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (spans recorded from this process around calls into the
program's layers, written to ``.perfbench/spans/``).  The next-to-last
line of standard output is a report (provenance, sample summaries,
checks); the last line is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A failed output check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("place_b24", "synth_routed", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # SIGTERM unwinds like an error, so the workload's cleanup (stopping
    # the daemon it started, removing its scratch files) still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import importlib

    from perfbench.common import WORK_DIR, provenance

    workload = importlib.import_module(f"perfbench.{args.workload}")
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in declared[section]}
    produced = {name: unit for name, (_, unit) in result.metrics.items()}
    if produced != expected:
        print(
            f"perfbench: {args.workload} produced {produced}, BENCHMARK.json declares {expected}",
            file=sys.stderr,
        )
        return 2

    report = {
        "provenance": provenance(args.workload, args.seed, bool(args.trace)),
        "checks": result.checks,
        "samples": result.samples,
        **result.report,
    }
    print(json.dumps(report, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
