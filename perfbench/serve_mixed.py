"""``serve_mixed`` — the placement daemon under an open-loop ``/place`` ladder.

The daemon runs in its own process exactly as deployed
(``python -m repro.serve --registry <root> --workers <nproc>``; only
``--port 0`` is added so the run never collides with a live server).
Set-up pre-seeds the registry with ``medium`` structures (seed 0) of four
circuits under the ``config=None`` key the daemon serves, so the daemon
never generates.  Requests draw from 64 seeded vectors per circuit — a
working set far below the memo — and arrive on a fixed schedule from at
most ``nproc`` keep-alive connections, stepping up a rate ladder.  Every
request is timed from when it was due.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.calibrate import Calibrated, SpeedLog
from perfbench.common import (
    ROOT,
    TIERS,
    RunResult,
    check_inputs,
    descendants,
    mean,
    median,
    now_ns,
    percentile,
    process_tree_peak_rss_mb,
    summary,
    tier_shares,
)
from perfbench.layers import (
    batch_us_per_candidate,
    install_placement_wrappers,
    layer_metrics,
    placement_layers,
)
from perfbench.queries import mixed_queries
from perfbench.tracing import Tracer

CIRCUITS = ("two_stage_opamp", "single_ended_opamp", "mixer", "tso_cascode")
VECTORS_PER_CIRCUIT = 64
LADDER = (100, 200, 400, 800)
#: A ladder step passes when its p99 (timed from the due time, failures
#: counted as misses) stays within this limit and no backlog grows.
P99_LIMIT_MS = 20.0
#: Share of the time budget given to the first (100 rps) step; the
#: steps above it split the rest.
BASE_STEP_SHARE = 2.0 / 3.0
SETUPS = 3
START_TIMEOUT_S = 60.0
GIVE_UP_LATE_S = 1.0
#: Passes of the in-process replay of the base step's request order.
REPLAY_PASSES = 5
STOP_TIMEOUT_S = 30.0

Pair = Tuple[str, Tuple[Tuple[int, int], ...]]


# ---------------------------------------------------------------------- #
# Daemon process
# ---------------------------------------------------------------------- #
class Daemon:
    """``python -m repro.serve`` in a child process, stopped with SIGTERM."""

    def __init__(self, registry: Path, workers: int, log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = log_path.open("w")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--registry",
                str(registry),
                "--workers",
                str(workers),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=env,
            cwd=str(registry.parent),
        )
        self.descendants: List[int] = []
        self.host, self.port = self._read_address()

    def _read_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    if self.proc.poll() is not None:
                        break
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("listening on "):
                    address = line.split()[-1].split("://")[-1]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
        self.stop()
        raise RuntimeError("placement daemon did not report a listening address")

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon and its worker processes."""
        self.descendants = descendants(self.proc.pid)
        return process_tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the daemon and its workers."""
        self.descendants = sorted(set(self.descendants) | set(descendants(self.proc.pid)))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self.descendants:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    deadline = time.monotonic() + STOP_TIMEOUT_S
                time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# ---------------------------------------------------------------------- #
# HTTP
# ---------------------------------------------------------------------- #
class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after an error."""

    def __init__(self, host: str, port: int) -> None:
        self._host, self._port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=30)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def scrape(conn: Connection) -> Dict[str, object]:
    """Counters and histogram buckets from the daemon's ``/metrics``."""
    status, body = conn.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values: Dict[str, object] = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "_bucket{le=" in name:
            metric, _, label = name.partition("_bucket{le=")
            bound = float(label.strip('"}'))
            values.setdefault(metric + "_buckets", []).append((bound, float(value)))
        else:
            values[name] = float(value)
    return values


def histogram_quantile(before: Dict, after: Dict, metric: str, q: float) -> float:
    """Prometheus-style quantile of a histogram's increase between two scrapes."""
    old = dict(before.get(metric + "_buckets", []))
    buckets = [(bound, count - old.get(bound, 0.0)) for bound, count in after.get(metric + "_buckets", [])]
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            share = (rank - lower_count) / (count - lower_count) if count > lower_count else 0.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return lower_bound


def _delta(before: Dict, after: Dict, name: str) -> float:
    return float(after.get(name, 0.0)) - float(before.get(name, 0.0))


# ---------------------------------------------------------------------- #
# Load
# ---------------------------------------------------------------------- #
def open_loop(
    host: str, port: int, bodies: Sequence[bytes], rate: float, connections: int
) -> List[Optional[Tuple[float, float, int, bytes]]]:
    """Send ``bodies`` at ``rate`` per second; per request ``(late_ms, latency_ms, status, body)``.

    Request *i* is due at ``start + i / rate``.  Latency is measured from
    the due time, so a stalled connection delays the requests queued
    behind it; ``late_ms`` is how late the request actually left.  Once
    the generator runs more than ``GIVE_UP_LATE_S`` behind schedule the
    step has failed; requests never sent read ``None``.  This keeps an
    overloaded step from running for minutes.
    """
    count = len(bodies)
    records: List[Optional[Tuple[float, float, int, bytes]]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    start = now_ns() + 50_000_000
    interval = 1e9 / rate

    def worker() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                due = start + int(index * interval)
                wait = due - now_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                elif -wait > GIVE_UP_LATE_S * 1e9:
                    return
                sent = now_ns()
                status, body = conn.call("POST", "/place", bodies[index])
                done = now_ns()
                records[index] = ((sent - due) / 1e6, (done - due) / 1e6, status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    gc.collect()
    gc.freeze()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.unfreeze()
    return records


def step_stats(records) -> Dict[str, float]:
    """One ladder step's latency figures and verdict.

    Latencies run from the due time; a non-200 misses every limit.  The
    verdict takes the median of the p99s of three consecutive
    sub-windows, so one burst of interference on a shared host does not
    decide the step on its own.  A growing backlog (the last fifth of the
    step slower than the first by half the limit, or requests never sent)
    fails the step whatever its p99.
    """
    scheduled = len(records)
    records = [record for record in records if record is not None]
    latencies = [lat if status == 200 else float("inf") for _, lat, status, _ in records]
    fifth = max(1, len(latencies) // 5)
    growth = median(latencies[-fifth:]) - median(latencies[:fifth])
    third = max(1, len(latencies) // 3)
    window_p99 = median([percentile(latencies[i : i + third], 0.99) for i in range(0, 3 * third, third)])
    return {
        "requests": len(records),
        "scheduled": scheduled,
        "p50_ms": percentile(latencies, 0.5),
        "p99_ms": percentile(latencies, 0.99),
        "window_p99_ms": window_p99,
        "late_p99_ms": percentile([late for late, _, _, _ in records], 0.99),
        "backlog_growth_ms": growth,
        "passed": len(records) == scheduled
        and window_p99 <= P99_LIMIT_MS
        and growth <= P99_LIMIT_MS / 2,
    }


def sustained_rate(steps: Sequence[Dict[str, float]]) -> float:
    """The highest rate that meets the p99 limit, interpolated on the ladder.

    Below the first failing step the answer is the last passing rate.  When
    that failing step completed without a growing backlog, the rate is
    interpolated between the two steps where ``log(p99)`` crosses the
    limit, so a step that misses the limit by a hair reads just under its
    rate instead of falling to the rung below.  0 when the first step fails.
    """
    previous = None
    for step in steps:
        if step["passed"]:
            previous = (step["rate"], step["window_p99_ms"])
            continue
        if previous is None:
            return 0.0
        rate, p99 = previous
        complete = step["requests"] == step["scheduled"]
        if not complete or step["backlog_growth_ms"] > P99_LIMIT_MS / 2:
            return float(rate)
        share = (math.log(P99_LIMIT_MS) - math.log(p99)) / (
            math.log(step["window_p99_ms"]) - math.log(p99)
        )
        return rate + share * (step["rate"] - rate)
    return float(previous[0]) if previous else 0.0


# ---------------------------------------------------------------------- #
# Workload
# ---------------------------------------------------------------------- #
def _generate(work: Path) -> Tuple[Dict[str, object], float, int]:
    """Seeded medium structures for every circuit, registered under ``config=None``."""
    from repro.benchcircuits.library import get_benchmark
    from repro.core.generator import MultiPlacementGenerator
    from repro.experiments.config import get_scale
    from repro.service.registry import StructureRegistry

    registry = StructureRegistry(work)
    structures: Dict[str, object] = {}
    generate_ns = 0
    for name in CIRCUITS:
        circuit = get_benchmark(name)
        started = now_ns()
        structure = MultiPlacementGenerator(
            circuit, get_scale("medium").generator_config(circuit, seed=0)
        ).generate()
        generate_ns += now_ns() - started
        registry.put(structure, None)
        structures[name] = structure
    return structures, generate_ns / 1e9, sum(s.num_placements for s in structures.values())


def _body(name: str, dims) -> bytes:
    return json.dumps({"circuit": name, "dims": [list(d) for d in dims]}).encode()


def _setup(work: Path, workers: int, seed: int, counts: Sequence[int]):
    """Registry, daemon, first 200, then every workload vector once.

    The warm-up (one ``/place_batch`` per circuit) fills the daemon's
    caches — worker structure loads, memo — with the workload's working
    set, so the ladder measures the steady state and the fill shows up in
    ``setup_s``.
    """
    start = now_ns()
    structures, generate_s, placements = _generate(work)
    inputs = make_inputs(seed, structures, counts)
    daemon = Daemon(work, workers, work.parent / f"{work.name}-daemon.log")
    try:
        conn = Connection(daemon.host, daemon.port)
        deadline = time.monotonic() + START_TIMEOUT_S
        while conn.call("GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("placement daemon never became healthy")
            time.sleep(0.05)
        for name in CIRCUITS:
            batch = [[list(d) for d in dims] for circuit, dims in inputs["pairs"] if circuit == name]
            status, body = conn.call(
                "POST", "/place_batch", json.dumps({"circuit": name, "dims_batch": batch}).encode()
            )
            if status != 200:
                raise RuntimeError(f"warm-up /place_batch answered {status}: {body[:200]!r}")
        conn.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, structures, inputs, (now_ns() - start) / 1e9, generate_s, placements


def make_inputs(seed: int, structures: Dict[str, object], counts: Sequence[int]) -> Dict[str, object]:
    """Query vectors per circuit plus the request order of every ladder step."""
    rng = random.Random(seed)
    vectors = {
        name: mixed_queries(structures[name], VECTORS_PER_CIRCUIT, rng) for name in CIRCUITS
    }
    pairs: List[Pair] = [(name, query) for name in CIRCUITS for query in vectors[name]]
    orders = [[rng.randrange(len(pairs)) for _ in range(count)] for count in counts]
    return {"pairs": pairs, "orders": orders}


def _normalize(payload: Dict[str, object]) -> Dict[str, object]:
    """A placement's JSON without the fields that name how it was served.

    ``elapsed_seconds`` is wall-clock time and ``placer`` names the engine
    that answered (the daemon's workers answer through a service placer);
    the placement itself — tier, cost, rects, stored index — must match.
    """
    return {
        key: value for key, value in payload.items() if key not in ("elapsed_seconds", "placer")
    }


def _oracle(root: Path, pairs: Sequence[Pair], tracer: Optional[Tracer]) -> List[Dict[str, object]]:
    """The in-process ``PlacementService.instantiate`` answer for every pair."""
    from repro.benchcircuits.library import get_benchmark
    from repro.parallel.sharding import open_registry
    from repro.service.engine import PlacementService

    service = PlacementService(open_registry(root))
    circuits = {name: get_benchmark(name) for name in CIRCUITS}
    if tracer is not None:
        install_placement_wrappers(tracer)
        tracer.active = True
    for circuit in circuits.values():
        service.warm(circuit)
    if tracer is not None:
        tracer.active = False
        tracer.unwrap_all()
    return [
        json.loads(json.dumps(_normalize(service.instantiate(circuits[name], dims).as_dict())))
        for name, dims in pairs
    ]


def _replay(
    root: Path,
    pairs: Sequence[Pair],
    order: Sequence[int],
    tracer: Optional[Tracer],
    speed: SpeedLog,
) -> Tuple[Calibrated, List[float]]:
    """The served request order through a fresh in-process service: timings, costs."""
    from repro.benchcircuits.library import get_benchmark
    from repro.parallel.sharding import open_registry
    from repro.service.engine import PlacementService

    service = PlacementService(open_registry(root))
    circuits = {name: get_benchmark(name) for name in CIRCUITS}
    for circuit in circuits.values():
        service.warm(circuit)
    if tracer is not None:
        install_placement_wrappers(tracer)
        tracer.active = True
    timings = Calibrated(speed)
    costs: List[float] = []
    try:
        for request, index in enumerate(order):
            name, dims = pairs[index]
            if tracer is not None:
                tracer.request = request
            started = now_ns()
            placement = service.instantiate(circuits[name], dims)
            elapsed = now_ns() - started
            costs.append(placement.cost.total)
            timings.add(elapsed)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.request = None
            tracer.unwrap_all()
    timings.finish()
    return timings, costs


def _step_seconds(seconds: float) -> List[float]:
    upper = len(LADDER) - 1
    return [seconds * BASE_STEP_SHARE] + [seconds * (1 - BASE_STEP_SHARE) / upper] * upper


def run(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    workers = os.cpu_count() or 1
    connections = workers
    counts = [int(rate * span) for rate, span in zip(LADDER, _step_seconds(seconds))]
    tracer = Tracer() if trace else None

    speed = SpeedLog()
    setup_s: List[float] = []
    setup_raw_s: List[float] = []
    generate_s: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for index in range(SETUPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            mark = speed.mark()
            daemon, structures, inputs, elapsed, generated, placements = _setup(
                work / f"setup{index}", workers, seed, counts
            )
            setup_raw_s.append(elapsed)
            setup_s.append(elapsed * speed.factor(mark, speed.mark()))
            generate_s.append(generated)
        root = work / f"setup{SETUPS - 1}"

        digest, checks = check_inputs(lambda s: make_inputs(s, structures, counts), seed)
        pairs: List[Pair] = inputs["pairs"]
        bodies = [_body(name, dims) for name, dims in pairs]

        conn = Connection(daemon.host, daemon.port)
        rtt_ns: List[int] = []
        if tracer is not None:
            for _ in range(200):
                started = now_ns()
                conn.call("GET", "/healthz")
                rtt_ns.append(now_ns() - started)
        steps: List[Dict[str, float]] = []
        served: List[Tuple[int, int, bytes]] = []
        before = scrape(conn)
        for step, (rate, order) in enumerate(zip(LADDER, inputs["orders"])):
            records = open_loop(
                daemon.host, daemon.port, [bodies[i] for i in order], rate, connections
            )
            if step == 0:
                after = scrape(conn)
                base_records = [record for record in records if record is not None]
            served.extend(
                (index, record[2], record[3])
                for index, record in zip(order, records)
                if record is not None
            )
            stats = step_stats(records)
            stats["rate"] = rate
            steps.append(stats)
            # Traced runs need only the base step; stop at the first failure.
            if tracer is not None or not stats["passed"]:
                break
        statusz = json.loads(conn.call("GET", "/debug/statusz")[1] or b"{}")
        conn.close()
        peak_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    oracle = _oracle(root, pairs, tracer)
    mismatched = 0
    non_ok = 0
    served_costs: List[float] = []
    for index, status, body in served:
        if status != 200:
            non_ok += 1
            continue
        payload = _normalize(json.loads(body))
        if payload != oracle[index]:
            mismatched += 1
    for _, _, status, body in base_records:
        if status == 200:
            served_costs.append(json.loads(body)["total_cost"])
    checks["served_match_in_process"] = mismatched == 0
    checks["all_served_ok"] = non_ok == 0

    base_order = inputs["orders"][0]
    replay_ns: List[float] = []
    replay_mismatch = 0
    replay_costs: List[float] = []
    for _ in range(REPLAY_PASSES):
        timings, costs = _replay(root, pairs, base_order, None, speed)
        replay_ns.extend(timings.scaled)
        replay_costs = costs
        replay_mismatch += sum(
            cost != oracle[index]["total_cost"] for index, cost in zip(base_order, costs)
        )
    checks["replay_matches_oracle"] = replay_mismatch == 0

    attempted = len(served)
    failed = mismatched + non_ok + replay_mismatch
    max_rps = sustained_rate(steps)
    counters = {tier: _delta(before, after, f"service_{tier}_hits") for tier in TIERS}
    shares = tier_shares(counters)
    report = {
        "inputs_sha256": digest,
        "ladder": steps,
        "connections": connections,
        "daemon_workers": workers,
        "tier_counts": counters,
        "tier_share": shares,
        "affinity": statusz.get("affinity"),
        "failed_frac": failed / max(1, attempted),
        # The ladder's verdict; not an end-to-end metric (see README.md).
        "serve_max_rps": max_rps,
        "speed_factor": speed.median_factor(),
    }
    samples = {
        "setup_s": summary(setup_s),
        "setup_raw_s": summary(setup_raw_s),
        "serve_latency_ms": summary(
            [lat if status == 200 else float("inf") for _, lat, status, _ in base_records]
        ),
        "place_latency_ms": summary([ns / 1e6 for ns in replay_ns]),
    }

    if tracer is not None:
        values = _serve_layers(
            before, after, rtt_ns, base_records, structures, pairs, inputs, root, tracer, speed
        )
        values.update({f"core.tier_share.{tier}": shares[tier] for tier in TIERS})
        values["core.generate_s"] = median(generate_s)
        values["core.placements"] = placements
        tracer.write_jsonl(work.parent / "spans" / f"serve_mixed-seed{seed}.jsonl")
        report["spans"] = len(tracer.spans)
        metrics = layer_metrics(values)
    else:
        replay_ms = [ns / 1e6 for ns in replay_ns]
        place_qps = len(replay_ns) / (sum(replay_ns) / 1e9)
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "place_p50_ms": (percentile(replay_ms, 0.5), "ms"),
            "place_qps": (place_qps, "1/s"),
            "place_cost_mean": (mean(replay_costs), "cost"),
            # No sizing loop on this workload: these report the in-process
            # replay's figures (perfbench/README.md).
            "synth_evals_per_s": (place_qps, "1/s"),
            "synth_best_objective": (mean(replay_costs), "objective"),
            "serve_cost_mean": (mean(served_costs), "cost"),
        }
    return RunResult(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        checks=checks,
        samples=samples,
        report=report,
    )


def _serve_layers(
    before, after, rtt_ns, base_records, structures, pairs, inputs, root, tracer, speed
) -> Dict[str, float]:
    """Per-layer figures: /metrics deltas over the base step plus in-process replays."""
    dispatches = _delta(before, after, "serve_dispatches")
    coalesced = _delta(before, after, "serve_coalesced_queries")
    hits = _delta(before, after, "serve_affinity_hits")
    misses = _delta(before, after, "serve_affinity_misses")
    queries = _delta(before, after, "service_queries")
    ok = [(late, lat) for late, lat, status, _ in base_records if status == 200]
    sent_to_done = [lat - late for late, lat in ok]
    server_count = _delta(before, after, "serve_request_seconds_count")
    server_mean_ms = (
        _delta(before, after, "serve_request_seconds_sum") / server_count * 1e3 if server_count else 0.0
    )
    rtt_mean_ms = mean(rtt_ns) / 1e6
    client_p50 = percentile([lat for _, lat in ok], 0.5)
    values: Dict[str, float] = {
        "serve.rtt_ms": median(rtt_ns) / 1e6,
        "serve.server_ms": histogram_quantile(before, after, "serve_request_seconds", 0.5) * 1e3,
        "serve.batch_size_mean": coalesced / dispatches if dispatches else 0.0,
        "serve.dedup_ratio": _delta(before, after, "serve_dedup_hits") / coalesced if coalesced else 0.0,
        "serve.shed": _delta(before, after, "serve_admission_shed"),
        "serve.affinity_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.memo_hit_rate": _delta(before, after, "service_memo_hits") / queries if queries else 0.0,
        "loadgen.late_ms": percentile([late for late, _, _, _ in base_records], 0.99),
        "trace.unattributed_ms": mean(sent_to_done) - server_mean_ms - rtt_mean_ms,
    }
    order = inputs["orders"][0]
    values["serve.overhead_ms"] = client_p50 - _batch_p50_ms(root, pairs, order)
    values.update(_pool_hop_ms(root, pairs))
    untraced, _ = _replay(root, pairs, order, None, speed)
    traced, _ = _replay(root, pairs, order, tracer, speed)
    values.update(placement_layers(tracer))
    values["trace.overhead_frac"] = mean(traced.raw) / mean(untraced.raw) - 1.0
    values["eval.batch_us_per_candidate"] = mean(
        batch_us_per_candidate(structures[name], [dims for circuit, dims in pairs if circuit == name])
        for name in CIRCUITS
    )
    return values


def _batch_p50_ms(root: Path, pairs: Sequence[Pair], order: Sequence[int]) -> float:
    """p50 of in-process one-query ``instantiate_batch`` calls on the served order (memo warm)."""
    from repro.benchcircuits.library import get_benchmark
    from repro.parallel.sharding import open_registry
    from repro.service.engine import PlacementService

    service = PlacementService(open_registry(root))
    circuits = {name: get_benchmark(name) for name in CIRCUITS}
    for name, dims in pairs:
        service.instantiate_batch(circuits[name], [dims])
    timings = []
    for index in order:
        name, dims = pairs[index]
        started = now_ns()
        service.instantiate_batch(circuits[name], [dims])
        timings.append(now_ns() - started)
    return median(timings) / 1e6


def _pool_hop_ms(root: Path, pairs: Sequence[Pair], repeats: int = 40) -> Dict[str, float]:
    """``WorkerPool.place_batch(pin_slot=0)`` minus the same batch in process, at 1 and 32."""
    from repro.benchcircuits.library import get_benchmark
    from repro.core.generator import GeneratorConfig
    from repro.core.serialization import circuit_to_dict
    from repro.parallel.pool import WorkerPool
    from repro.parallel.sharding import open_registry
    from repro.service.engine import PlacementService

    name = CIRCUITS[0]
    circuit = get_benchmark(name)
    vectors = [dims for circuit_name, dims in pairs if circuit_name == name]
    spec = {
        "kind": "service",
        "registry": str(root),
        "config": GeneratorConfig(),
        "cache": 8,
        "memo": 4096,
        "fallback": "best_stored",
    }
    service = PlacementService(open_registry(root))
    pool = WorkerPool(workers=os.cpu_count() or 1)
    values: Dict[str, float] = {}
    try:
        data = circuit_to_dict(circuit)
        pool.place_batch(data, spec, vectors, pin_slot=0)
        service.instantiate_batch(circuit, vectors)
        for size in (1, 32):
            hops = []
            for repeat in range(repeats):
                batch = [vectors[(repeat * size + i) % len(vectors)] for i in range(size)]
                started = now_ns()
                pool.place_batch(data, spec, batch, pin_slot=0)
                pooled = now_ns() - started
                started = now_ns()
                service.instantiate_batch(circuit, batch)
                hops.append(pooled - (now_ns() - started))
            values[f"parallel.pool_hop_ms.b{size}"] = median(hops) / 1e6
    finally:
        pool.close()
    return values
