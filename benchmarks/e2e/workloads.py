"""The five workloads of the end-to-end benchmark, and the process that
measures one of them.

``run.py`` starts this file as a fresh process per workload::

    python benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S --scale X --work DIR --result FILE [--trace-dir DIR]

It drives only ``repro.api``, ``repro serve`` and
``repro.service.ServiceClient``; every input is generated here from
``--seed`` and handed to the program as a spec.  ``--setup-only`` stops
once the program is ready (imports done, spec loaded, store opened) and
prints ``ready``: ``run.py`` times that from spawn.

With ``--trace-dir`` the process runs a warm-up cycle and one untraced
cycle, then installs the wrappers from ``tracer.py`` and runs the same
cycle again inside one root span; counts in the per-layer report are
those of the traced cycle, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A warm or report round repeats its pass until it has run for this
#: share of ``--seconds``, so millisecond passes are timed in batches.
ROUND_SHARE = 1 / 50


def workload_seed(name: str, seed: int) -> int:
    """The seed a workload's specs carry, derived from ``--seed``."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).hexdigest()
    return int(digest[:8], 16)


def _example(name: str) -> Dict[str, Any]:
    return json.loads((ROOT / "examples" / "campaigns" / name).read_text())


def _scaled(value: float, scale: float) -> float:
    return round(value * scale, 6)


# ----------------------------------------------------------------------
# campaign specs
# ----------------------------------------------------------------------
def vld_static(seed: int, scale: float) -> Dict[str, Any]:
    """Fig. 6: six fixed VLD allocations, 300 simulated seconds each."""
    campaign = _example("fig6_vld.json")
    campaign["name"] = "e2e-vld-static"
    campaign["base"].update(
        seed=seed,
        replications=1,
        duration=_scaled(300.0, scale),
        warmup=_scaled(60.0, scale),
    )
    return campaign


def bakeoff_sharded(seed: int, scale: float) -> Dict[str, Any]:
    """The DRS / threshold / slo_feedback bake-off on a heterogeneous
    platform under MMPP2 and diurnal arrivals."""
    campaign = _example("sloscaler_bakeoff.json")
    campaign["name"] = "e2e-bakeoff"
    campaign["base"].update(
        seed=seed,
        replications=6,
        duration=_scaled(240.0, scale),
        warmup=_scaled(30.0, scale),
        enable_at=_scaled(30.0, scale),
    )
    return campaign


def closed_loop_population(seed: int, scale: float) -> Dict[str, Any]:
    """8000 closed-loop clients on the synthetic chain, bounded queues
    that either drop or push back."""
    return {
        "name": "e2e-closed-loop",
        "base": {
            "workload": "synthetic",
            "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
            "policy": "none",
            "initial_allocation": "10:10:10",
            "duration": _scaled(30.0, scale),
            "warmup": _scaled(5.0, scale),
            "replications": 1,
            "seed": seed,
            "closed_loop": {
                "kind": "closed_loop",
                "clients": 8000,
                "think_time": 8.0,
            },
            "queue_limit": 64,
        },
        "axes": [
            {
                "name": "queue",
                "values": [
                    {"label": "drop", "set": {"backpressure": False}},
                    {"label": "backpressure", "set": {"backpressure": True}},
                ],
            }
        ],
    }


def hybrid_sweep(seed: int, scale: float) -> Dict[str, Any]:
    """An in-envelope fidelity grid answered by the analytic path:
    {single, linear} x rho x k x SCV, 2048 cells at scale 1."""
    ks = range(1, max(1, round(16 * scale)) + 1)
    rhos = [round(0.10 + 0.05 * i, 2) for i in range(max(1, round(16 * scale)))]
    shapes = [
        {
            "label": f"{topology}-k{k}",
            "set": {
                "workload_params.topology": topology,
                "workload_params.servers": k,
                "initial_allocation": str(k) if topology == "single" else f"{k}:{k}:{k}",
            },
        }
        for topology in ("single", "linear")
        for k in ks
    ]
    return {
        "name": "e2e-hybrid-sweep",
        "evaluation": "hybrid",
        "base": {
            "workload": "fidelity",
            "workload_params": {"mu": 1.0},
            "policy": "none",
            "queue_discipline": "shared",
            "duration": 2000.0,
            "warmup": 200.0,
            "timeline_bucket": 2000.0,
            "replications": 4,
            "seed": seed,
        },
        "axes": [
            {"name": "shape", "values": shapes},
            {"name": "rho", "field": "workload_params.rho", "values": rhos},
            {
                "name": "scv",
                "field": "workload_params.scv",
                "values": [0.5, 1.0, 1.5, 2.0],
            },
        ],
    }


def service_job(seed: int, scale: float, index: int) -> Dict[str, Any]:
    """One single-replication synthetic-chain job of ``service_jobs``."""
    return {
        "name": f"e2e-job-{index}",
        "workload": "synthetic",
        "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
        "policy": "none",
        "initial_allocation": "10:10:10",
        "duration": _scaled(60.0, scale),
        "warmup": _scaled(10.0, scale),
        "replications": 1,
        "seed": seed + index,
    }


#: Campaign workloads: spec builder, ``api.run_campaign`` arguments for
#: the cold run, and whether a fresh store starts in the segmented
#: layout (``api.open_store`` picks the layout from the directory).
CAMPAIGNS: Dict[str, Dict[str, Any]] = {
    "vld_static": {"build": vld_static, "run": {"workers": 1}, "segmented": False},
    "bakeoff_sharded": {"build": bakeoff_sharded, "run": {"shards": 2}, "segmented": True},
    "closed_loop_population": {
        "build": closed_loop_population,
        "run": {"workers": 1},
        "segmented": False,
    },
    "hybrid_sweep": {"build": hybrid_sweep, "run": {"workers": 1}, "segmented": True},
}

WORKLOADS = tuple(CAMPAIGNS) + ("service_jobs",)


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
class Ledger:
    """Operations attempted and failed, plus the checks behind them.

    The service workload's status poller records from its own thread.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def ops(self, attempted: int, failed: int = 0, error: str = "") -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if error:
                self.errors.append(error)

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, "" if ok else f"check failed: {what}")


def summary_row(label: str, path: str, summary) -> Dict[str, Any]:
    """One cell's summary in a canonical, digestible form."""
    reps = summary.replications
    return {
        "label": label,
        "path": path,
        "mean_sojourn": summary.mean_sojourn,
        "std_between": summary.std_between,
        "p95_sojourn": [r.p95_sojourn for r in reps],
        "external": summary.total_external,
        "completed": summary.total_completed,
        "dropped": sum(r.dropped_tuples for r in reps),
        "rebalances": summary.total_rebalances,
        "final_allocation": [r.final_allocation for r in reps],
    }


def canonical_rows(result) -> List[Dict[str, Any]]:
    """Per-cell summaries of a campaign result, in grid order."""
    return [summary_row(c.cell.label, c.path, c.summary) for c in result.cells]


def digest(rows: Any) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode("utf-8")
    ).hexdigest()


def aggregate_matches(aggregator, rows: List[Dict[str, Any]], replications: Dict[str, int]) -> bool:
    """``api.aggregate`` over a store agrees with the run's summaries:
    counts exactly, means to rounding (the aggregator sums in sorted
    order, the runner in replication order)."""
    table = {row["label"]: row for row in aggregator.rows()}
    if set(table) != {row["label"] for row in rows}:
        return False
    for row in rows:
        agg = table[row["label"]]
        if (
            agg["missing"] != 0
            or agg["replications"] != replications[row["label"]]
            or agg["total_external"] != row["external"]
            or agg["total_completed"] != row["completed"]
            or agg["total_dropped"] != row["dropped"]
            or agg["total_rebalances"] != row["rebalances"]
        ):
            return False
        a, b = agg["mean_sojourn"], row["mean_sojourn"]
        if (a is None) != (b is None):
            return False
        if a is not None and not math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0):
            return False
    return True


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fresh_dir(path: Path, *, segmented: bool = False) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    if segmented:
        (path / "segments").mkdir()
    return path


# ----------------------------------------------------------------------
# campaign workloads
# ----------------------------------------------------------------------
class CampaignBench:
    """Cold, warm and report rounds of one campaign workload."""

    def __init__(self, name: str, args, ledger: Ledger):
        from repro import api

        self.api = api
        self.name = name
        self.config = CAMPAIGNS[name]
        self.spec = api.load_campaign(self.config["build"](workload_seed(name, args.seed), args.scale))
        cells = self.spec.expand()
        self.cells = len(cells)
        self.replications = {c.label: c.spec.replications for c in cells}
        self.jobs = sum(self.replications.values())
        self.work = args.work
        self.min_round = ROUND_SHARE * args.seconds
        self.ledger = ledger
        self.rows: Optional[List[Dict[str, Any]]] = None
        self._rounds = 0

    def cold(self) -> Dict[str, Any]:
        """One run on an empty store; returns its wall time and store."""
        self._rounds += 1
        store = fresh_dir(self.work / f"cold-{self._rounds}", segmented=self.config["segmented"])
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.api.run_campaign(self.spec, store=str(store), **self.config["run"])
        except Exception as exc:  # counted, reported, and the run goes on
            self.ledger.ops(self.jobs, self.jobs, f"cold run: {type(exc).__name__}: {exc}")
            return {"wall": None, "store": store}
        wall = time.perf_counter() - start
        self.ledger.ops(result.computed)
        self.ledger.check(
            result.computed == self.jobs and result.reused == 0,
            f"cold run computed {result.computed}/{self.jobs}, reused {result.reused}",
        )
        rows = canonical_rows(result)
        if self.rows is None:
            self.rows = rows
        else:
            self.ledger.check(rows == self.rows, "cold rounds differ")
        return {"wall": wall, "store": store}

    def warm(self, store: Path, *, batch: bool = True) -> Optional[float]:
        """Resume over a complete store (serially, whatever the cold
        run used); returns cells per second."""

        def check(result) -> None:
            self.ledger.ops(result.reused)
            self.ledger.check(
                result.computed == 0 and result.reused == self.jobs,
                f"warm run computed {result.computed}, reused {result.reused}/{self.jobs}",
            )
            self.ledger.check(canonical_rows(result) == self.rows, "warm summaries differ from cold")

        return self._round(
            "warm run",
            lambda: self.api.run_campaign(self.spec, store=str(store), workers=1),
            check,
            self.jobs,
            batch,
        )

    def report(self, store: Path, *, batch: bool = True) -> Optional[float]:
        """``api.aggregate`` over a complete store; returns cells/s."""

        def check(aggregator) -> None:
            self.ledger.ops(self.cells)
            self.ledger.check(
                aggregate_matches(aggregator, self.rows, self.replications),
                "report aggregates differ from cold summaries",
            )

        return self._round(
            "report",
            lambda: self.api.aggregate(self.spec, str(store)),
            check,
            self.cells,
            batch,
        )

    def _round(self, what: str, one_pass, check, ops: int, batch: bool) -> Optional[float]:
        """Time ``one_pass`` (repeated for ``min_round`` seconds when
        batching) and check each result outside the timed region;
        returns cells per second."""
        gc.collect()
        elapsed = 0.0
        passes = 0
        while passes == 0 or (batch and elapsed < self.min_round):
            start = time.perf_counter()
            try:
                result = one_pass()
            except Exception as exc:  # counted, reported, and the run goes on
                self.ledger.ops(ops, ops, f"{what}: {type(exc).__name__}: {exc}")
                return None
            elapsed += time.perf_counter() - start
            passes += 1
            check(result)
        return passes * self.cells / elapsed


def measure_campaign(name: str, args, ledger: Ledger) -> Dict[str, Any]:
    bench = CampaignBench(name, args, ledger)
    metrics: Dict[str, Any] = {}
    if args.trace_dir is None:
        cold_walls: List[float] = []
        warm: List[float] = []
        report: List[float] = []
        # Each cycle is one cold round, one warm and one report round:
        # every phase's samples spread over the whole run, so a
        # transient slowdown of the host cannot hit all of one phase.
        deadline = time.perf_counter() + args.seconds
        store = None
        cycles = 0
        while cycles == 0 or time.perf_counter() < deadline:
            cycles += 1
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
            outcome = bench.cold()
            store = outcome["store"]
            if outcome["wall"] is None:
                continue
            cold_walls.append(outcome["wall"])
            warm.append(bench.warm(store))
            report.append(bench.report(store))
        warm = [rate for rate in warm if rate is not None]
        report = [rate for rate in report if rate is not None]
        metrics.update(
            cold_cells_per_s=bench.cells / min(cold_walls) if cold_walls else 0.0,
            warm_cells_per_s=max(warm, default=0.0),
            report_cells_per_s=max(report, default=0.0),
            latency_ms=1000.0 * min(cold_walls, default=0.0),
            rounds={"cold_s": cold_walls, "warm_cells_per_s": warm, "report_cells_per_s": report},
        )
    else:
        metrics.update(trace_campaign(bench, args))
    metrics["digest"] = digest(bench.rows)
    metrics["cells"] = bench.cells
    metrics["replications"] = bench.jobs
    return metrics


def trace_campaign(bench: CampaignBench, args) -> Dict[str, Any]:
    """A warm-up cycle, one untraced cycle, then the same cycle traced.

    The warm-up keeps first-run lazy set-up out of the untraced wall
    time that ``trace.overhead_ratio`` divides by.
    """
    import tracer as tracing

    for _ in range(2):
        untraced = bench.cold()
        bench.warm(untraced["store"], batch=False)
        bench.report(untraced["store"], batch=False)
        shutil.rmtree(untraced["store"], ignore_errors=True)

    tracer = tracing.Tracer(args.trace_dir)
    tracing.install(tracer)
    with tracer.span("bench.workload"):
        traced = bench.cold()
        bench.warm(traced["store"], batch=False)
        bench.report(traced["store"], batch=False)
    tracer.flush()

    workers = bench.config["run"].get("shards") or bench.config["run"].get("workers") or 1
    return layer_report(
        args.trace_dir,
        main_pid=os.getpid(),
        workers=workers,
        busy_window=traced["wall"],
        overhead=(traced["wall"] / untraced["wall"]) if traced["wall"] and untraced["wall"] else 0.0,
    )


# ----------------------------------------------------------------------
# per-layer report
# ----------------------------------------------------------------------
def layer_report(
    trace_dir: Path,
    *,
    main_pid: int,
    main_role: str = "main",
    workers: int,
    busy_window: Optional[float],
    overhead: float,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Every per-layer metric (0 where a layer does no work on this
    workload) from a trace directory; also writes ``layers.json`` and
    ``layers.md`` there."""
    import tracer as tracing

    trace = tracing.read_trace(trace_dir)
    merged = tracing.empty_stats()
    for process in trace["processes"].values():
        tracing.merge_stats(merged, process["timers"], process["counts"], process["gauges"])
    timers, counts, gauges = merged["timers"], merged["counts"], merged["gauges"]

    def calls(name):
        return timers.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return timers.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return timers.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    replication_ms = [
        1000.0 * (s["end"] - s["start"]) for s in trace["spans"] if s["name"] == "runner.replication"
    ]
    busy = total("runner.replication")
    capacity = workers * (busy_window or 0.0)
    values: Dict[str, float] = {
        "engine.events": counts.get("engine.events", 0),
        "engine.events_per_s": ratio(counts.get("engine.events", 0), total("engine.run_until")),
        "engine.self_s": own("engine.run_until"),
        "engine.peak_pending": gauges.get("engine.peak_pending", 0),
        "engine.peak_spilled": gauges.get("engine.peak_spilled", 0),
        "runtime.stats.s": total("runtime.stats"),
        "runtime.apply_allocation.calls": calls("runtime.apply_allocation"),
        "measurement.tick_self_s": own("runtime.tick"),
        "policy.actions_applied": counts.get("policy.actions_applied", 0),
        "runner.replication.p50_ms": percentile(replication_ms, 50),
        "runner.replication.p90_ms": percentile(replication_ms, 90),
        "runner.build_s": own("runner.replication"),
        "campaigns.runner.self_s": own("campaigns.runner.run"),
        "hybrid.decide.analytic_ratio": ratio(counts.get("hybrid.decide.analytic", 0), calls("hybrid.decide")),
        "store.put.bytes": counts.get("store.put.bytes", 0),
        "store.load_record.hit_ratio": ratio(counts.get("store.load_record.hits", 0), calls("store.load_record")),
        "store.refresh.s": total("store.refresh"),
        "executor.busy_ratio": ratio(busy, capacity),
        "executor.idle_s": max(0.0, capacity - busy),
        "executor.coordinator_s": own("campaigns.shard.run"),
        "closed_loop.issued": counts.get("closed_loop.issued", 0),
        "closed_loop.admission_rejected": counts.get("closed_loop.admission_rejected", 0),
        "closed_loop.blocked_s": counts.get("closed_loop.blocked_s", 0.0),
        "service.http.get_job.server_s": total("http.get_job"),
        "service.queue.s": total("service.queue"),
        "bench.self_s": own("bench.workload"),
        "trace.overhead_ratio": overhead,
    }
    for kind in ("spout", "hop", "finish", "tick", "client", "node"):
        values[f"runtime.{kind}.calls"] = calls(f"runtime.{kind}")
        values[f"runtime.{kind}.s"] = total(f"runtime.{kind}")
    for name in (
        "policy.observe",
        "scheduler.assign",
        "runner.replication",
        "spec.expand",
        "spec.hash",
        "hybrid.decide",
        "hybrid.evaluate",
        "store.put",
        "store.load_record",
        "store.open",
        "aggregate.from_store",
        "aggregate.summarize",
    ):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.s"] = total(name)

    # Self times of the measuring process add up to its root frames.
    main = trace["processes"].get(main_pid, {"timers": {}, "counts": {}})
    root = main["counts"].get(tracing.ROOT_COUNT, 0.0)
    attributed = sum(t[2] for t in main["timers"].values())
    values["trace.self_sum_ratio"] = ratio(attributed, root)
    values.update(service if service is not None else service_layers([]))

    layers: Dict[str, Dict[str, float]] = {}
    for pid, process in sorted(trace["processes"].items()):
        role = main_role if pid == main_pid else f"pid-{pid}"
        layers[role] = tracing.layer_self_times(process["timers"])
    report = {
        "root_s": root,
        "self_s_by_layer": layers,
        "timers": timers,
        "counts": counts,
        "gauges": gauges,
        "metrics": dict(sorted(values.items())),
        "span_errors": tracing.span_tree_errors(trace["spans"]),
    }
    Path(trace_dir, "layers.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    Path(trace_dir, "layers.md").write_text(render_layers(layers, main_role, root))
    return {"layers": report["metrics"], "span_errors": report["span_errors"], "self_s_by_layer": layers, "root_s": root}


def render_layers(layers: Dict[str, Dict[str, float]], main_role: str, root: float) -> str:
    """A Markdown table of self time per layer and process."""
    lines = []
    for role, table in layers.items():
        total = sum(table.values())
        base = root if role == main_role and root else total
        lines.append(f"### {role} (self time sums to {total:.3f} s)\n")
        lines.append("| layer | self s | share |")
        lines.append("|---|---:|---:|")
        for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            share = seconds / base if base else 0.0
            lines.append(f"| {layer} | {seconds:.3f} | {100 * share:.1f}% |")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
#: Open-loop submission rate of ``service_jobs`` (jobs per second).
OPEN_LOOP_RATE = 12.0
#: Status polls run on this fixed period during the open-loop phase.
STATUS_PERIOD_S = 0.02
#: Jobs compared one by one against ``api.run_scenario``.
SAMPLE_JOBS = 5
#: Cycles per run.  A cycle starts a server on a fresh store, runs an
#: open-loop segment, a saturation burst, the same jobs resubmitted
#: (warm) and their aggregates fetched (report).  Every cycle submits
#: the same jobs: the store grows with each job (one segment each, all
#: re-read on every status request), so only identical cycles compare.
CYCLES = 4


class Server:
    """``repro serve`` (or the traced variant) as a child process."""

    def __init__(self, store: Path, trace_dir: Optional[Path]):
        serve = ["--store", str(store), "--port", "0", "--job-workers", "1", "--workers", "1"]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_dir), *serve]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            self.url = wait_listening(self.proc, timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def wait_listening(proc: subprocess.Popen, timeout: float) -> str:
    """The URL ``repro serve`` announces on its first output line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.05)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        if proc.poll() is not None:
            break
    raise RuntimeError("repro serve did not announce its address")


def wait_health(url: str, timeout: float) -> None:
    """Block until ``GET /health`` answers 200."""
    import urllib.error
    import urllib.request

    deadline = time.monotonic() + timeout
    while True:
        try:
            with urllib.request.urlopen(url + "/health", timeout=5.0) as response:
                if response.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("service never became healthy")
        time.sleep(0.002)


class ServiceBench:
    """Drives one server through open-loop, burst, warm and report phases."""

    def __init__(self, client, seed: int, scale: float, ledger: Ledger):
        self.client = client
        self.seed = seed
        self.scale = scale
        self.ledger = ledger
        self.jobs: Dict[str, Dict[str, Any]] = {}

    def _submit(self, index: int) -> Optional[str]:
        try:
            job = self.client.submit(scenario=service_job(self.seed, self.scale, index))
        except Exception as exc:
            self.ledger.ops(1, 1, f"submit: {exc}")
            return None
        self.ledger.ops(1)
        return job["id"]

    def _drain(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            counts = self.client.health()["jobs"]
            self.ledger.ops(1)
            if counts["queued"] + counts["running"] == 0:
                return
            if time.monotonic() > deadline:
                raise RuntimeError("jobs did not drain")
            time.sleep(0.02)

    def _records(self, ids: List[str]) -> List[Dict[str, Any]]:
        self.jobs.update({job["id"]: job for job in self.client.jobs()})
        self.ledger.ops(1)
        records = []
        for job_id in ids:
            job = self.jobs.get(job_id)
            ok = job is not None and job["state"] == "done"
            self.ledger.ops(1, 0 if ok else 1, "" if ok else f"job {job_id} not done")
            if ok:
                records.append(job)
        return records

    def open_loop(self, indices: List[int]) -> Dict[str, Any]:
        """One job due every 1/rate s; status polls alongside."""
        ids: List[Optional[str]] = []
        due: List[float] = []
        lateness: List[float] = []
        post_ms: List[float] = []
        status_ms: List[float] = []
        done = threading.Event()
        current: List[str] = []

        def poll():
            from repro.service import ServiceError

            tick = time.monotonic()
            while not done.is_set():
                tick += STATUS_PERIOD_S
                pause = tick - time.monotonic()
                if pause > 0:
                    done.wait(pause)
                if done.is_set() or not current:
                    continue
                start = time.perf_counter()
                try:
                    self.client.job(current[-1])
                except ServiceError as exc:
                    self.ledger.ops(1, 1, f"status poll: {exc}")
                    continue
                status_ms.append(1000.0 * (time.perf_counter() - start))
                self.ledger.ops(1)

        poller = threading.Thread(target=poll, name="status-poller")
        poller.start()
        try:
            start = time.time()
            for position, index in enumerate(indices):
                when = start + position / OPEN_LOOP_RATE
                pause = when - time.time()
                if pause > 0:
                    time.sleep(pause)
                sent = time.time()
                job_id = self._submit(index)
                post_ms.append(1000.0 * (time.time() - sent))
                lateness.append(1000.0 * (sent - when))
                due.append(when)
                ids.append(job_id)
                if job_id is not None:
                    current.append(job_id)
            self._drain()
        finally:
            done.set()
            poller.join(timeout=30.0)
        latency, queue_wait, run = [], [], []
        kept = [i for i in ids if i is not None]
        for job in self._records(kept):
            latency.append(1000.0 * (job["finished_at"] - due[ids.index(job["id"])]))
            queue_wait.append(1000.0 * (job["started_at"] - job["submitted_at"]))
            run.append(1000.0 * (job["finished_at"] - job["started_at"]))
        return {
            "ids": kept,
            "latency_ms": latency,
            "queue_wait_ms": queue_wait,
            "run_ms": run,
            "post_ms": post_ms,
            "status_ms": status_ms,
            "lateness_ms": lateness,
        }

    def burst(self, indices: List[int]) -> Dict[str, Any]:
        """Submit every job at once; jobs per second until the last ends."""
        start = time.time()
        ids = [job_id for job_id in (self._submit(i) for i in indices) if job_id]
        self._drain()
        records = self._records(ids)
        end = max((job["finished_at"] for job in records), default=start)
        return {
            "ids": ids,
            "records": records,
            "rate": len(records) / (end - start) if end > start else 0.0,
            "wall": end - start,
        }

    def report(self, ids: List[str]) -> float:
        """``GET /jobs/<id>/aggregates`` for each job; requests per second."""
        from repro.service import ServiceError

        elapsed = 0.0
        for job_id in ids:
            start = time.perf_counter()
            try:
                aggregate = self.client.aggregates(job_id)
            except ServiceError as exc:
                self.ledger.ops(1, 1, f"aggregates: {exc}")
                continue
            elapsed += time.perf_counter() - start
            self.ledger.ops(1)
            cells = aggregate.get("cells", [])
            self.ledger.check(
                len(cells) == 1 and cells[0]["replications"] == 1 and cells[0]["missing"] == 0,
                f"aggregates of {job_id}",
            )
        return len(ids) / elapsed if elapsed > 0 else 0.0


def service_cycle(args, seconds: float, store: Path, trace_dir: Optional[Path], ledger: Ledger):
    """One server on a fresh store through every ``service_jobs`` phase."""
    from repro.service import ServiceClient

    seed = workload_seed("service_jobs", args.seed)
    n_open = max(SAMPLE_JOBS, round(OPEN_LOOP_RATE * 0.1 * seconds))
    size = max(2, round(2.0 * seconds))
    batch = list(range(n_open, n_open + size))
    fresh_dir(store, segmented=True)
    started = time.time()
    server = Server(store, trace_dir)
    try:
        client = ServiceClient(server.url, timeout=60.0)
        wait_health(server.url, 60.0)
        bench = ServiceBench(client, seed, args.scale, ledger)
        opened = bench.open_loop(list(range(n_open)))
        cold = bench.burst(batch)
        warm = bench.burst(batch)
        report = bench.report(cold["ids"])
        sample = [bench.jobs[i] for i in opened["ids"][:SAMPLE_JOBS] if i in bench.jobs]
    finally:
        server.stop()
    means = {j["id"]: j["result"]["cells"][0]["mean_sojourn"] for j in cold["records"]}
    for job in warm["records"]:
        result = job["result"]
        ledger.check(
            result["computed"] == 0
            and result["reused"] == 1
            and result["cells"][0]["mean_sojourn"] == means.get(job["id"]),
            f"warm job {job['id']} recomputed or changed",
        )
    return {
        "open": opened,
        "cold": cold,
        "warm": warm,
        "report": report,
        "means": means,
        "sample": sample,
        "pid": server.proc.pid,
        "wall": time.time() - started,
    }


def check_sample(args, sample: List[Dict[str, Any]], ledger: Ledger) -> str:
    """The first jobs agree exactly with ``api.run_scenario``; returns
    the digest of their canonical summaries."""
    from repro import api

    seed = workload_seed("service_jobs", args.seed)
    rows = []
    for index, job in enumerate(sample):
        summary = api.run_scenario(service_job(seed, args.scale, index), workers=1)
        cell = job["result"]["cells"][0]
        ledger.check(
            cell["mean_sojourn"] == summary.mean_sojourn and cell["std_between"] == summary.std_between,
            f"service job {index} differs from api.run_scenario",
        )
        rows.append(summary_row(cell["label"], cell["path"], summary))
    return digest(rows)


def service_layers(cycles: List[Dict[str, Any]]) -> Dict[str, float]:
    """Client-side service metrics pooled over the open-loop segments of
    ``cycles`` (zeros for none)."""
    pooled: Dict[str, List[float]] = {
        key: [] for key in ("queue_wait_ms", "run_ms", "latency_ms", "post_ms", "status_ms", "lateness_ms")
    }
    for cycle in cycles:
        for key, values in pooled.items():
            values.extend(cycle["open"][key])
    return {
        "service.queue_wait_p50_ms": percentile(pooled["queue_wait_ms"], 50),
        "service.queue_wait_p95_ms": percentile(pooled["queue_wait_ms"], 95),
        "service.run_p50_ms": percentile(pooled["run_ms"], 50),
        "service.job_p90_ms": percentile(pooled["latency_ms"], 90),
        "service.http.post_jobs.p50_ms": percentile(pooled["post_ms"], 50),
        "service.http.get_job.p50_ms": percentile(pooled["status_ms"], 50),
        "service.http.get_job.p95_ms": percentile(pooled["status_ms"], 95),
        "service.generator.lag_p99_ms": percentile(pooled["lateness_ms"], 99),
    }


def measure_service(args, ledger: Ledger) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    if args.trace_dir is None:
        cycles = [
            service_cycle(args, args.seconds, args.work / f"store-{k}", None, ledger)
            for k in range(CYCLES)
        ]
        for cycle in cycles[1:]:
            ledger.check(cycle["means"] == cycles[0]["means"], "a fresh server computed different results")
        metrics.update(
            cold_cells_per_s=max(c["cold"]["rate"] for c in cycles),
            warm_cells_per_s=max(c["warm"]["rate"] for c in cycles),
            report_cells_per_s=max(c["report"] for c in cycles),
            latency_ms=min(percentile(c["open"]["latency_ms"], 50) for c in cycles),
            rounds={
                "cold_cells_per_s": [c["cold"]["rate"] for c in cycles],
                "warm_cells_per_s": [c["warm"]["rate"] for c in cycles],
                "report_cells_per_s": [c["report"] for c in cycles],
                "latency_p50_ms": [percentile(c["open"]["latency_ms"], 50) for c in cycles],
                "jobs": [len(c["open"]["latency_ms"]) for c in cycles],
            },
            service=service_layers(cycles),
        )
    else:
        # A warm-up cycle, an untraced cycle, then the traced one.
        for name in ("store-warmup", "store-untraced"):
            untraced = service_cycle(args, args.seconds, args.work / name, None, ledger)
        traced = service_cycle(args, args.seconds, args.work / "store-traced", args.trace_dir, ledger)
        cycles = [traced]
        metrics.update(
            layer_report(
                args.trace_dir,
                main_pid=traced["pid"],
                main_role="server",
                workers=1,
                busy_window=traced["wall"],
                overhead=traced["cold"]["wall"] / untraced["cold"]["wall"] if untraced["cold"]["wall"] else 0.0,
                service=service_layers(cycles),
            )
        )
    lag = service_layers(cycles)["service.generator.lag_p99_ms"]
    metrics["valid"] = lag <= 20.0
    if not metrics["valid"]:
        print(f"warning: generator p99 lateness {lag:.1f} ms > 20 ms; run invalid", file=sys.stderr)
    metrics["digest"] = check_sample(args, cycles[0]["sample"], ledger)
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def setup_only(args) -> None:
    """Imports, spec load and store open; then announce readiness."""
    from repro import api

    if args.workload in CAMPAIGNS:
        builder = CAMPAIGNS[args.workload]["build"]
        api.load_campaign(builder(workload_seed(args.workload, args.seed), args.scale))
    else:
        api.load_scenario(service_job(workload_seed(args.workload, args.seed), args.scale, 0))
    segmented = CAMPAIGNS.get(args.workload, {"segmented": True})["segmented"]
    api.open_store(fresh_dir(args.work, segmented=segmented))
    print("ready", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measure one e2e workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    ledger = Ledger()
    started = time.perf_counter()
    if args.workload in CAMPAIGNS:
        metrics = measure_campaign(args.workload, args, ledger)
    else:
        metrics = measure_service(args, ledger)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["wall_s"] = time.perf_counter() - started
    outcome = {
        "workload": args.workload,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors[:20],
        "metrics": metrics,
    }
    args.result.write_text(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
