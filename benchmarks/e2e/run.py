"""End-to-end benchmark: campaigns and service jobs, as users run them.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload hybrid_sweep --seed 7 \\
        --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --trace 1 --trace-dir traces/

Each workload runs in its own fresh process (``workloads.py``), after
``--setup-runs`` separate spawns that only time start-up.  Every metric
is printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  ``--out`` writes everything measured as JSON.

Stores (and traces, unless ``--trace-dir`` says otherwise) live in a
per-run directory under ``--store-root`` (default: ``.e2e_work`` in
the checkout), removed when the run ends.  The process exits 2 without
a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Server, fresh_dir, wait_health  # noqa: E402

#: Seed whose per-cell digests ``reference.json`` records.
DEFAULT_SEED = 2015
REFERENCE = HERE / "reference.json"

#: A workload's measuring process is killed after this many seconds.
CHILD_TIMEOUT_S = 150.0
#: One start-up probe is abandoned after this many seconds.
SETUP_TIMEOUT_S = 30.0


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on ``PYTHONPATH`` for every
    process this one starts."""
    current = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + current if current else "")


def _stop(proc: subprocess.Popen, *, group: bool = False) -> None:
    """Terminate ``proc`` (with ``group``, its whole process group, so
    a server it started cannot outlive it) and wait for it."""
    if proc.poll() is None:
        if group:
            os.killpg(proc.pid, signal.SIGTERM)
        else:
            proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            if group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            proc.wait()


def setup_seconds(workload: str, seed: int, scale: float, store: Path) -> float:
    """Spawn to ready: imports, spec load and store open.  For the
    service, ready is the first 200 from ``GET /health``."""
    start = time.perf_counter()
    if workload == "service_jobs":
        server = Server(fresh_dir(store, segmented=True), None)
        try:
            wait_health(server.url, SETUP_TIMEOUT_S)
            return time.perf_counter() - start
        finally:
            server.stop()
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--scale", str(scale), "--work", str(store),
        "--setup-only",
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        if not ready or proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"{workload} set-up failed")
        return time.perf_counter() - start
    finally:
        _stop(proc)
        proc.stdout.close()


def run_workload(workload: str, args, work: Path) -> Dict[str, Any]:
    """Set-up probes, then the measuring process; its result dict."""
    setups = [
        setup_seconds(workload, args.seed, args.scale, work / f"setup-{i}")
        for i in range(args.setup_runs)
    ]
    result_file = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale), "--work", str(work / "run"),
        "--result", str(result_file),
    ]
    if args.trace:
        trace_dir = args.trace_dir / workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        _stop(proc, group=True)
    if code != 0 or not result_file.exists():
        raise RuntimeError(f"{workload}: measuring process exited with {code}")
    result = json.loads(result_file.read_text())
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["setup_runs_s"] = setups
    return result


def metric_table(traced: bool) -> List[Tuple[str, str]]:
    """``(name, unit)`` of the metrics ``BENCHMARK.json`` lists for an
    untraced (end-to-end) or traced (per-layer) run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]


def metric_lines(workload: str, result: Dict[str, Any], traced: bool) -> List[str]:
    metrics = result["metrics"]
    if traced:
        rows = [(name, metrics["layers"][name], unit) for name, unit in metric_table(True)]
    else:
        rows = [(name, metrics[name], unit) for name, unit in metric_table(False)]
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    rows.append(("error_rate", rate, "ratio"))
    return [f"{workload} {name} {value:.6g} {unit}" for name, value, unit in rows]


def final_metrics(results: Dict[str, Dict[str, Any]], traced: bool) -> Dict[str, Any]:
    """The final line's ``metrics``: end-to-end or per-layer, keyed by
    metric name for one workload, by ``workload.metric`` for several."""
    table = metric_table(traced)
    out: Dict[str, Any] = {}
    for workload, result in results.items():
        source = result["metrics"]["layers"] if traced else result["metrics"]
        for name, unit in table:
            key = name if len(results) == 1 else f"{workload}.{name}"
            out[key] = {"value": source[name], "unit": unit}
    return out


def check_reference(workload: str, result: Dict[str, Any]) -> None:
    """Count the digest comparison against ``reference.json`` as one
    more checked operation of ``workload``."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    expected = reference.get(workload)
    actual = result["metrics"]["digest"]
    result["attempted"] += 1
    if actual != expected:
        result["failed"] += 1
        result["errors"].append(f"digest {actual[:12]} != reference {str(expected)[:12]}")


def regenerate_reference(results: Dict[str, Dict[str, Any]]) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload, result in results.items():
        reference[workload] = result["metrics"]["digest"]
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and report per-layer metrics")
    parser.add_argument("--trace-dir", type=Path,
                        help="where traces go (default: under --store-root, removed)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink simulated work (the smoke test uses 0.02)")
    parser.add_argument("--setup-runs", type=int, default=3)
    parser.add_argument("--store-root", type=Path, default=ROOT / ".e2e_work")
    parser.add_argument("--out", type=Path, help="write every measurement here as JSON")
    parser.add_argument("--regen-reference", action="store_true",
                        help=f"record this run's digests in reference.json (seed {DEFAULT_SEED}, scale 1)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    use_checkout_src()
    if args.regen_reference and (args.seed != DEFAULT_SEED or args.scale != 1.0):
        print(f"error: --regen-reference needs --seed {DEFAULT_SEED} and --scale 1", file=sys.stderr)
        return 2
    work_root = args.store_root.resolve() / f"run-{os.getpid()}"
    if args.trace and args.trace_dir is None:
        args.trace_dir = work_root / "trace"
    workloads = args.workload or list(WORKLOADS)
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for workload in workloads:
            result = run_workload(workload, args, work_root / workload)
            if args.seed == DEFAULT_SEED and args.scale == 1.0 and not args.regen_reference:
                check_reference(workload, result)
            results[workload] = result
            for line in metric_lines(workload, result, bool(args.trace)):
                print(line, flush=True)
            for error in result["errors"]:
                print(f"{workload}: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            args.store_root.rmdir()
        except OSError:
            pass

    if args.regen_reference:
        regenerate_reference(results)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
             "trace": args.trace, "results": results},
            indent=2, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0 and all(not r["errors"] for r in results.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": final_metrics(results, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
