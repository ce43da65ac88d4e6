"""Smoke test of the end-to-end benchmark.

Runs every workload at ``--scale 0.02`` and one traced workload, then
checks the output format: every ``BENCHMARK.json`` metric is printed
with its unit, nothing fails, the spans form a tree and the self times
of the measuring process add up to its root.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--scale", "0.02", "--seconds", "0.3", "--setup-runs", "1"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracer", HERE / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *SMOKE, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _metric_lines(stdout: str):
    lines = stdout.strip().splitlines()
    return [line.split() for line in lines[:-1]], json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    work = tmp_path_factory.mktemp("e2e")
    proc = _run("--store-root", str(work / "stores"), "--out", str(work / "out.json"))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads((work / "out.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("e2e-trace")
    proc = _run(
        "--workload", "bakeoff_sharded", "--trace", "1",
        "--trace-dir", str(work / "trace"), "--store-root", str(work / "stores"),
    )
    assert proc.returncode == 0, proc.stderr
    return proc, work / "trace" / "bakeoff_sharded"


def test_every_metric_printed_with_its_unit(untraced):
    proc, _ = untraced
    rows, final = _metric_lines(proc.stdout)
    printed = {(w, name): unit for w, name, _, unit in rows}
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            assert printed.get((workload["name"], metric["name"])) == metric["unit"]
    for key, entry in final["metrics"].items():
        workload, name = key.split(".", 1)
        assert entry["unit"] == printed[(workload, name)]
        assert entry["value"] > 0, key


def test_no_operation_fails(untraced):
    proc, out = untraced
    rows, final = _metric_lines(proc.stdout)
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] > 0
    rates = {w: float(v) for w, name, v, _ in rows if name == "error_rate"}
    assert set(rates) == {w["name"] for w in SPEC["workloads"]}
    assert all(rate == 0.0 for rate in rates.values())
    for result in out["results"].values():
        assert result["errors"] == [] and result["failed"] == 0


def test_traced_run_reports_every_layer_metric(traced):
    proc, _ = traced
    rows, final = _metric_lines(proc.stdout)
    assert final["correct"] is True
    names = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(final["metrics"]) == names
    printed = {name for _, name, _, _ in rows}
    assert names <= printed


def test_spans_form_a_tree(traced):
    _, trace_dir = traced
    tracer = _load_tracer()
    trace = tracer.read_trace(trace_dir)
    spans = trace["spans"]
    assert any(s["name"] == "bench.workload" for s in spans)
    # Shard workers are forked: their replication spans hang under the
    # coordinator's spans from another process.
    assert len({s["pid"] for s in spans}) > 1
    assert tracer.span_tree_errors(spans) == []


def test_self_times_add_up_to_the_root(traced):
    _, trace_dir = traced
    tracer = _load_tracer()
    trace = tracer.read_trace(trace_dir)
    root = next(s for s in trace["spans"] if s["name"] == "bench.workload")
    main = trace["processes"][root["pid"]]
    own = [timer[2] for timer in main["timers"].values()]
    assert min(own) >= -1e-9
    root_s = root["end"] - root["start"]
    assert abs(sum(own) - root_s) <= 0.05 * root_s
