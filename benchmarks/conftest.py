"""Shared benchmark configuration.

The figure/table benchmarks run the full (scaled) experiment once per
benchmark round and print the paper-style rows, so `pytest benchmarks/
--benchmark-only -s` both times the reproduction and shows its output.

Environment knobs:

- ``DRS_BENCH_FULL=1`` runs paper-length protocols (10-minute Fig. 6
  runs, 27-minute Fig. 9/10 timelines).  Default is a scaled protocol
  that preserves every qualitative result.
"""

import os
import time

import pytest


def full_scale() -> bool:
    return os.environ.get("DRS_BENCH_FULL", "0") == "1"


def timed_pedantic(benchmark, fn, *, rounds: int = 1):
    """``benchmark.pedantic(fn)``; returns ``(result, mean seconds per call)``.

    Under ``--benchmark-disable`` pedantic calls ``fn`` once and records
    no stats, so the mean is that call's wall time; either way the
    caller's correctness asserts run.
    """
    started = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=rounds, iterations=1)
    elapsed = time.perf_counter() - started
    if benchmark.stats is None:
        return result, elapsed
    return result, benchmark.stats.stats.mean


@pytest.fixture(scope="session")
def bench_scale():
    """(duration_factor) applied to experiment durations."""
    return 1.0 if not full_scale() else 2.0
