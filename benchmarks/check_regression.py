"""Gate hot-path throughput against a committed baseline.

Compares a fresh ``bench_runtime_hotpath.py`` (or ``bench_hybrid.py``)
result against ``benchmarks/BENCH_RUNTIME_baseline.json`` and fails
(exit 1) when any tracked metric regressed by more than the threshold
(default 25%, per ISSUE 2's CI smoke criterion).  Rows absent from the
baseline *or* from the current results file are skipped with a warning,
so each benchmark gates only its own sections against the one shared
baseline.

Raw events/sec are not comparable across machines, so each metric is
first normalised by the run's ``calibration_ops_per_sec`` (a fixed
pure-Python workload timed inside the benchmark).  The comparison is
therefore "events per unit of host compute", which cancels interpreter
and hardware speed and leaves only real code regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime_hotpath.py \
        --out BENCH_RUNTIME.json --scale 0.25
    python benchmarks/check_regression.py BENCH_RUNTIME.json \
        [--baseline benchmarks/BENCH_RUNTIME_baseline.json] \
        [--threshold 0.25]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE = pathlib.Path(__file__).parent / "BENCH_RUNTIME_baseline.json"

#: (section, case, metric) triples gated by the check.  A baseline
#: predating a row (e.g. the v2 ``fanout`` / ``drain_heap`` rows) skips
#: it with a warning instead of failing, so schema bumps are
#: non-breaking.
TRACKED = [
    ("simulator", "linear", "events_per_sec"),
    # The platform_off baseline is a copy of pre-platform linear: the
    # row bounds what the platform path costs on a platform that
    # changes no outcome (CI gates it at a tighter threshold).
    ("simulator", "platform_off", "events_per_sec"),
    ("simulator", "diamond", "events_per_sec"),
    ("simulator", "loop", "events_per_sec"),
    ("simulator", "fanout", "events_per_sec"),
    ("simulator", "drain_heap", "events_per_sec"),
    ("solver", "assign_k200", "solves_per_sec"),
    ("solver", "assign_k200_cold", "solves_per_sec"),
    ("solver", "min_resources", "solves_per_sec"),
    # ``bench_hybrid.py`` rows (ISSUE 7).  They live in the same
    # baseline file but come from a separate results file, so a
    # hotpath-only BENCH_RUNTIME.json skips them (and BENCH_HYBRID.json
    # skips the simulator/solver rows) via the current-absent check.
    ("hybrid", "analytic_grid", "cells_per_sec"),
    ("hybrid", "hybrid_grid", "cells_per_sec"),
    ("hybrid", "simulated_grid", "cells_per_sec"),
]


def normalised(result: dict, section: str, case: str, metric: str) -> float:
    value = result[section][case][metric]
    calibration = result["calibration_ops_per_sec"]
    if not value or not calibration:
        raise SystemExit(f"missing {section}/{case}/{metric} or calibration")
    return value / calibration


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_RUNTIME.json to check")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (0.25 = 25%%)",
    )
    parser.add_argument(
        "--cases",
        default=None,
        help=(
            "comma-separated 'section/case' filters limiting the check"
            " to a subset of the tracked rows (e.g."
            " 'simulator/platform_off'); unknown filters fail loudly"
        ),
    )
    parser.add_argument(
        "--relative-to",
        default=None,
        metavar="SECTION/CASE",
        help=(
            "divide every checked metric by this row's metric from the"
            " *same* results file before comparing.  Host noise moves"
            " both rows together and cancels, leaving only the checked"
            " rows' drift relative to the reference — e.g. gating"
            " simulator/platform_off relative to simulator/linear"
            " isolates the platform path's overhead, because the"
            " committed platform_off baseline is a copy of pre-platform"
            " linear (baseline ratio 1.0)."
        ),
    )
    args = parser.parse_args(argv)

    tracked = TRACKED
    if args.cases is not None:
        wanted = {entry.strip() for entry in args.cases.split(",") if entry.strip()}
        known = {f"{section}/{case}" for section, case, _ in TRACKED}
        unknown = wanted - known
        if unknown:
            raise SystemExit(
                f"--cases names untracked rows: {sorted(unknown)};"
                f" tracked: {sorted(known)}"
            )
        tracked = [
            row for row in TRACKED if f"{row[0]}/{row[1]}" in wanted
        ]

    current = json.loads(pathlib.Path(args.current).read_text())
    baseline = json.loads(pathlib.Path(args.baseline).read_text())

    reference = None
    if args.relative_to is not None:
        try:
            ref_section, ref_case = args.relative_to.split("/", 1)
        except ValueError:
            raise SystemExit(
                f"--relative-to must be SECTION/CASE, got {args.relative_to!r}"
            )
        ref_metric = next(
            (m for s, c, m in TRACKED if (s, c) == (ref_section, ref_case)),
            None,
        )
        if ref_metric is None:
            raise SystemExit(
                f"--relative-to names an untracked row: {args.relative_to!r}"
            )
        reference = (ref_section, ref_case, ref_metric)

    failures = []
    for section, case, metric in tracked:
        if case not in baseline.get(section, {}):
            print(f"{section}/{case}: not in baseline, skipped [warn]")
            continue
        if case not in current.get(section, {}):
            print(f"{section}/{case}: not in current run, skipped [warn]")
            continue
        base = normalised(baseline, section, case, metric)
        now = normalised(current, section, case, metric)
        if reference is not None:
            base /= normalised(baseline, *reference)
            now /= normalised(current, *reference)
        change = now / base - 1.0
        status = "ok"
        if change < -args.threshold:
            status = "REGRESSION"
            failures.append(f"{section}/{case}")
        print(
            f"{section}/{case}: {change:+.1%} vs baseline"
            f" (normalised {now:.3f} vs {base:.3f}) [{status}]"
        )
    if failures:
        print(
            f"FAIL: >{args.threshold:.0%} regression in: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("hot-path throughput within tolerance of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
