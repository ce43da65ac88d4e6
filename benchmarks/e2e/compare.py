"""Compare two sets of end-to-end benchmark runs.

    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` result.  For every (workload, metric)
pair with a bound in ``BENCHMARK.json`` the table shows, per set, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``; then the change of B's median against
A's, and whether it stays within the bound.  With a single set it
prints the spreads only.  Exits 1 when a pair disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values``, one value per run file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        results = json.loads(Path(path).read_text())["results"]
        for workload, result in results.items():
            for name, value in result["metrics"].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    values.setdefault((workload, name), []).append(float(value))
    return values


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: Sequence[str]) -> int:
    if "--" in argv:
        split = list(argv).index("--")
        set_a, set_b = list(argv[:split]), list(argv[split + 1 :])
    else:
        set_a, set_b = list(argv), []
    if not set_a:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
    a = load(set_a)
    b = load(set_b) if set_b else {}
    workloads = sorted({w for w, _ in a})
    header = f"{'workload':24} {'metric':20} {'median A':>11} {'q1..q3 A':>23} {'spread':>7}"
    if b:
        header += f" {'median B':>11} {'q1..q3 B':>23} {'spread':>7} {'change':>8} {'bound':>6}  verdict"
    print(header)
    disagree = 0
    for workload in workloads:
        for name, bound in metrics:
            key = (workload, name)
            if key not in a:
                continue
            ma, qa1, qa3, sa = summary(a[key])
            row = f"{workload:24} {name:20} {ma:11.5g} {qa1:11.5g}..{qa3:<10.5g} {sa:7.1%}"
            if b and key in b:
                mb, qb1, qb3, sb = summary(b[key])
                change = (mb - ma) / ma if ma else 0.0
                ok = abs(change) < bound
                disagree += not ok
                row += (
                    f" {mb:11.5g} {qb1:11.5g}..{qb3:<10.5g} {sb:7.1%}"
                    f" {change:+8.1%} {bound:6.0%}  {'agree' if ok else 'DISAGREE'}"
                )
            print(row)
    runs_a = min(len(values) for values in a.values())
    if b:
        runs_b = min(len(values) for values in b.values())
        print(f"\n{runs_a} runs per workload in A, {runs_b} in B; {disagree} pair(s) outside the bound")
    else:
        print(f"\n{runs_a} runs per workload")
    return 1 if disagree else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
