"""Table II — computation overheads of the DRS layer.

The paper times the whole DRS module — (a) "Scheduling": computing the
optimal allocation, and (b) "Measurement": processing the measurement
results — on the 3-operator VLD topology with all rates fixed, for
``Kmax`` in {12, 24, 48, 96, 192}, averaging 100,000 runs.  Findings:
scheduling cost grows linearly with ``Kmax`` (0.083 -> 1.250 ms);
measurement processing is flat (0.100 ms) because it depends on the
task count, not ``Kmax``.

This module reproduces the measurement with wall-clock timing of our
implementations, expressed as an ``"overhead"``-kind scenario spec
whose timing loop (:func:`overhead_summary`) the campaign runner
imports lazily.  Absolute numbers depend on the host; the assertions
in the test suite check the *shape* (monotone growth ~linear in Kmax,
Kmax-independent measurement cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.apps.vld import VLDWorkload
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.config import MeasurementConfig
from repro.measurement.measurer import Measurer
from repro.model.performance import PerformanceModel
from repro.scenarios.runner import ScenarioSummary, summarize_replications
from repro.scenarios.spec import ScenarioSpec
from repro.scheduler.assign import assign_processors


#: The paper's Kmax sweep.
KMAX_VALUES = [12, 24, 48, 96, 192]


@dataclass(frozen=True)
class OverheadRow:
    """One column of Table II."""

    kmax: int
    scheduling_ms: float
    measurement_ms: float


@dataclass(frozen=True)
class Table2Result:
    """The full table."""

    rows: List[OverheadRow]

    def scheduling_is_increasing(self) -> bool:
        values = [r.scheduling_ms for r in self.rows]
        return all(a < b for a, b in zip(values, values[1:]))

    def measurement_is_flat(self, *, tolerance: float = 3.0) -> bool:
        """Max/min ratio of measurement costs stays within ``tolerance``."""
        values = [r.measurement_ms for r in self.rows]
        return max(values) <= tolerance * max(min(values), 1e-9)


def reference_model() -> PerformanceModel:
    """The 3-operator VLD-shaped model used across all Kmax values.

    The paper fixes lambda_0, lambda_i, mu_i and varies only Kmax (down
    to 12), so the offered loads here are lighter than the full VLD
    calibration (whose stability floor is 17 executors).
    """
    return PerformanceModel.from_measurements(
        names=VLDWorkload().operator_names,
        arrival_rates=[13.0, 130.0, 39.0],
        service_rates=[4.0, 40.0, 300.0],
        external_rate=13.0,
    )


def time_scheduling(model: PerformanceModel, kmax: int, repetitions: int) -> float:
    """Mean wall-clock cost (ms) of one Algorithm-1 run at ``kmax``."""
    started = time.perf_counter()
    for _ in range(repetitions):
        assign_processors(model, kmax)
    return (time.perf_counter() - started) / repetitions * 1000.0


def time_measurement(repetitions: int, *, tuples_per_interval: int = 200) -> float:
    """Cost of one measurer pull over a fixed task count (Kmax-free)."""
    workload = VLDWorkload()
    names = workload.operator_names
    measurer = Measurer(names, MeasurementConfig(sample_every=1))
    started = time.perf_counter()
    clock = 0.0
    for _ in range(repetitions):
        for _ in range(tuples_per_interval // len(names)):
            for name in names:
                measurer.record_arrival(name)
                measurer.record_service(name, 0.01)
        measurer.record_sojourn(0.5)
        clock += 1.0
        measurer.pull(clock)
    return (time.perf_counter() - started) / repetitions * 1000.0


def overhead_summary(spec: ScenarioSpec) -> ScenarioSummary:
    """Time an ``"overhead"``-kind spec: one ``extra`` row per ``Kmax``,
    no replications (wall-clock timings are never cached)."""
    params = spec.policy_params
    kmax_values = [int(k) for k in params.get("kmax_values", KMAX_VALUES)]
    repetitions = int(params.get("repetitions", 2000))
    model = reference_model()
    measurement_ms = time_measurement(repetitions)
    rows = [
        {
            "kmax": kmax,
            "scheduling_ms": time_scheduling(model, kmax, repetitions),
            "measurement_ms": measurement_ms,
        }
        for kmax in kmax_values
    ]
    empty = summarize_replications(spec, ())
    return replace(empty, extra={"overhead_rows": rows})


def spec(
    *,
    kmax_values: Sequence[int] = tuple(KMAX_VALUES),
    repetitions: int = 2000,
) -> ScenarioSpec:
    """Table II as an ``"overhead"``-kind scenario spec."""
    return ScenarioSpec(
        name="table2",
        workload="vld",
        policy="none",
        kind="overhead",
        policy_params={
            "kmax_values": [int(k) for k in kmax_values],
            "repetitions": int(repetitions),
        },
    )


def campaign(
    *,
    kmax_values: Sequence[int] = tuple(KMAX_VALUES),
    repetitions: int = 2000,
) -> CampaignSpec:
    """Table II as a single-cell (axis-free) campaign.

    Overhead cells time the host's wall clock, so campaign runs never
    cache them in a result store — every run re-measures.
    """
    return CampaignSpec(
        name="table2",
        description="DRS-layer computation overheads",
        base={
            "workload": "vld",
            "policy": "none",
            "kind": "overhead",
            "policy_params": {
                "kmax_values": [int(k) for k in kmax_values],
                "repetitions": int(repetitions),
            },
        },
    )


def run(
    *,
    kmax_values: Sequence[int] = tuple(KMAX_VALUES),
    repetitions: int = 2000,
    runner: Optional[CampaignRunner] = None,
) -> Table2Result:
    """Time scheduling and measurement processing for each ``Kmax``.

    ``repetitions`` trades precision for runtime (the paper used 100k;
    2k keeps the benchmark under a second per row while staying well
    above timer resolution).
    """
    outcome = (runner or CampaignRunner(max_workers=1)).run(
        campaign(kmax_values=kmax_values, repetitions=repetitions)
    )
    summary = outcome.cells[0].summary
    rows = [
        OverheadRow(
            kmax=row["kmax"],
            scheduling_ms=row["scheduling_ms"],
            measurement_ms=row["measurement_ms"],
        )
        for row in summary.extra["overhead_rows"]
    ]
    return Table2Result(rows=rows)
