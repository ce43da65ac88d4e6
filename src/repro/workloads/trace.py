"""Timestamped event traces: parse once, replay many ways.

A :class:`Trace` is an ordered list of event timestamps (seconds, any
epoch) loaded from a CSV or NDJSON file — the format real stream
deployments log.  Parsing is deliberately forgiving about what real
traces contain (duplicate timestamps from coarse clocks, unsorted rows
from merged logs) and deliberately strict about what they must not
(malformed lines, negative times): a typo'd trace fails loudly with a
line number instead of silently driving the wrong load.

One trace yields many *distinct, deterministic* replications through
the ``mode`` of :meth:`Trace.build_process`:

- ``replay``: the recorded gaps verbatim, then a Poisson tail at the
  empirical rate (every replication sees the identical burst pattern);
- ``loop``: the recorded gaps cycled endlessly;
- ``bootstrap``: i.i.d. gaps resampled from the trace's empirical gap
  distribution using the spout's own seeded RNG stream — replication
  ``i`` draws a different-but-reproducible gap sequence, which is how a
  single recorded burst profile becomes a statistical ensemble.

``time_scale`` stretches the clock (2.0 = half the rate, same shape);
``rate_scale`` is the reciprocal convenience spelling.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.randomness.arrival import ArrivalProcess, RenewalProcess, TraceReplayProcess
from repro.randomness.distributions import Empirical

#: Replay modes :meth:`Trace.build_process` accepts.
TRACE_MODES = ("replay", "loop", "bootstrap")

#: Field names the parsers accept for the event time.
_TIME_KEYS = ("timestamp", "time", "t")


class _LoopReplayProcess(ArrivalProcess):
    """Cycle a fixed gap sequence forever (``loop`` replay mode)."""

    def __init__(self, gaps: Sequence[float], rate: float):
        self._gaps = list(gaps)
        self._rate = rate
        self._index = 0

    def next_gap(self, now, rng) -> float:
        gap = self._gaps[self._index]
        self._index = (self._index + 1) % len(self._gaps)
        return gap

    @property
    def mean_rate(self) -> float:
        return self._rate

    def __repr__(self) -> str:
        return f"_LoopReplayProcess(n={len(self._gaps)})"


@dataclass(frozen=True)
class Trace:
    """An immutable, sorted sequence of event timestamps.

    >>> trace = Trace.from_timestamps([0.0, 0.5, 0.5, 2.0])
    >>> len(trace), round(trace.empirical_rate, 6)
    (4, 1.5)
    >>> [round(g, 3) for g in trace.gaps()]
    [0.5, 0.0, 1.5]
    """

    timestamps: Tuple[float, ...]
    #: Where the events came from (shown in error messages / reports).
    source: str = "<memory>"

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if len(self.timestamps) < 2:
            raise ConfigurationError(
                f"trace {self.source}: needs at least 2 events to define"
                f" inter-arrival gaps, got {len(self.timestamps)}"
            )
        if self.timestamps[-1] <= self.timestamps[0]:
            raise ConfigurationError(
                f"trace {self.source}: all events share one timestamp —"
                " the trace spans no time"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_timestamps(
        cls, timestamps: Iterable[float], *, source: str = "<memory>"
    ) -> "Trace":
        """Validated trace from raw event times (sorted for you).

        Duplicate timestamps are kept (coarse-clock traces record
        simultaneous events); negative, NaN or infinite times are
        rejected.
        """
        values: List[float] = []
        for raw in timestamps:
            value = float(raw)
            if math.isnan(value) or math.isinf(value) or value < 0:
                raise ConfigurationError(
                    f"trace {source}: timestamps must be finite and >= 0,"
                    f" got {raw!r}"
                )
            values.append(value)
        return cls(timestamps=tuple(sorted(values)), source=source)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a trace file, dispatching on its extension.

        ``.csv`` goes through :func:`parse_csv`; ``.ndjson`` / ``.jsonl``
        / ``.json`` through :func:`parse_ndjson`.
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".csv":
            parser = parse_csv
        elif suffix in (".ndjson", ".jsonl", ".json"):
            parser = parse_ndjson
        else:
            raise ConfigurationError(
                f"unknown trace format {suffix!r} for {path}; expected"
                " .csv, .ndjson, .jsonl or .json"
            )
        try:
            text = path.read_text()
        except OSError as exc:
            # The stored path is part of the spec's content address, so
            # it is never rewritten; say where a relative one was looked
            # for instead.
            where = f"tried {path.absolute()}"
            if not path.is_absolute():
                where += (
                    "; relative trace paths resolve against the working"
                    f" directory {Path.cwd()}, not the spec file's"
                )
            raise ConfigurationError(
                f"cannot read trace {path} ({where}): {exc.strerror or exc}"
            ) from None
        return parser(text, source=str(path))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def span(self) -> float:
        """Duration from the first to the last event."""
        return self.timestamps[-1] - self.timestamps[0]

    @property
    def empirical_rate(self) -> float:
        """Events per second over the recorded span."""
        return (len(self.timestamps) - 1) / self.span

    def gaps(self) -> List[float]:
        """Inter-arrival gaps (zero for simultaneous events)."""
        return [
            b - a for a, b in zip(self.timestamps, self.timestamps[1:])
        ]

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def scaled(self, time_scale: float) -> "Trace":
        """Stretch the clock by ``time_scale`` (2.0 halves the rate)."""
        if time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be > 0, got {time_scale}"
            )
        return Trace(
            timestamps=tuple(t * time_scale for t in self.timestamps),
            source=self.source,
        )

    def build_process(self, mode: str = "replay") -> ArrivalProcess:
        """An :class:`ArrivalProcess` replaying this trace (see modes).

        ``bootstrap`` returns a :class:`RenewalProcess` over the
        empirical gap distribution, so the spout's seeded RNG stream —
        not this method — decides the resampled sequence: the same seed
        reproduces it, a different replication seed varies it.
        """
        if mode == "replay":
            return TraceReplayProcess.from_gaps(self.gaps())
        if mode == "loop":
            return _LoopReplayProcess(
                [g if g > 0 else 1e-12 for g in self.gaps()],
                self.empirical_rate,
            )
        if mode == "bootstrap":
            return RenewalProcess(Empirical(self.gaps()))
        raise ConfigurationError(
            f"unknown trace mode {mode!r}; available: {TRACE_MODES}"
        )

    def __repr__(self) -> str:
        return (
            f"Trace(n={len(self.timestamps)}, span={self.span:g},"
            f" source={self.source!r})"
        )


# ----------------------------------------------------------------------
# parsers
# ----------------------------------------------------------------------
def _fail(source: str, line_number: int, message: str) -> "ConfigurationError":
    return ConfigurationError(
        f"trace {source}, line {line_number}: {message}"
    )


def parse_csv(text: str, *, source: str = "<csv>") -> Trace:
    """Parse a CSV trace: one event per row.

    The event time is the ``timestamp`` / ``time`` / ``t`` column when a
    header names one, otherwise the first column.  Blank lines are
    skipped; anything non-numeric in the time column is an error with
    its line number.

    >>> parse_csv("timestamp,size\\n0.0,10\\n1.5,3\\n").timestamps
    (0.0, 1.5)
    """
    rows = [
        (number, row)
        for number, row in enumerate(csv.reader(io.StringIO(text)), start=1)
        if row and any(cell.strip() for cell in row)
    ]
    if not rows:
        raise ConfigurationError(f"trace {source}: no events found")
    column = 0
    first_number, first_row = rows[0]
    header = [cell.strip().lower() for cell in first_row]
    for key in _TIME_KEYS:
        if key in header:
            column = header.index(key)
            rows = rows[1:]
            break
    if not rows:
        raise ConfigurationError(f"trace {source}: header but no events")
    timestamps: List[float] = []
    for number, row in rows:
        if column >= len(row):
            raise _fail(source, number, f"missing column {column + 1}")
        cell = row[column].strip()
        try:
            timestamps.append(float(cell))
        except ValueError:
            raise _fail(
                source, number, f"malformed timestamp {cell!r}"
            ) from None
    return Trace.from_timestamps(timestamps, source=source)


def parse_ndjson(text: str, *, source: str = "<ndjson>") -> Trace:
    """Parse an NDJSON trace: one JSON object (or bare number) per line.

    Objects must carry the event time under ``timestamp`` / ``time`` /
    ``t``; other fields are ignored.

    >>> parse_ndjson('{"t": 0.0}\\n{"t": 2.0, "user": 7}\\n').timestamps
    (0.0, 2.0)
    """
    timestamps: List[float] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _fail(source, number, f"malformed JSON: {exc}") from None
        if isinstance(record, (int, float)) and not isinstance(record, bool):
            timestamps.append(float(record))
            continue
        if not isinstance(record, dict):
            raise _fail(
                source, number, f"expected an object or number, got {record!r}"
            )
        for key in _TIME_KEYS:
            if key in record:
                value = record[key]
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise _fail(
                        source, number, f"non-numeric {key!r}: {value!r}"
                    )
                timestamps.append(float(value))
                break
        else:
            raise _fail(
                source,
                number,
                f"no timestamp field (looked for {list(_TIME_KEYS)})",
            )
    if not timestamps:
        raise ConfigurationError(f"trace {source}: no events found")
    return Trace.from_timestamps(timestamps, source=source)
