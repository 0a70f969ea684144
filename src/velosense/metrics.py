"""Spatio-temporal sensing score and coverage diagnostics.

The horizon splits into equal intervals; a (segment, interval) cell is
covered when at least one equipped bike enters the segment during the
interval. The sensing score is the length-weighted share of covered cells,
as a percentage. A cell's membership uses the segment entry minute, matching
the traversal timestamps produced by the trip router. Counts are one masked
np.bincount over a replay's event table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError, MalformedInputError, UndefinedScoreError, write_json, write_table
from .fleet_sim import Replay
from .trips import TripLog


def interval_minutes(delta_h: float) -> int:
    """An interval of delta_h hours in minutes; ValueError unless that is a whole number >= 1."""
    minutes = 60.0 * delta_h
    delta_min = round(minutes) if math.isfinite(minutes) else 0
    if abs(minutes - delta_min) > 1e-9 or delta_min < 1:
        raise ValueError(f"delta_h={delta_h} is not a whole number of minutes")
    return delta_min


@dataclass(frozen=True)
class IntervalGrid:
    t0: int
    T: int
    delta_h: float

    def __post_init__(self):
        if self.T <= self.t0:
            raise ValueError(f"empty horizon ({self.t0}, {self.T})")
        delta_min = self.delta_min
        if (self.T - self.t0) % delta_min != 0:
            raise ValueError(
                f"interval of {delta_min} min does not divide horizon {self.T - self.t0} min"
            )

    @property
    def delta_min(self) -> int:
        return interval_minutes(self.delta_h)

    @property
    def n_intervals(self) -> int:
        return (self.T - self.t0) // self.delta_min

    def interval_of(self, minute):
        """Index of the interval containing each minute (a scalar or an array);
        the horizon end maps to the last interval."""
        minute = np.asarray(minute, dtype=np.int64)
        outside = (minute < self.t0) | (minute > self.T)
        if outside.any():
            raise HorizonError(
                f"minute {minute[outside].flat[0]} outside horizon [{self.t0}, {self.T}]"
            )
        return np.minimum((minute - self.t0) // self.delta_min, self.n_intervals - 1)


@dataclass
class SensingReport:
    counts: np.ndarray  # segments x intervals
    phi_pct: float
    grid: IntervalGrid
    equipped_count: int


def coverage_counts(
    trajectories: Replay,
    equipped: frozenset[int] | set[int],
    grid: IntervalGrid,
    num_segments: int,
) -> np.ndarray:
    """Count equipped-bike entries per (segment, interval).

    The one horizon rule for scoring: an event counts when it falls in
    [t0, T]. A trip that starts near the horizon end finishes after it, and
    its late traversals fall outside every interval, so they are not
    counted; an event at minute T counts in the last interval.
    """
    events = trajectories.events
    is_equipped = np.isin(np.arange(len(trajectories)), list(equipped))
    in_horizon = (events.minute >= grid.t0) & (events.minute <= grid.T)
    keep = is_equipped[trajectories.event_bike] & in_horizon
    size = num_segments * grid.n_intervals
    cells = events.segment[keep] * grid.n_intervals + grid.interval_of(events.minute[keep])
    counts = np.bincount(cells, minlength=size)
    if len(counts) > size:
        raise MalformedInputError(f"an event names a segment beyond the network's {num_segments}")
    return counts.reshape(num_segments, grid.n_intervals)


def sensing_score(counts: np.ndarray, lengths: np.ndarray, grid: IntervalGrid) -> float:
    """Length-weighted percentage of covered (segment, interval) cells."""
    lengths = np.asarray(lengths, dtype=np.float64)
    if counts.shape != (len(lengths), grid.n_intervals):
        raise ValueError(
            f"counts shape {counts.shape} does not match "
            f"{len(lengths)} segments x {grid.n_intervals} intervals"
        )
    total = float(lengths.sum())
    if len(lengths) == 0 or total <= 0.0:
        raise UndefinedScoreError("sensing score is undefined on an empty network")
    covered_cells = (counts >= 1).sum(axis=1)
    return 100.0 * float(lengths @ covered_cells) / (grid.n_intervals * total)


@dataclass
class HourRow:
    hour: int
    trips_started: int
    coverage_events: int
    per_segment: dict[int, int]


@dataclass
class HourlyDiagnostics:
    rows: list[HourRow]
    trip_event_correlation: float | None  # Pearson; absent without equipped coverage


def hourly_diagnostics(
    trajectories: Replay,
    equipped: frozenset[int] | set[int],
    log: TripLog,
) -> HourlyDiagnostics:
    """Per-hour trip starts and equipped coverage counts, for external plotting.

    Coverage counts through coverage_counts on a 1 h grid, so it follows the
    same horizon rule as the sensing score.
    """
    t0, t_end = log.horizon
    if t0 % 60 or t_end % 60:
        raise ValueError(f"horizon ({t0}, {t_end}) is not hour-aligned")
    grid = IntervalGrid(t0, t_end, 1.0)
    num_segments = 1 + int(trajectories.events.segment.max(initial=-1))
    counts = coverage_counts(trajectories, equipped, grid, num_segments)
    starts = grid.interval_of(log.start_min)
    trips_started = np.bincount(starts, minlength=grid.n_intervals)
    rows = [
        HourRow(
            t0 // 60 + h,
            int(trips_started[h]),
            int(counts[:, h].sum()),
            {int(seg): int(counts[seg, h]) for seg in np.flatnonzero(counts[:, h])},
        )
        for h in range(grid.n_intervals)
    ]
    xs = np.array([r.trips_started for r in rows], dtype=float)
    ys = np.array([r.coverage_events for r in rows], dtype=float)
    correlation = None
    if len(rows) >= 2 and xs.std() > 0 and ys.std() > 0:
        correlation = float(np.corrcoef(xs, ys)[0, 1])
    return HourlyDiagnostics(rows, correlation)


def write_hourly(diag: HourlyDiagnostics, rows_path, segments_path) -> None:
    """Hourly aggregates for external plotting: one summary row per hour plus
    the per-segment counts behind it."""
    corr = "" if diag.trip_event_correlation is None else repr(diag.trip_event_correlation)
    write_table(
        rows_path,
        ["hour", "trips_started", "coverage_events", "trip_event_correlation"],
        ((row.hour, row.trips_started, row.coverage_events, corr) for row in diag.rows),
    )
    write_table(
        segments_path,
        ["hour", "segment_id", "count"],
        ((row.hour, seg, count) for row in diag.rows for seg, count in sorted(row.per_segment.items())),
    )


def write_report(report: SensingReport, counts_path, summary_path) -> None:
    """Nonzero cells as delimited text plus a JSON summary."""
    seg, interval = np.nonzero(report.counts)
    rows = zip(seg.tolist(), interval.tolist(), report.counts[seg, interval].tolist())
    write_table(counts_path, ["segment_id", "interval", "count"], rows)
    write_json(
        summary_path,
        {
            "phi_pct": report.phi_pct,
            "t0": report.grid.t0,
            "T": report.grid.T,
            "delta_h": report.grid.delta_h,
            "n_intervals": report.grid.n_intervals,
            "num_segments": int(report.counts.shape[0]),
            "equipped_count": report.equipped_count,
        },
    )
