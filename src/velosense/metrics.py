"""Spatio-temporal sensing score and coverage diagnostics.

The horizon splits into equal intervals; a (segment, interval) cell is
covered when at least one equipped bike enters the segment during the
interval. The sensing score is the length-weighted share of covered cells,
as a percentage. A cell's membership uses the segment entry minute, matching
the traversal timestamps produced by the trip router. The horizon rule lives
in event_cells, which gives every event of a log its cell on one grid (and
bins trip starts into hours). A replay holds no events: a count needs only
which trip rows rode an equipped bike, one flag per row (Replay.rode), and
every count is one np.bincount of the cells of the log's events whose row's
flag is set (count_cells). So `score` and an experiment find the cells once
per interval length and count each replay from them.

Results keep the array form they are counted in: a score's counts and the
hourly diagnostics' counts (segments x hours, beside the trip starts per
hour) are written to CSV straight from their nonzero cells. The hourly
diagnostics count nothing: `score` hands them its 1 h counts. An event
naming a segment beyond the network, or a network with no segment length to
weigh by, is malformed input: `score` exits 2 on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import MalformedInputError, write_json, write_table
from .trips import TripEvents, TripLog


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


def event_cells(events: TripEvents, grid: IntervalGrid, num_segments: int) -> np.ndarray:
    """The (segment, interval) cell of every event, as segment * n_intervals +
    interval, for np.bincount.

    The one horizon rule for scoring: an event counts when it falls in
    [t0, T]. A trip that starts near the horizon end finishes after it, and
    its late traversals fall outside every interval; they get the cell
    num_segments * n_intervals, one past the grid. An event at minute T
    counts in the last interval.
    """
    if events.segment.max(initial=-1) >= num_segments:
        raise MalformedInputError(f"an event names a segment beyond the network's {num_segments}")
    n = grid.n_intervals
    minute = events.minute
    cells = np.minimum((minute - grid.t0) // grid.delta_min, n - 1)
    cells += events.segment * n
    cells[(minute < grid.t0) | (minute > grid.T)] = num_segments * n
    return cells


def count_cells(cells: np.ndarray, trip: np.ndarray, rode: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Equipped-bike entries per (segment, interval) of a grid of that shape:
    one bincount of the cells (event_cells) of the events whose trip row
    (events.trip) rode an equipped bike (rode[row])."""
    size = shape[0] * shape[1]
    counts = np.bincount(cells[rode[trip]], minlength=size + 1)
    return counts[:size].reshape(shape)


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
        raise MalformedInputError("sensing score is undefined on an empty network")
    covered_cells = (counts >= 1).sum(axis=1)
    return 100.0 * float(lengths @ covered_cells) / (grid.n_intervals * total)


@dataclass(eq=False)
class HourlyDiagnostics:
    first_hour: int  # hour of day of column 0
    trips_started: np.ndarray  # per hour
    counts: np.ndarray  # segments x hours: equipped entries
    trip_event_correlation: float | None  # Pearson; absent without equipped coverage


def hour_grid(log: TripLog) -> IntervalGrid:
    """The 1 h grid over the log's horizon; ValueError unless the horizon is hour-aligned."""
    t0, t_end = log.horizon
    if t0 % 60 or t_end % 60:
        raise ValueError(f"horizon ({t0}, {t_end}) is not hour-aligned")
    return IntervalGrid(t0, t_end, 1.0)


def hourly_diagnostics(counts: np.ndarray, log: TripLog) -> HourlyDiagnostics:
    """Per-hour trip starts beside the equipped coverage counts of the log's
    hour_grid, for external plotting. It counts no coverage: counts are the
    caller's, on that grid. Trip starts fall in hours by event_cells' rule."""
    grid = hour_grid(log)
    if counts.shape[1:] != (grid.n_intervals,):
        raise ValueError(f"counts shape {counts.shape} does not match {grid.n_intervals} hours")
    starts = TripEvents(np.arange(len(log.ids)), np.zeros_like(log.start_min), log.start_min)
    trips_started = np.bincount(event_cells(starts, grid, 1), minlength=grid.n_intervals + 1)[:-1]
    xs = trips_started.astype(float)
    ys = counts.sum(axis=0).astype(float)
    correlation = None
    if grid.n_intervals >= 2 and xs.std() > 0 and ys.std() > 0:
        correlation = float(np.corrcoef(xs, ys)[0, 1])
    return HourlyDiagnostics(grid.t0 // 60, trips_started, counts, correlation)


def write_hourly(diag: HourlyDiagnostics, rows_path, segments_path) -> None:
    """Hourly aggregates for external plotting: one summary row per hour plus
    the nonzero per-segment counts behind it, hour by hour."""
    corr = "" if diag.trip_event_correlation is None else repr(diag.trip_event_correlation)
    hours = diag.first_hour + np.arange(len(diag.trips_started))
    write_table(
        rows_path,
        ["hour", "trips_started", "coverage_events", "trip_event_correlation"],
        zip(hours.tolist(), diag.trips_started.tolist(), diag.counts.sum(axis=0).tolist(), repeat(corr)),
    )
    hour, seg = np.nonzero(diag.counts.T)  # row-major: sorted by (hour, segment)
    write_table(
        segments_path,
        ["hour", "segment_id", "count"],
        zip(hours[hour].tolist(), seg.tolist(), diag.counts[seg, hour].tolist()),
    )


def write_report(
    counts: np.ndarray, grid: IntervalGrid, phi_pct: float, equipped_count: int, counts_path, summary_path
) -> None:
    """A score's nonzero cells as delimited text plus a JSON summary."""
    seg, interval = np.nonzero(counts)
    rows = zip(seg.tolist(), interval.tolist(), counts[seg, interval].tolist())
    write_table(counts_path, ["segment_id", "interval", "count"], rows)
    write_json(
        summary_path,
        {
            "phi_pct": phi_pct,
            "t0": grid.t0,
            "T": grid.T,
            "delta_h": grid.delta_h,
            "n_intervals": grid.n_intervals,
            "num_segments": int(counts.shape[0]),
            "equipped_count": equipped_count,
        },
    )
