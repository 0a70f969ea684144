"""Trip logs built by hand from Trip objects, for tests that need a small exact log,
raw rides rearranged by row, and a replay's coverage counts over a log's events."""

import numpy as np

from velosense.metrics import count_cells, event_cells
from velosense.trips import PathEntries, RawTrips, TripLog


def trip_log(trips, stands, horizon, speed):
    """The TripLog whose rows are `trips`, in the given order; each distinct Path
    enters the path table once, in order of first use, and the table is built from
    them. A log holds no stands or duration of its own, so each trip's must be its
    path's."""
    table = {}
    path = [table.setdefault(t.path, len(table)) for t in trips]
    log = TripLog(
        [t.id for t in trips],
        np.array([t.start_min for t in trips], dtype=np.int64),
        np.array(path, dtype=np.int64),
        PathEntries.of(list(table)),
        stands,
        horizon,
        speed,
    )
    for name in ("origin", "dest", "duration_min"):
        assert getattr(log, name).tolist() == [getattr(t, name) for t in trips], name
    return log


def raw_rows(raw, rows):
    """The RawTrips holding `raw`'s rows `rows`, in that order."""
    rows = np.asarray(rows, dtype=np.int64)
    return RawTrips([raw.id[i] for i in rows.tolist()], [raw.start[i] for i in rows.tolist()], raw.coords[rows])


def raw_concat(*raws):
    """The RawTrips holding the rows of each of `raws`, one after another."""
    return RawTrips(
        [i for raw in raws for i in raw.id],
        [start for raw in raws for start in raw.start],
        np.concatenate([raw.coords for raw in raws]),
    )


def coverage_counts(events, replay, equipped, grid, num_segments):
    """Equipped-bike entries per (segment, interval) of `replay` over `events`, the
    event table of its log, counted as `score` and `Evaluator.phi` count them."""
    cells = event_cells(events, grid, num_segments)
    return count_cells(cells, events.trip, replay.rode(equipped), (num_segments, grid.n_intervals))
