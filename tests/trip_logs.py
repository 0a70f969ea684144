"""Trip logs built by hand from Trip objects, for tests that need a small exact log,
raw rides rearranged by row, and a replay's coverage counts over a log's events."""

import numpy as np

from velosense.metrics import count_cells, event_cells
from velosense.trips import PathTable, RawTrips, SegmentTable, TripLog


def trip_log(trips, stands, horizon, speed):
    """The TripLog whose rows are `trips`, in the given order; each distinct Path
    enters the path table once, in order of first use, with the first trip's stands
    that rides it. A log holds no stands or duration of its own, so each trip's
    must be its path's."""
    first = {}  # each distinct Path -> the first trip that rides it
    for t in trips:
        first.setdefault(t.path, t)
    number = dict(zip(first, range(len(first))))
    table, segments = path_tables(list(first), [(t.origin, t.dest) for t in first.values()])
    log = TripLog(
        [t.id for t in trips],
        np.array([t.start_min for t in trips], dtype=np.int64),
        np.array([number[t.path] for t in trips], dtype=np.int64),
        table,
        segments,
        stands,
        horizon,
        speed,
    )
    for name in ("origin", "dest", "duration_min"):
        assert getattr(log, name).tolist() == [getattr(t, name) for t in trips], name
    assert log.entry_length_m.tolist() == [x for path in first for x in path.seg_lengths_m]  # one length per segment
    assert log.path_nodes.tolist() == [node for path in first for node in path.nodes]
    return log


def path_tables(paths, ends):
    """The path table of `paths`, the Paths from stand `ends[i][0]` to stand
    `ends[i][1]`, and its segment table: each segment's end nodes and length as the
    entries give them, the last entry of a segment winning."""
    segments = {}
    for path in paths:
        for segment, a, b, length in zip(path.segments, path.nodes, path.nodes[1:], path.seg_lengths_m):
            segments[segment] = (min(a, b), max(a, b), length)
    ids = sorted(segments)
    table = PathTable(
        np.array([origin for origin, _dest in ends], dtype=np.int64),
        np.array([dest for _origin, dest in ends], dtype=np.int64),
        np.array([len(path.segments) for path in paths], dtype=np.int64),
        np.array([segment for path in paths for segment in path.segments], dtype=np.int64),
    )
    u, v, length_m = (np.array([segments[i][k] for i in ids], dtype=dtype) for k, dtype in
                      enumerate((np.int64, np.int64, np.float64)))
    return table, SegmentTable(np.array(ids, dtype=np.int64), u, v, length_m)


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
