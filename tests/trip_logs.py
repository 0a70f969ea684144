"""Trip logs built by hand from Trip objects, for tests that need a small exact log,
and raw rides rearranged by row."""

import numpy as np

from velosense.trips import PathEntries, RawTrips, TripLog


def trip_log(trips, stands, horizon, speed):
    """The TripLog whose rows are `trips`, in the given order; each distinct Path
    enters the path table once, in order of first use, and the table is built from them."""
    table = {}
    path = [table.setdefault(t.path, len(table)) for t in trips]

    def column(name):
        return np.array([getattr(t, name) for t in trips], dtype=np.int64)

    return TripLog(
        [t.id for t in trips],
        column("origin"),
        column("dest"),
        column("start_min"),
        column("duration_min"),
        np.array(path, dtype=np.int64),
        PathEntries.of(list(table)),
        stands,
        horizon,
        speed,
    )


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
