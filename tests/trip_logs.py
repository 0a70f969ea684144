"""Trip logs built by hand from Trip objects, for tests that need a small exact log."""

import numpy as np

from velosense.trips import TripLog


def trip_log(trips, stands, horizon, speed):
    """The TripLog whose rows are `trips`, in the given order; each distinct Path
    enters the path table once, in order of first use."""
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
        list(table),
        stands,
        horizon,
        speed,
    )
