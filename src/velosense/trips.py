"""Trip ingestion and cleaning: parse raw rides, snap stands, route, filter, time.

Cleaning pipeline: keep the service day of the earliest trip, snap every
distinct endpoint coordinate to its nearest network node (coordinates sharing
a node merge into one stand), route each trip along the shortest path, keep
trips whose routed distance and start time fall inside the configured bounds,
and recompute the end time from the routed distance at constant speed. The
reported end time in the raw data is ignored; it cannot be reconciled with a
routed trajectory.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import MalformedInputError, int_column, read_artifact, read_table, str_column, write_json
from .network import Path, RoadNetwork, nearest_node, network_sha256, route_pairs

TRIPLOG_FORMAT = "velosense-triplog-v3"

DEFAULT_SPEED_KMH = 13.0
DEFAULT_MIN_KM = 0.5
DEFAULT_MAX_KM = 5.0
DEFAULT_WINDOW = (360, 1320)  # 6 am .. 10 pm, minutes from midnight

REQUIRED_TRIP_COLUMNS = ("started_at", "start_lat", "start_lng", "end_lat", "end_lng")

_TIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%m/%d/%Y %H:%M")


class RawTrip(NamedTuple):
    id: str
    start_time: datetime
    start_lat: float
    start_lon: float
    end_lat: float
    end_lon: float


@dataclass
class ParseReport:
    rows_read: int = 0
    kept: int = 0
    missing_coords: int = 0
    bad_timestamp: int = 0


@dataclass(frozen=True)
class Stand:
    """A bike stand: dense id plus the network node it snaps to."""

    id: int
    node: int


@dataclass(frozen=True)
class Trip:
    id: str
    origin: int  # stand id
    dest: int  # stand id
    start_min: int
    path: Path
    duration_min: int  # >= 1

    @property
    def end_min(self) -> int:
        return self.start_min + self.duration_min


class TripEvents(NamedTuple):
    """Every traversal event of a log, one entry per event, grouped by trip
    row in log order and in path order within a trip."""

    trip: np.ndarray  # int64: trip row of the log
    segment: np.ndarray  # int64
    minute: np.ndarray  # int64: entry minute


class PathEntries(NamedTuple):
    """Every path's segments and their lengths, path after path, and how many each path holds."""

    segment: np.ndarray  # int64
    length_m: np.ndarray  # float64
    count: np.ndarray  # int64 per path


class ServiceSchedule(NamedTuple):
    returns: np.ndarray  # int64: trip rows by end minute, ties in row order
    returned: np.ndarray  # int64 per row: how many of `returns` end by its start
    net: np.ndarray  # int64 per row: returns to its origin by its start, less departures up to it


@dataclass(eq=False)
class TripLog:
    """Cleaned trips as columns, one entry per trip row, sorted by start minute
    so row order is service order. `path` indexes the table `paths`, which
    holds each distinct path once."""

    ids: list[str]
    origin: np.ndarray  # int64 stand id
    dest: np.ndarray  # int64 stand id
    start_min: np.ndarray  # int64
    duration_min: np.ndarray  # int64, >= 1
    path: np.ndarray  # int64 row of paths
    paths: list[Path]
    stands: list[Stand]
    horizon: tuple[int, int]
    speed_m_per_min: float
    drop_counts: dict[str, int] = field(default_factory=dict)
    network_sha256: str | None = None  # of the network the trips were routed on

    @property
    def num_stands(self) -> int:
        return len(self.stands)

    @cached_property
    def trips(self) -> list[Trip]:
        """The rows as Trip views sharing the table's Paths, for callers outside
        the package (the benchmark reads ids and paths); the package reads columns."""
        columns = (self.origin, self.dest, self.start_min, self.path, self.duration_min)
        rows = zip(self.ids, *(column.tolist() for column in columns))
        return [Trip(i, o, d, start, self.paths[p], dur) for i, o, d, start, p, dur in rows]

    @cached_property
    def events(self) -> TripEvents:
        """Every segment entry of every trip as one event table, built once per log.

        Entry offsets depend only on the path, so they are computed once per
        entry of `paths` and gathered by each trip's `path`; each trip adds its
        start minute. A trip enters a segment at the distance before it along
        the path at constant speed, floored.
        """
        segments, lengths_m, per_path = self.path_entries
        offsets = (_distance_before(lengths_m, per_path) // self.speed_m_per_min).astype(np.int64)
        counts = per_path[self.path]
        trip = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # an event's row in segments/offsets: where its path starts there, plus its place in its trip
        path_first, trip_first = np.cumsum(per_path) - per_path, np.cumsum(counts) - counts
        flat = np.repeat(path_first[self.path] - trip_first, counts) + np.arange(len(trip))
        return TripEvents(trip, segments[flat], self.start_min[trip] + offsets[flat])

    @cached_property
    def path_entries(self) -> PathEntries:
        """The path table's entries as flat columns; load_triplog keeps its checked ones."""
        return PathEntries(
            np.array([s for p in self.paths for s in p.segments], dtype=np.int64),
            np.array([x for p in self.paths for x in p.seg_lengths_m], dtype=np.float64),
            np.array([len(p.segments) for p in self.paths], dtype=np.int64),
        )

    @cached_property
    def schedule(self) -> ServiceSchedule:
        """When replay returns bikes and takes them, whichever bike serves a trip. A
        bike returned at t can leave again at t; one returned past the horizon never does."""
        n = len(self.ids)
        minute = np.concatenate([self.start_min + self.duration_min, self.start_min])  # returns first
        by_time = np.argsort(minute, kind="stable")  # ties stay put
        is_return = by_time < n
        returns, returned = by_time[is_return], np.cumsum(is_return)[~is_return]
        del by_time, is_return  # each temporary goes once used: the peak is a few arrays of 2n
        order = np.lexsort((minute, np.concatenate([self.dest, self.origin])))  # by stand, then as above
        del minute
        balance = np.cumsum(np.where(order < n, 1, -1))
        departure = np.flatnonzero(order >= n)
        row = order[departure] - n
        del order
        # a stand's balance counts from the events of the stands sorted before it
        total = np.bincount(self.dest, minlength=self.num_stands)
        total -= np.bincount(self.origin, minlength=self.num_stands)
        net = np.empty(n, dtype=np.int64)
        net[row] = balance[departure] - (np.cumsum(total) - total)[self.origin[row]]
        return ServiceSchedule(returns, returned, net)


def _parse_timestamp(text: str) -> datetime | None:
    text = text.strip()
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        pass
    for fmt in _TIME_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


def parse_raw_trips(source) -> tuple[list[RawTrip], ParseReport]:
    """Parse a delimited trip file; rows with bad coordinates or timestamps are
    dropped and counted, never fatal. Missing required columns are fatal.

    Rows follow read_table: blank rows are neither counted nor numbered in the
    `row-N` ids of rows without a ride_id, a field a short row lacks is
    missing, and extra fields are ignored.
    """
    columns, rows = read_table(source)
    missing = [c for c in REQUIRED_TRIP_COLUMNS if c not in columns]
    if missing:
        raise MalformedInputError(f"trip file is missing columns {missing}")
    coord_cols = [columns[c] for c in ("start_lat", "start_lng", "end_lat", "end_lng")]
    time_col, id_col = columns["started_at"], columns.get("ride_id")
    width = max(*coord_cols, time_col, id_col or 0) + 1

    missing_coords = bad_timestamp = 0
    trips: list[RawTrip] = []
    for row_no, row in enumerate(rows, start=1):
        if len(row) < width:
            row += [None] * (width - len(row))
        try:
            s_lat, s_lon, e_lat, e_lon = coords = [float(row[c]) for c in coord_cols]
            if not all(map(math.isfinite, coords)):
                raise ValueError
        except (TypeError, ValueError):
            missing_coords += 1
            continue
        started = _parse_timestamp(row[time_col] or "")
        if started is None:
            bad_timestamp += 1
            continue
        trip_id = row[id_col] if id_col is not None and row[id_col] else f"row-{row_no}"
        trips.append(RawTrip(trip_id, started, s_lat, s_lon, e_lat, e_lon))
    rows_read = len(trips) + missing_coords + bad_timestamp
    return trips, ParseReport(rows_read, len(trips), missing_coords, bad_timestamp)


def clean_trips(
    raw: list[RawTrip],
    net: RoadNetwork,
    speed_kmh: float = DEFAULT_SPEED_KMH,
    min_km: float = DEFAULT_MIN_KM,
    max_km: float = DEFAULT_MAX_KM,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> TripLog:
    """Snap, route, and filter raw trips into a TripLog.

    A log covers one service day: trips starting on another date than the
    earliest trip are dropped as `other_day` before anything else, since
    start times are minutes of the day. Distance bounds are inclusive.
    Durations round up, to at least one minute even for a trip that ends at
    its start stand, so a bike is never idle before it physically arrives.
    Stand ids are assigned in ascending snapped-node order, so they do not
    depend on row order. Routing runs one Dijkstra per distinct destination
    (network.route_pairs). Trips of one (origin node, dest node) pair share
    their path, so their drop reason, stands and duration are worked out once
    per pair, and they share one entry of the path table, which lists paths in
    order of first use; a path starts at its origin and ends at its dest, so
    distinct pairs are distinct paths.
    """
    t0, t_end = window
    if not (t0 < t_end and 0 < speed_kmh < math.inf):  # load_triplog rejects any other header
        raise ValueError(
            f"need a window that ends after it starts and a finite speed > 0, "
            f"got window {window} and {speed_kmh} km/h"
        )
    if not 0 <= min_km <= max_km < math.inf:
        raise ValueError(f"need distance bounds 0 <= min <= max < inf, got {min_km} and {max_km} km")
    speed_m_per_min = speed_kmh * 1000.0 / 60.0
    min_m, max_m = min_km * 1000.0, max_km * 1000.0

    day = min((rt.start_time.date() for rt in raw), default=None)
    same_day = [rt for rt in raw if rt.start_time.date() == day]
    drops = {
        "other_day": len(raw) - len(same_day),
        "window": 0,
        "too_short": 0,
        "too_long": 0,
        "unreachable": 0,
    }

    snap: dict[tuple[float, float], int] = {}
    for rt in same_day:
        for coord in ((rt.start_lat, rt.start_lon), (rt.end_lat, rt.end_lon)):
            if coord not in snap:
                snap[coord] = nearest_node(net, coord[0], coord[1])
    stand_nodes = sorted(set(snap.values()))
    stand_of_node = {node: i for i, node in enumerate(stand_nodes)}
    stands = [Stand(i, node) for i, node in enumerate(stand_nodes)]

    in_window = []  # (start minute, trip id, (origin node, dest node)) per trip
    for rt in same_day:
        start_min = rt.start_time.hour * 60 + rt.start_time.minute
        if not t0 <= start_min <= t_end:
            drops["window"] += 1
            continue
        pair = (snap[(rt.start_lat, rt.start_lon)], snap[(rt.end_lat, rt.end_lon)])
        in_window.append((start_min, rt.id, pair))

    paths = route_pairs(net, dict.fromkeys(pair for _start, _id, pair in in_window))
    in_window.sort(key=lambda row: row[0])  # service order; stable: ties keep input order
    table: list[Path] = []  # each kept pair's path once, in order of first use
    fate: dict[tuple[int, int], str | tuple] = {}  # drop reason, or (origin, dest, duration, path index)
    kept = []  # one (id, origin, dest, start_min, duration_min, path index) per kept trip
    for start_min, trip_id, pair in in_window:
        if pair not in fate:
            path = paths.get(pair)
            if path is None:
                fate[pair] = "unreachable"
            elif path.distance_m < min_m:
                fate[pair] = "too_short"
            elif path.distance_m > max_m:
                fate[pair] = "too_long"
            else:
                duration = max(1, math.ceil(path.distance_m / speed_m_per_min))
                fate[pair] = (stand_of_node[pair[0]], stand_of_node[pair[1]], duration, len(table))
                table.append(path)
        outcome = fate[pair]
        if isinstance(outcome, str):
            drops[outcome] += 1
            continue
        o_stand, d_stand, duration, path_idx = outcome
        kept.append((trip_id, o_stand, d_stand, start_min, duration, path_idx))

    ids, *columns = zip(*kept) if kept else [()] * 6
    columns = [np.array(column, dtype=np.int64) for column in columns]
    return TripLog(
        list(ids), *columns, table, stands, window, speed_m_per_min, drops, network_sha256(net)
    )


def _distance_before(lengths_m: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Metres along its path before each entry of `lengths_m`, whose paths hold `count`
    entries each. Each path's lengths are added left to right from 0, as a trip adds
    them up; a running sum over all paths less each path's start would round otherwise.
    Loops over places in a path, not over paths."""
    before = np.zeros_like(lengths_m)
    first = np.cumsum(count) - count
    for place in range(1, int(count.max(initial=0))):
        at = first[count > place] + place
        before[at] = before[at - 1] + lengths_m[at - 1]
    return before


def save_triplog(log: TripLog, path) -> None:
    """Write a velosense-triplog-v3 file: the header, the stand table, the path
    table, and the trips as one column per field, `path` indexing the table."""
    doc = {
        "format": TRIPLOG_FORMAT,
        "network_sha256": log.network_sha256,
        "horizon": log.horizon,
        "speed_m_per_min": log.speed_m_per_min,
        "drop_counts": log.drop_counts,
        "stands": [{"stand": s.id, "node": s.node} for s in log.stands],
        "paths": [
            {
                "nodes": p.nodes,
                "segments": p.segments,
                "seg_lengths_m": p.seg_lengths_m,
                "distance_m": p.distance_m,
            }
            for p in log.paths
        ],
        "trips": {
            "id": log.ids,
            "origin": log.origin.tolist(),
            "dest": log.dest.tolist(),
            "start_min": log.start_min.tolist(),
            "duration_min": log.duration_min.tolist(),
            "path": log.path.tolist(),
        },
    }
    write_json(path, doc)


def load_triplog(path) -> TripLog:
    """Read a velosense-triplog-v3 file, checking each column once. Any other
    format, v2 included, is rejected: `ingest` writes v3."""
    with read_artifact(path, TRIPLOG_FORMAT, "ingest") as doc:
        horizon, speed = doc["horizon"], doc["speed_m_per_min"]
        pair = isinstance(horizon, list) and len(horizon) == 2 and set(map(type, horizon)) == {int}
        if not (pair and horizon[0] < horizon[1]):
            raise MalformedInputError(f"{path}: horizon {horizon!r} must be two integers t0 < t_end")
        t0, t_end = horizon
        if not (type(speed) is float and math.isfinite(speed) and speed > 0):
            raise MalformedInputError(f"{path}: speed_m_per_min {speed!r} must be a finite float > 0")
        table = doc["paths"]
        segments, nodes, lengths = ([p[key] for p in table] for key in ("segments", "nodes", "seg_lengths_m"))
        distances = [p["distance_m"] for p in table]
        entries = _check_paths(segments, nodes, lengths, distances, path)
        paths = list(map(Path, map(tuple, segments), map(tuple, nodes), map(tuple, lengths), distances))
        stands = _stand_table(doc["stands"], path)
        trips = doc["trips"]
        ids = str_column(trips["id"], path, "trips.id")
        origin = int_column(trips["origin"], path, "trips.origin", hi=len(stands))
        dest = int_column(trips["dest"], path, "trips.dest", hi=len(stands))
        start = int_column(trips["start_min"], path, "trips.start_min", lo=t0, hi=t_end + 1)
        duration = int_column(trips["duration_min"], path, "trips.duration_min", lo=1)
        table = int_column(trips["path"], path, "trips.path", hi=len(paths))
        if not len(ids) == len(origin) == len(dest) == len(start) == len(duration) == len(table):
            raise MalformedInputError(f"{path}: the trip columns differ in length")
        unsorted = np.flatnonzero(np.diff(start) < 0)
        if len(unsorted):
            first = ids[unsorted[0] + 1]
            raise MalformedInputError(f"{path}: trips are not sorted by start minute at trip {first}")
        log = TripLog(
            ids, origin, dest, start, duration, table, paths, stands, (t0, t_end), speed,
            doc.get("drop_counts", {}), doc.get("network_sha256"),
        )
        log.path_entries = entries
        return log


def _check_paths(segments: list, nodes: list, lengths: list, distances: list, source) -> PathEntries:
    """Path i has one length per segment and one more node than segments, given as
    segments[i], lengths[i] and nodes[i]. Its segment and node ids are integers >= 0,
    its segment lengths finite numbers > 0 and its distance a finite number >= 0.
    Checks each column in one flat pass; returns the `TripLog.path_entries`."""
    count, num_lengths, num_nodes = (
        np.array(list(map(len, column)), dtype=np.int64) for column in (segments, lengths, nodes)
    )
    wrong = np.flatnonzero((num_lengths != count) | (num_nodes != count + 1))
    if len(wrong):
        i = wrong[0]
        raise MalformedInputError(
            f"{source}: path {i} has {count[i]} segments, "
            f"{num_lengths[i]} segment lengths and {num_nodes[i]} nodes"
        )
    segment = int_column(list(chain.from_iterable(segments)), source, "paths.segments")
    int_column(list(chain.from_iterable(nodes)), source, "paths.nodes")
    length_m = _finite_column(list(chain.from_iterable(lengths)))
    if length_m is None or not (length_m > 0).all():
        raise MalformedInputError(f"{source}: paths.seg_lengths_m must hold finite numbers > 0")
    distance_m = _finite_column(distances)
    if distance_m is None or not (distance_m >= 0).all():
        raise MalformedInputError(f"{source}: paths.distance_m must hold finite numbers >= 0")
    return PathEntries(segment, length_m, count)


def _finite_column(values: list) -> np.ndarray | None:
    """`values` as float64, given each is a finite int or float (a bool is neither), else
    None; an int too large for a float raises OverflowError, which read_artifact reports."""
    if not set(map(type, values)) <= {int, float}:
        return None
    column = np.array(values, dtype=np.float64)
    return column if np.isfinite(column).all() else None


def _stand_table(rows, source) -> list[Stand]:
    """Stand i has id i, and no two stands share a node (clean_trips merges them)."""
    ids = int_column([s["stand"] for s in rows], source, "stand ids")
    nodes = int_column([s["node"] for s in rows], source, "stand nodes")
    misplaced = np.flatnonzero(ids != np.arange(len(ids)))
    if len(misplaced):
        raise MalformedInputError(f"{source}: stand id {ids[misplaced[0]]} at index {misplaced[0]}")
    stand_of_node: dict[int, int] = {}
    for stand, node in enumerate(nodes.tolist()):
        if stand_of_node.setdefault(node, stand) != stand:
            raise MalformedInputError(f"{source}: stands {stand_of_node[node]} and {stand} share node {node}")
    return [Stand(stand, node) for node, stand in stand_of_node.items()]


def file_sha256(path) -> str:
    """SHA-256 of a file's bytes: the provenance key that ties an artifact to its triplog."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
