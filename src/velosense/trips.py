"""Trip ingestion and cleaning: parse raw rides, snap stands, route, filter, time.

Ingest works in columns. `parse_raw_trips` reads a trip file in chunks of
`PARSE_CHUNK_ROWS` rows and converts each column of a chunk in one pass; only
a column holding a value it cannot read falls back to a value at a time. It
returns the kept rides as `RawTrips` columns: ids, start times, and one
float64 row of coordinates per ride.

Cleaning pipeline, in array passes over those columns: keep the service day
of the earliest trip, snap every distinct endpoint coordinate to its nearest
network node (coordinates sharing a node merge into one stand), route each
distinct (origin, dest) pair along its shortest path, keep trips whose routed
distance and start time fall inside the configured bounds, and recompute the
end time from the routed distance at constant speed. The reported end time
in the raw data is ignored; it cannot be reconciled with a routed trajectory.

A `TripLog` holds per trip only its id, start minute and path, and the two
tables of its velosense-triplog-v6 file as the file holds them: each segment's
end nodes and length once, and per path its two stands and segment count, then
its segment ids, path after path. So saving writes its fields, and loading
builds no object per path. A trip's stands and duration are its path's. The
rest is derived on first use: entry lengths from the segment table, and a
path's nodes by a walk from its origin stand to its dest stand, which
`load_triplog` runs to check a file and the event table and schedule never
need. A path's distance is its entry lengths added left to right from 0.0, as
routing adds them. `TripLog.paths` and `TripLog.trips` are views built on request.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from itertools import chain, compress, islice
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import MalformedInputError, blamed_on, int_column, read_artifact, read_table, str_column, write_json
from .network import Path, RoadNetwork, nearest_node, network_sha256, route_pairs

TRIPLOG_FORMAT = "velosense-triplog-v6"

DEFAULT_SPEED_KMH = 13.0
DEFAULT_MIN_KM = 0.5
DEFAULT_MAX_KM = 5.0
DEFAULT_WINDOW = (360, 1320)  # 6 am .. 10 pm, minutes from midnight

REQUIRED_TRIP_COLUMNS = ("started_at", "start_lat", "start_lng", "end_lat", "end_lng")

_TIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%m/%d/%Y %H:%M")

PARSE_CHUNK_ROWS = 512  # rows a parse pass converts at once: bounds the text held in memory


@dataclass(frozen=True, eq=False)
class RawTrips:
    """Rides as parsed, one entry per ride in file order."""

    id: list[str]
    start: list[datetime]
    coords: np.ndarray  # float64 (rides, 4): start lat, start lon, end lat, end lon

    def __len__(self) -> int:
        return len(self.id)


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


class PathTable(NamedTuple):
    """Each distinct path of a log, once: per path its origin and dest stand and how
    many segments it holds, and every path's segment ids, path after path."""

    origin: np.ndarray  # int64 per path
    dest: np.ndarray  # int64 per path
    count: np.ndarray  # int64 per path
    segments: np.ndarray  # int64


class SegmentTable(NamedTuple):
    """Each segment a path table uses, once, by ascending id: its two end nodes,
    the lower first, and its length."""

    id: np.ndarray  # int64
    u: np.ndarray  # int64
    v: np.ndarray  # int64, >= u
    length_m: np.ndarray  # float64


class ServiceSchedule(NamedTuple):
    returns: np.ndarray  # int64: trip rows by end minute, ties in row order
    returned: np.ndarray  # int64 per row: how many of `returns` end by its start
    net: np.ndarray  # int64 per row: returns to its origin by its start, less departures up to it


@dataclass(eq=False)
class TripLog:
    """Cleaned trips as columns, one entry per trip row, sorted by start minute
    so row order is service order, and the tables of its triplog file. `path`
    indexes `path_table`, which holds each distinct path once; a trip's stands
    and duration are gathered from its path's."""

    ids: list[str]
    start_min: np.ndarray  # int64
    path: np.ndarray  # int64 path number in path_table
    path_table: PathTable
    segment_table: SegmentTable  # lists each segment of path_table
    stands: list[Stand]
    horizon: tuple[int, int]
    speed_m_per_min: float
    drop_counts: dict[str, int] = field(default_factory=dict)
    network_sha256: str | None = None  # of the network the trips were routed on

    @property
    def num_stands(self) -> int:
        return len(self.stands)

    @cached_property
    def segment_row(self) -> np.ndarray:
        """int64 per entry of the path table: its segment's row of the segment table.
        MalformedInputError where the segment table does not list the segment."""
        ids, segments = self.segment_table.id, self.path_table.segments
        row = np.searchsorted(ids, segments)
        missing = np.flatnonzero(np.append(ids, -1)[row] != segments)  # ids are >= 0
        if len(missing):
            raise MalformedInputError(
                f"paths.segments holds segment {segments[missing[0]]}, which segments.id does not list"
            )
        return row

    @cached_property
    def entry_length_m(self) -> np.ndarray:  # float64 per entry of the path table: its segment's length
        return self.segment_table.length_m[self.segment_row]

    @cached_property
    def path_nodes(self) -> np.ndarray:
        """int64, count + 1 per path: each path's nodes, path after path, walked from
        its origin stand's node. MalformedInputError where a segment does not touch
        the node before it, or a walk ends off its dest stand's node. Loops over
        places in a path, not over paths."""
        table, row = self.path_table, self.segment_row
        u, v = self.segment_table.u[row], self.segment_table.v[row]
        stand_node = np.fromiter(map(attrgetter("node"), self.stands), np.int64, len(self.stands))
        first = np.cumsum(table.count) - table.count  # each path's first entry
        start = first + np.arange(len(table.count))  # and its first node: each path before has one more node
        node = np.empty(len(table.segments) + len(table.count), dtype=np.int64)
        node[start] = stand_node[table.origin]
        for place in range(int(table.count.max(initial=0))):
            on = np.flatnonzero(table.count > place)
            at, before = first[on] + place, node[start[on] + place]
            off = np.flatnonzero((before != u[at]) & (before != v[at]))
            if len(off):
                raise MalformedInputError(
                    f"paths.segments holds segment {table.segments[at[off[0]]]} at place {place} of path "
                    f"{on[off[0]]}, which does not touch node {before[off[0]]} before it"
                )
            node[start[on] + place + 1] = np.where(before == u[at], v[at], u[at])
        end = start + table.count
        off = np.flatnonzero(node[end] != stand_node[table.dest])
        if len(off):
            i = off[0]
            raise MalformedInputError(
                f"paths.dest holds stand {table.dest[i]} for path {i}, at node {stand_node[table.dest[i]]}, "
                f"but the path ends at node {node[end[i]]}"
            )
        return node

    @cached_property
    def origin(self) -> np.ndarray:  # int64 per trip row: its path's origin stand
        return self.path_table.origin[self.path]

    @cached_property
    def dest(self) -> np.ndarray:  # int64 per trip row: its path's dest stand
        return self.path_table.dest[self.path]

    @cached_property
    def path_distance_m(self) -> np.ndarray:
        """float64 per path: its entry lengths added left to right from 0.0."""
        return _distance_along(self.path_table.count, self.entry_length_m)[1]

    @cached_property
    def duration_min(self) -> np.ndarray:
        """int64 per trip row, >= 1: its path's ride time in whole minutes."""
        return _duration_min(self.path_distance_m, self.speed_m_per_min)[self.path]

    @cached_property
    def paths(self) -> list[Path]:
        """The path table as Path views, for `trips` and callers outside the package;
        the package reads `path_table`."""
        table = self.path_table
        segments, lengths, nodes = table.segments.tolist(), self.entry_length_m.tolist(), self.path_nodes.tolist()
        paths, first = [], 0
        for i, (count, distance) in enumerate(zip(table.count.tolist(), self.path_distance_m.tolist())):
            end = first + count
            path_nodes = tuple(nodes[first + i : end + i + 1])  # each path before i has one more node
            paths.append(Path(tuple(segments[first:end]), path_nodes, tuple(lengths[first:end]), distance))
            first = end
        return paths

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
        entry of `path_table` and gathered by each trip's `path`; each trip
        adds its start minute. A trip enters a segment at the distance before
        it along the path at constant speed, floored.
        """
        table = self.path_table
        offsets = (_distance_along(table.count, self.entry_length_m)[0] // self.speed_m_per_min).astype(np.int64)
        counts = table.count[self.path]
        trip = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # an event's row in the table: where its path starts there, plus its place in its trip
        path_first, trip_first = np.cumsum(table.count) - table.count, np.cumsum(counts) - counts
        flat = np.repeat(path_first[self.path] - trip_first, counts) + np.arange(len(trip))
        return TripEvents(trip, table.segments[flat], self.start_min[trip] + offsets[flat])

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


def _timestamp_column(texts: list) -> list[datetime | None]:
    """Each text as a start time, None where it is missing or unreadable; one
    fromisoformat pass unless a text needs the other formats."""
    try:
        return list(map(datetime.fromisoformat, map(str.strip, texts)))
    except (TypeError, ValueError):
        return [_parse_timestamp(text or "") for text in texts]


def _float_column(texts: list) -> np.ndarray:
    """Each text as float64, NaN where it is missing or unreadable; one float pass
    unless a text cannot be read."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except (TypeError, ValueError):
        return np.array([_float_or_nan(text) for text in texts], dtype=np.float64)


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def parse_raw_trips(source) -> tuple[RawTrips, ParseReport]:
    """Parse a delimited trip file; rows with bad coordinates or timestamps are
    dropped and counted, never fatal. Missing required columns are fatal.

    Rows follow read_table: blank rows are neither counted nor numbered in the
    `row-N` ids of rows without a ride_id, a field a short row lacks is
    missing, and extra fields are ignored. Rows are converted
    `PARSE_CHUNK_ROWS` at a time, a column at a time.
    """
    columns, rows = read_table(source)
    missing = [c for c in REQUIRED_TRIP_COLUMNS if c not in columns]
    if missing:
        raise MalformedInputError(f"trip file is missing columns {missing}")
    coord_cols = [columns[c] for c in ("start_lat", "start_lng", "end_lat", "end_lng")]
    time_col, id_col = columns["started_at"], columns.get("ride_id")
    width = max(*coord_cols, time_col, id_col or 0) + 1

    ids: list[str] = []
    starts: list[datetime] = []
    coords = [np.empty((0, 4))]
    rows_read = missing_coords = bad_timestamp = 0
    for chunk in iter(lambda: list(islice(rows, PARSE_CHUNK_ROWS)), []):
        if min(map(len, chunk)) < width:
            for row in chunk:
                row += [None] * (width - len(row))
        xy = np.column_stack([_float_column(list(map(itemgetter(c), chunk))) for c in coord_cols])
        kept = np.isfinite(xy).all(axis=1)
        times = _timestamp_column(list(compress(map(itemgetter(time_col), chunk), kept)))
        timed = np.fromiter(map(bool, times), bool, len(times))  # a datetime is never false
        missing_coords += len(chunk) - len(times)
        bad_timestamp += len(times) - int(timed.sum())
        kept[kept] = timed
        starts += compress(times, timed)
        coords.append(xy[kept])
        numbers = (np.flatnonzero(kept) + rows_read + 1).tolist()
        if id_col is None:
            ids += [f"row-{n}" for n in numbers]
        else:
            texts = compress(map(itemgetter(id_col), chunk), kept)
            ids += [text or f"row-{n}" for text, n in zip(texts, numbers)]
        rows_read += len(chunk)
    raw = RawTrips(ids, starts, np.concatenate(coords))
    return raw, ParseReport(rows_read, len(raw), missing_coords, bad_timestamp)


def clean_trips(
    raw: RawTrips,
    net: RoadNetwork,
    speed_kmh: float = DEFAULT_SPEED_KMH,
    min_km: float = DEFAULT_MIN_KM,
    max_km: float = DEFAULT_MAX_KM,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> TripLog:
    """Snap, route, and filter raw trips into a TripLog, in array passes over
    the columns of `raw`.

    A log covers one service day: trips starting on another date than the
    earliest trip are dropped as `other_day` before anything else, since
    start times are minutes of the day. Distance bounds are inclusive.
    Durations round up, to at least one minute even for a trip that ends at
    its start stand, so a bike is never idle before it physically arrives.
    Each distinct endpoint coordinate is snapped once, and stand ids are
    assigned in ascending snapped-node order, so they do not depend on row
    order. Routing runs one Dijkstra per distinct destination
    (network.route_pairs). Trips of one (origin node, dest node) pair share
    their path, so their drop reason is worked out once per pair, and they
    share one entry of the path table, which lists paths in
    order of first use in service order (start minute, ties in row order); a
    path starts at its origin and ends at its dest, so distinct pairs are
    distinct paths.
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

    n = len(raw)
    day = np.fromiter(map(datetime.toordinal, raw.start), np.int64, n)
    rows = np.flatnonzero(day == (day.min() if n else 0))  # the earliest trip's day
    hour, minute = (np.fromiter(map(attrgetter(unit), raw.start), np.int64, n) for unit in ("hour", "minute"))
    start_min = (60 * hour + minute)[rows]
    drops = dict.fromkeys(("other_day", "window", "too_short", "too_long", "unreachable"), 0)
    drops["other_day"] = n - len(rows)

    # each distinct (lat, lon) as one complex key; -0.0 equals 0.0 there, and both snap alike
    ends = raw.coords[rows].reshape(-1, 2)
    coord, coord_of_end = np.unique(ends.view(np.complex128).ravel(), return_inverse=True)
    node_of_coord = np.array(
        [nearest_node(net, lat, lon) for lat, lon in zip(coord.real.tolist(), coord.imag.tolist())],
        dtype=np.int64,
    )
    stand_nodes, stand_of_coord = np.unique(node_of_coord, return_inverse=True)
    stands = [Stand(i, node) for i, node in enumerate(stand_nodes.tolist())]
    trip_stands = stand_of_coord[coord_of_end].reshape(-1, 2)

    inside = np.flatnonzero((t0 <= start_min) & (start_min <= t_end))
    drops["window"] = len(rows) - len(inside)
    order = inside[np.argsort(start_min[inside], kind="stable")]  # service order
    rows, start_min, trip_stands = rows[order], start_min[order], trip_stands[order]
    pair_key = trip_stands[:, 0] * len(stands) + trip_stands[:, 1]
    pair_key, first, pair_of_trip = np.unique(pair_key, return_index=True, return_inverse=True)
    pair_nodes = list(map(tuple, stand_nodes[trip_stands[first]].tolist()))  # (origin, dest) per pair
    routed = route_pairs(net, pair_nodes)
    found = [routed.get(pair) for pair in pair_nodes]
    distance_m = np.array([math.nan if p is None else p.distance_m for p in found], dtype=np.float64)

    # fate per distinct pair, counted once per trip of the pair
    per_pair = np.bincount(pair_of_trip, minlength=len(pair_key))
    keep = (min_m <= distance_m) & (distance_m <= max_m)  # NaN, unreachable, fails both
    drops["too_short"] = int(per_pair[distance_m < min_m].sum())
    drops["too_long"] = int(per_pair[distance_m > max_m].sum())
    drops["unreachable"] = int(per_pair[np.isnan(distance_m)].sum())
    table_pairs = np.flatnonzero(keep)
    table_pairs = table_pairs[np.argsort(first[table_pairs])]  # order of first use
    path_of_pair = np.zeros(len(pair_key), dtype=np.int64)
    path_of_pair[table_pairs] = np.arange(len(table_pairs))

    kept = keep[pair_of_trip]
    path_segments = [found[i].segments for i in table_pairs.tolist()]
    segments = np.fromiter(chain.from_iterable(path_segments), np.int64)
    ids = np.flatnonzero(np.bincount(segments, minlength=net.num_segments))  # in use; np.unique imports numpy.ma
    u, v = net.seg_u[ids], net.seg_v[ids]
    return TripLog(
        np.array(raw.id, dtype=object)[rows[kept]].tolist(),
        start_min[kept],
        path_of_pair[pair_of_trip[kept]],
        PathTable(*trip_stands[first[table_pairs]].T, np.array(list(map(len, path_segments)), np.int64), segments),
        SegmentTable(ids, np.minimum(u, v), np.maximum(u, v), net.seg_length_m[ids]),
        stands,
        window,
        speed_m_per_min,
        drops,
        network_sha256(net),
    )


def _duration_min(distance_m: np.ndarray, speed_m_per_min: float) -> np.ndarray:
    """Whole minutes to ride each of `distance_m` at the speed, rounded up and at
    least one, so a bike is never idle before it physically arrives."""
    return np.maximum(1.0, np.ceil(distance_m / speed_m_per_min)).astype(np.int64)


def _distance_along(count: np.ndarray, length_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metres along its path before each of the entry lengths `length_m`, which hold
    `count` entries per path, path after path, and each path's length. Each path's
    lengths are added left to right from 0.0, as routing adds them
    (network._path_along) and a trip rides them; a running sum over all paths less
    each path's start would round otherwise. Loops over places in a path, not over paths."""
    before = np.zeros_like(length_m)
    total = np.zeros(len(count))
    first = np.cumsum(count) - count
    for place in range(int(count.max(initial=0))):
        on = np.flatnonzero(count > place)
        at = first[on] + place
        before[at] = total[on]
        total[on] += length_m[at]
    return before, total


def save_triplog(log: TripLog, path) -> None:
    """Write a velosense-triplog-v6 file, which holds each fact of `log` once: the
    header, the stand table, the segment table, the path table (per path its
    stands and segment count, then its segment ids, path after path), and per
    trip its id, start minute and path."""
    doc = {
        "format": TRIPLOG_FORMAT,
        "network_sha256": log.network_sha256,
        "horizon": log.horizon,
        "speed_m_per_min": log.speed_m_per_min,
        "drop_counts": log.drop_counts,
        "stands": [{"stand": s.id, "node": s.node} for s in log.stands],
        "segments": log.segment_table._asdict(),
        "paths": log.path_table._asdict(),
        "trips": {"id": log.ids, "start_min": log.start_min, "path": log.path},
    }
    write_json(path, doc)


def load_triplog(path) -> TripLog:
    """Read a velosense-triplog-v6 file, checking each column once, and check that
    its tables agree by deriving what the file does not store: each path entry's
    length and each path's nodes and distance. Any other format, v5 and older
    included, is rejected: `ingest` writes v6."""
    with read_artifact(path, TRIPLOG_FORMAT, "ingest") as doc:
        horizon, speed = doc["horizon"], doc["speed_m_per_min"]
        pair = isinstance(horizon, list) and len(horizon) == 2 and set(map(type, horizon)) == {int}
        if not (pair and horizon[0] < horizon[1]):
            raise MalformedInputError(f"{path}: horizon {horizon!r} must be two integers t0 < t_end")
        t0, t_end = horizon
        if not (type(speed) is float and math.isfinite(speed) and speed > 0):
            raise MalformedInputError(f"{path}: speed_m_per_min {speed!r} must be a finite float > 0")
        stands = _stand_table(doc["stands"], path)
        segments = _segment_table(doc["segments"], path)
        table = _path_table(doc["paths"], len(stands), path)
        trips = doc["trips"]
        ids = str_column(trips["id"], path, "trips.id")
        start = int_column(trips["start_min"], path, "trips.start_min", lo=t0, hi=t_end + 1)
        trip_path = int_column(trips["path"], path, "trips.path", hi=len(table.count))
        if not len(ids) == len(start) == len(trip_path):
            raise MalformedInputError(f"{path}: the trip columns differ in length")
        unsorted = np.flatnonzero(np.diff(start) < 0)
        if len(unsorted):
            first = ids[unsorted[0] + 1]
            raise MalformedInputError(f"{path}: trips are not sorted by start minute at trip {first}")
        log = TripLog(
            ids, start, trip_path, table, segments, stands, (t0, t_end), speed, doc.get("drop_counts", {}),
            doc.get("network_sha256"),
        )
    with blamed_on(path):
        log.path_nodes  # each path's segments are listed and walk from its origin to its dest
        far = np.flatnonzero(~(log.path_distance_m / speed < 2.0**63))  # an inf sum too
        if len(far):
            raise MalformedInputError(
                f"segments.length_m adds up to {log.path_distance_m[far[0]]} m along path {far[0]}, "
                f"too far for int64 minutes at {speed} m/min"
            )
    return log


def _segment_table(columns: dict, source) -> SegmentTable:
    """The segment table of a v6 file: ids integers >= 0, strictly ascending, each
    with its two end nodes, the lower first, and a length, a finite number > 0."""
    ids = int_column(columns["id"], source, "segments.id")
    u = int_column(columns["u"], source, "segments.u")
    v = int_column(columns["v"], source, "segments.v")
    lengths = columns["length_m"]
    typed = isinstance(lengths, list) and set(map(type, lengths)) <= {int, float}  # a bool is neither
    length_m = np.array(lengths if typed else [], dtype=np.float64)  # an int past float raises OverflowError
    if not typed or not ((0 < length_m) & (length_m < math.inf)).all():
        raise MalformedInputError(f"{source}: segments.length_m must hold finite numbers > 0")
    for name, column in (("segments.u", u), ("segments.v", v), ("segments.length_m", length_m)):
        if len(column) != len(ids):
            raise MalformedInputError(
                f"{source}: {name} holds {len(column)} entries, but the segments of segments.id need {len(ids)}"
            )
    repeated = np.flatnonzero(np.diff(ids) <= 0)
    if len(repeated):
        at = repeated[0]
        raise MalformedInputError(
            f"{source}: segments.id holds {ids[at + 1]} after {ids[at]}; ids must be strictly ascending"
        )
    reversed_ = np.flatnonzero(u > v)
    if len(reversed_):
        at = reversed_[0]
        raise MalformedInputError(
            f"{source}: segments.u holds node {u[at]} of segment {ids[at]}, above its segments.v node {v[at]}"
        )
    return SegmentTable(ids, u, v, length_m)


def _path_table(columns: dict, num_stands: int, source) -> PathTable:
    """The path table of a v6 file, column by column: per path its `origin` and
    `dest` stands and its `count` of segments, and path after path its `segments`,
    count entries each. `TripLog.path_nodes` checks them against the segment table."""
    segments = int_column(columns["segments"], source, "paths.segments")
    count = int_column(columns["count"], source, "paths.count", hi=len(segments) + 1)
    origin = int_column(columns["origin"], source, "paths.origin", hi=num_stands)
    dest = int_column(columns["dest"], source, "paths.dest", hi=num_stands)
    expected = {
        "paths.origin": (len(origin), len(count)),
        "paths.dest": (len(dest), len(count)),
        "paths.segments": (len(segments), int(count.sum())),  # count <= len(segments) entry by entry: no overflow
    }
    for name, (found, needed) in expected.items():
        if found != needed:
            raise MalformedInputError(
                f"{source}: {name} holds {found} entries, but the {len(count)} paths of paths.count need {needed}"
            )
    return PathTable(origin, dest, count, segments)


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
