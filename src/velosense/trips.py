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

import csv
import hashlib
import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MalformedInputError, int_column, read_artifact, write_json
from .network import Path, RoadNetwork, nearest_node, network_sha256, route_pairs

TRIPLOG_FORMAT = "velosense-triplog-v2"

DEFAULT_SPEED_KMH = 13.0
DEFAULT_MIN_KM = 0.5
DEFAULT_MAX_KM = 5.0
DEFAULT_WINDOW = (360, 1320)  # 6 am .. 10 pm, minutes from midnight

REQUIRED_TRIP_COLUMNS = ("started_at", "start_lat", "start_lng", "end_lat", "end_lng")

_TIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%m/%d/%Y %H:%M")


@dataclass(frozen=True)
class RawTrip:
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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


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

    trip: np.ndarray  # int64: row in TripLog.trips
    segment: np.ndarray  # int64
    minute: np.ndarray  # int64: entry minute


@dataclass
class TripLog:
    """Cleaned trips sorted by start minute, so row order is service order."""

    trips: list[Trip]
    stands: list[Stand]
    horizon: tuple[int, int]
    speed_m_per_min: float
    drop_counts: dict[str, int] = field(default_factory=dict)
    network_sha256: str | None = None  # of the network the trips were routed on

    @property
    def num_stands(self) -> int:
        return len(self.stands)

    @cached_property
    def events(self) -> TripEvents:
        """The traversal_times of every trip as one event table, built once per log.

        Entry offsets depend only on the path, so they are computed once per
        Path object (trips of one (origin, dest) pair share one after
        clean_trips and load_triplog); each trip adds its start minute.
        """
        table_of: dict[int, np.ndarray] = {}  # id of a Path -> int64 [segment; entry offset]
        per_trip = []
        for trip in self.trips:
            table = table_of.get(id(trip.path))
            if table is None:
                offsets = _entry_offsets(trip.path, self.speed_m_per_min)
                table = np.array([trip.path.segments, offsets], dtype=np.int64).reshape(2, -1)
                table_of[id(trip.path)] = table
            per_trip.append(table)
        segment, offset = np.concatenate(per_trip, axis=1) if per_trip else np.empty((2, 0), np.int64)
        counts = [table.shape[1] for table in per_trip]
        starts = np.array([trip.start_min for trip in self.trips], dtype=np.int64)
        rows = np.repeat(np.arange(len(per_trip), dtype=np.int64), counts)
        return TripEvents(rows, segment, np.repeat(starts, counts) + offset)


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
    dropped and counted, never fatal. Missing required columns are fatal."""
    reader = csv.DictReader(source)
    fields = reader.fieldnames or []
    missing = [c for c in REQUIRED_TRIP_COLUMNS if c not in fields]
    if missing:
        raise MalformedInputError(f"trip file is missing columns {missing}")
    has_ride_id = "ride_id" in fields

    report = ParseReport()
    trips: list[RawTrip] = []
    for row_no, row in enumerate(reader, start=1):
        report.rows_read += 1
        try:
            coords = [float(row[c]) for c in ("start_lat", "start_lng", "end_lat", "end_lng")]
            if not all(math.isfinite(c) for c in coords):
                raise ValueError
        except (TypeError, ValueError):
            report.missing_coords += 1
            continue
        started = _parse_timestamp(row["started_at"] or "")
        if started is None:
            report.bad_timestamp += 1
            continue
        trip_id = row["ride_id"] if has_ride_id and row["ride_id"] else f"row-{row_no}"
        trips.append(RawTrip(trip_id, started, coords[0], coords[1], coords[2], coords[3]))
        report.kept += 1
    return trips, report


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
    (network.route_pairs), and trips of one (origin, dest) pair share a Path.
    """
    speed_m_per_min = speed_kmh * 1000.0 / 60.0
    min_m, max_m = min_km * 1000.0, max_km * 1000.0
    t0, t_end = window

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

    in_window = []  # (raw trip, start minute, origin node, dest node)
    for rt in same_day:
        start_min = rt.start_time.hour * 60 + rt.start_time.minute
        if not t0 <= start_min <= t_end:
            drops["window"] += 1
            continue
        in_window.append(
            (rt, start_min, snap[(rt.start_lat, rt.start_lon)], snap[(rt.end_lat, rt.end_lon)])
        )

    paths = route_pairs(net, ((o_node, d_node) for _rt, _start, o_node, d_node in in_window))
    kept: list[Trip] = []
    for rt, start_min, o_node, d_node in in_window:
        path = paths.get((o_node, d_node))
        if path is None:
            drops["unreachable"] += 1
            continue
        if path.distance_m < min_m:
            drops["too_short"] += 1
            continue
        if path.distance_m > max_m:
            drops["too_long"] += 1
            continue
        duration = max(1, math.ceil(path.distance_m / speed_m_per_min))
        kept.append(
            Trip(rt.id, stand_of_node[o_node], stand_of_node[d_node], start_min, path, duration)
        )

    kept.sort(key=lambda t: t.start_min)  # stable: ties keep input order
    return TripLog(kept, stands, window, speed_m_per_min, drops, network_sha256(net))


def traversal_times(trip: Trip, speed_m_per_min: float) -> list[tuple[int, int]]:
    """(segment, enter minute) for each segment on the trip's path.

    A segment's timestamp is the minute the bike enters it: start time plus
    the cumulative distance before the segment at constant speed, floored.
    """
    offsets = _entry_offsets(trip.path, speed_m_per_min)
    return [(seg, trip.start_min + offset) for seg, offset in zip(trip.path.segments, offsets)]


def _entry_offsets(path: Path, speed_m_per_min: float) -> list[int]:
    """Minutes from the start of a trip along `path` to its entry into each segment."""
    offsets = []
    cum = 0.0
    for length in path.seg_lengths_m:
        offsets.append(int(cum // speed_m_per_min))
        cum += length
    return offsets


def save_triplog(log: TripLog, path) -> None:
    """Write a velosense-triplog-v2 file: each distinct Path once in `paths`,
    and each trip's `path` as an index into that table."""
    table: dict[Path, int] = {}
    for t in log.trips:
        table.setdefault(t.path, len(table))
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
            for p in table
        ],
        "trips": [
            {
                "id": t.id,
                "origin": t.origin,
                "dest": t.dest,
                "start_min": t.start_min,
                "duration_min": t.duration_min,
                "path": table[t.path],
            }
            for t in log.trips
        ],
    }
    write_json(path, doc)


def load_triplog(path) -> TripLog:
    """Read a velosense-triplog-v2 file; trips that name one path share its Path.
    Any other format, v1 included, is rejected: `ingest` writes v2."""
    with read_artifact(path, TRIPLOG_FORMAT, "ingest") as doc:
        paths = [
            Path(tuple(p["segments"]), tuple(p["nodes"]), tuple(p["seg_lengths_m"]), p["distance_m"])
            for p in doc["paths"]
        ]
        _check_paths(paths, path)
        stands = _stand_table(doc["stands"], path)
        trips = [
            Trip(
                t["id"],
                t["origin"],
                t["dest"],
                t["start_min"],
                _table_path(paths, t["path"], t["id"], path),
                t["duration_min"],
            )
            for t in doc["trips"]
        ]
        log = TripLog(
            trips,
            stands,
            tuple(doc["horizon"]),
            doc["speed_m_per_min"],
            doc.get("drop_counts", {}),
            doc.get("network_sha256"),
        )
        _check_trips(log, path)
    return log


def _check_paths(paths: list[Path], source) -> None:
    """Each path has one length per segment and one more node than segments."""
    for index, p in enumerate(paths):
        if not len(p.segments) == len(p.seg_lengths_m) == len(p.nodes) - 1:
            raise MalformedInputError(
                f"{source}: path {index} has {len(p.segments)} segments, "
                f"{len(p.seg_lengths_m)} segment lengths and {len(p.nodes)} nodes"
            )


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


def _table_path(paths: list[Path], index, trip_id, source) -> Path:
    # a negative index would quietly pick a path from the end of the table
    if not (isinstance(index, int) and 0 <= index < len(paths)):
        raise MalformedInputError(
            f"{source}: trip {trip_id} refers to path {index!r}, "
            f"but the log has {len(paths)} paths"
        )
    return paths[index]


def _check_trips(log: TripLog, source) -> None:
    """Reject trips that replay cannot serve or would time wrongly."""
    t0, t_end = log.horizon
    last_start = t0
    for trip in log.trips:
        fields = (trip.origin, trip.dest, trip.start_min, trip.duration_min)
        if set(map(type, fields)) != {int} or trip.duration_min < 1:  # a bool is not an int
            raise MalformedInputError(
                f"{source}: trip {trip.id} has (origin, dest, start_min, duration_min) {fields!r}, "
                "which must be integers with duration_min >= 1; re-run `velosense ingest`"
            )
        if not (0 <= trip.origin < log.num_stands and 0 <= trip.dest < log.num_stands):
            raise MalformedInputError(
                f"{source}: trip {trip.id} joins stands {trip.origin} and {trip.dest}, "
                f"but the log has {log.num_stands} stands"
            )
        if not t0 <= trip.start_min <= t_end:
            raise MalformedInputError(
                f"{source}: trip {trip.id} starts at minute {trip.start_min}, "
                f"outside the horizon [{t0}, {t_end}]"
            )
        if trip.start_min < last_start:
            raise MalformedInputError(f"{source}: trips are not sorted by start minute at {trip.id}")
        last_start = trip.start_min


def file_sha256(path) -> str:
    """SHA-256 of a file's bytes: the provenance key that ties an artifact to its triplog."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
