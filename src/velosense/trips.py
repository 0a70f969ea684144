"""Trip ingestion and cleaning: parse raw rides, snap stands, route, filter, time.

Cleaning pipeline: snap every distinct endpoint coordinate to its nearest
network node (coordinates sharing a node merge into one stand), route each
trip along the shortest path, keep trips whose routed distance and start time
fall inside the configured bounds, and recompute the end time from the routed
distance at constant speed. The reported end time in the raw data is ignored;
it cannot be reconciled with a routed trajectory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MalformedInputError, NoPathError, malformed_fields
from .network import Path, RoadNetwork, ShortestPathCache, nearest_node, network_sha256

TRIPLOG_FORMAT = "velosense-triplog-v1"

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
    duration_min: int

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
        """The traversal_times of every trip as one event table, built once per log."""
        per_trip = [traversal_times(trip, self.speed_m_per_min) for trip in self.trips]
        pairs = [event for events in per_trip for event in events]
        segment, minute = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
        rows = np.repeat(np.arange(len(per_trip), dtype=np.int64), [len(e) for e in per_trip])
        return TripEvents(rows, segment, minute)


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
    cache: ShortestPathCache | None = None,
) -> TripLog:
    """Snap, route, and filter raw trips into a TripLog.

    Distance bounds are inclusive. Durations round up so a bike is never
    idle before it physically arrives. Stand ids are assigned in ascending
    snapped-node order, so they do not depend on row order.
    """
    speed_m_per_min = speed_kmh * 1000.0 / 60.0
    min_m, max_m = min_km * 1000.0, max_km * 1000.0
    t0, t_end = window

    snap: dict[tuple[float, float], int] = {}
    for rt in raw:
        for coord in ((rt.start_lat, rt.start_lon), (rt.end_lat, rt.end_lon)):
            if coord not in snap:
                snap[coord] = nearest_node(net, coord[0], coord[1])
    stand_nodes = sorted(set(snap.values()))
    stand_of_node = {node: i for i, node in enumerate(stand_nodes)}
    stands = [Stand(i, node) for i, node in enumerate(stand_nodes)]

    if cache is None:
        cache = ShortestPathCache(net)
    drops = {"window": 0, "too_short": 0, "too_long": 0, "unreachable": 0}
    kept: list[Trip] = []
    for rt in raw:
        start_min = rt.start_time.hour * 60 + rt.start_time.minute
        if not t0 <= start_min <= t_end:
            drops["window"] += 1
            continue
        o_node = snap[(rt.start_lat, rt.start_lon)]
        d_node = snap[(rt.end_lat, rt.end_lon)]
        try:
            path = cache.get(o_node, d_node)
        except NoPathError:
            drops["unreachable"] += 1
            continue
        if path.distance_m < min_m:
            drops["too_short"] += 1
            continue
        if path.distance_m > max_m:
            drops["too_long"] += 1
            continue
        duration = math.ceil(path.distance_m / speed_m_per_min)
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
    events = []
    cum = 0.0
    for seg, length in zip(trip.path.segments, trip.path.seg_lengths_m):
        events.append((seg, trip.start_min + int(cum // speed_m_per_min)))
        cum += length
    return events


def save_triplog(log: TripLog, path) -> None:
    doc = {
        "format": TRIPLOG_FORMAT,
        "network_sha256": log.network_sha256,
        "horizon": list(log.horizon),
        "speed_m_per_min": log.speed_m_per_min,
        "drop_counts": log.drop_counts,
        "stands": [{"stand": s.id, "node": s.node} for s in log.stands],
        "trips": [
            {
                "id": t.id,
                "origin": t.origin,
                "dest": t.dest,
                "start_min": t.start_min,
                "duration_min": t.duration_min,
                "distance_m": t.path.distance_m,
                "nodes": list(t.path.nodes),
                "segments": list(t.path.segments),
                "seg_lengths_m": list(t.path.seg_lengths_m),
            }
            for t in log.trips
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_triplog(path) -> TripLog:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != TRIPLOG_FORMAT:
        raise MalformedInputError(f"expected {TRIPLOG_FORMAT}, got {doc.get('format')!r}")
    with malformed_fields(path):
        stands = [Stand(s["stand"], s["node"]) for s in doc["stands"]]
        trips = [
            Trip(
                t["id"],
                t["origin"],
                t["dest"],
                t["start_min"],
                Path(
                    tuple(t["segments"]),
                    tuple(t["nodes"]),
                    tuple(t["seg_lengths_m"]),
                    t["distance_m"],
                ),
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


def _check_trips(log: TripLog, source) -> None:
    """Reject trips that replay cannot serve or would time wrongly."""
    t0, t_end = log.horizon
    last_start = t0
    for trip in log.trips:
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
        path = trip.path
        if not len(path.segments) == len(path.seg_lengths_m) == len(path.nodes) - 1:
            raise MalformedInputError(
                f"{source}: trip {trip.id} has {len(path.segments)} segments, "
                f"{len(path.seg_lengths_m)} segment lengths and {len(path.nodes)} nodes"
            )


def file_sha256(path) -> str:
    """SHA-256 of a file's bytes: the provenance key that ties an artifact to its triplog."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
