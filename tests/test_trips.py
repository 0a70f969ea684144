import hashlib
import io
import json
import math
from argparse import Namespace
from dataclasses import asdict
from datetime import datetime, timedelta
from functools import cached_property

import numpy as np
import pytest

from velosense.cli import _load_routed_net
from velosense.errors import MalformedInputError
from velosense.fleet_sim import initial_bike_counts
from velosense.network import build_network, route_pairs
from velosense.synth import SynthConfig, generate, grid_network, write_network_csv
from velosense.trips import (
    PARSE_CHUNK_ROWS,
    Path,
    RawTrips,
    Stand,
    Trip,
    TripLog,
    clean_trips,
    load_triplog,
    parse_raw_trips,
    save_triplog,
)

from oracles import (
    TRIPLOG_V4_SHA256,
    clean_trips_by_row,
    parse_trips_by_dict,
    paths_of_triplog_v4,
    save_triplog_v4,
    traversal_times,
    walked_path,
)
from trip_logs import path_tables, raw_concat, raw_rows, trip_log

CITI_HEADER = (
    "ride_id,rideable_type,started_at,ended_at,start_station_name,start_station_id,"
    "end_station_name,end_station_id,start_lat,start_lng,end_lat,end_lng,member_casual"
)

SPEED = 13_000.0 / 60.0  # m/min at 13 km/h


def two_node_net(length_m):
    nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99)]
    return build_network(nodes, [(0, 1, length_m)])


def raw_csv(rows, header="started_at,start_lat,start_lng,end_lat,end_lng"):
    return io.StringIO(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def make_row(start="2024-03-01 06:30:00", s=(40.0, -74.0), e=(40.0, -73.99)):
    return f"{start},{s[0]},{s[1]},{e[0]},{e[1]}"


class TestParse:
    def test_empty_file_valid_header(self):
        trips, report = parse_raw_trips(raw_csv([]))
        assert (len(trips), trips.id, trips.start, trips.coords.shape) == (0, [], [], (0, 4))
        assert asdict(report) == {
            "rows_read": 0,
            "kept": 0,
            "missing_coords": 0,
            "bad_timestamp": 0,
        }

    def test_blank_coordinate_dropped_and_counted(self):
        rows = [make_row(), "2024-03-01 07:00:00,40.0,-74.0,,-73.99", make_row()]
        trips, report = parse_raw_trips(raw_csv(rows))
        assert len(trips) == 2
        assert report.missing_coords == 1
        assert report.rows_read == 3

    def test_bad_timestamp_dropped_and_counted(self):
        rows = [make_row(start="yesterday-ish"), make_row()]
        trips, report = parse_raw_trips(raw_csv(rows))
        assert len(trips) == 1
        assert report.bad_timestamp == 1

    def test_citibike_schema_superset(self):
        row = (
            "ABC123,classic_bike,2024-03-01 06:15:03,2024-03-01 06:32:11,"
            "W 4 St,5,W 10 St,9,40.0,-74.0,40.0,-73.99,member"
        )
        trips, report = parse_raw_trips(raw_csv([row], header=CITI_HEADER))
        assert report.kept == 1
        assert trips.id[0] == "ABC123"
        assert trips.start[0].minute == 15

    def test_fractional_seconds_accepted(self):
        trips, report = parse_raw_trips(raw_csv([make_row(start="2024-03-01 06:15:03.123")]))
        assert report.kept == 1

    def test_missing_columns_fatal(self):
        with pytest.raises(MalformedInputError, match="missing columns"):
            parse_raw_trips(io.StringIO("started_at,start_lat\n"))


HEADER = "ride_id,started_at,start_lat,start_lng,end_lat,end_lng"

# Trip files covering every row rule of the reader; each parses as csv.DictReader reads it.
MESSY_TRIP_FILES = {
    "mixed": "\n".join([
        HEADER,
        "a1,2024-03-01 06:30:00,40.0,-74.0,40.0,-73.99",
        "",
        "a2,2024-03-01T06:31:00,40.001,-74.0,40.0,-73.99",
        ",03/01/2024 06:32,40.0,-74.0,40.0,-73.99",
        "a4,2024-03-01 06:33:03.123456,40.0,-74.0,40.0,-73.99,extra,fields",
        "a5,  2024-03-01 06:34:00 , 40.0 ,-74.0,\t40.0,-73.99 ",
        "a6,2024-03-01 06:35:00,nan,-74.0,40.0,-73.99",
        "a7,2024-03-01 06:36:00,40.0,-inf,40.0,-73.99",
        "a8,2024-03-01 06:37:00,1_000.5,-74.0,40.0,-7_3.99",
        "a9,2024-03-01 06:38:00,40.0,-74.0",
        "a10,2024-03-01 06:39:00",
        "a11",
        " ",
        "a12,not a time,40.0,-74.0,40.0,-73.99",
        "a13,,40.0,-74.0,40.0,-73.99",
        ",2024-03-01 06:40:00,40.0,-74.0,40.0,-73.99",
        '"a,14","2024-03-01 06:41:00","40.0",-74.0,40.0,-73.99',
        "a15,2024-03-01 06:42,40.0,-74.0,40.0,-73.99",
        "a16,2024-13-01 06:43:00,40.0,-74.0,40.0,-73.99",
        "",
        "",
    ]),
    "repeated-name": "\n".join([
        HEADER + ",start_lat,ride_id",
        "a1,2024-03-01 06:30:00,1.0,-74.0,40.0,-73.99,40.5,b1",
        "a2,2024-03-01 06:31:00,1.0,-74.0,40.0,-73.99,40.5",
        "a3,2024-03-01 06:32:00,1.0,-74.0,40.0,-73.99,40.5,",
        "a4,2024-03-01 06:33:00,1.0,-74.0,40.0,-73.99,oops,b4",
    ]) + "\n",
    "no-ride-id": "\r\n".join([
        "end_lng,end_lat,start_lng,start_lat,started_at",
        "",
        "-73.99,40.0,-74.0,40.0,2024-03-01 06:30:00",
        "-73.99,40.0,-74.0,40.0",
        "",
        "-73.99,40.0,-74.0,40.0,2024-03-01 06:31:00",
    ]) + "\r\n\r\n",
    "header-only": HEADER + "\n\n\n",
    "empty": "",
    "blank-first-line": "\n" + HEADER + "\na1,2024-03-01 06:30:00,40.0,-74.0,40.0,-73.99\n",
}


class TestParseMatchesRowByRowReader:
    @pytest.mark.parametrize("name", sorted(MESSY_TRIP_FILES))
    def test_trips_and_report_equal_to_the_reference(self, name):
        text = MESSY_TRIP_FILES[name]
        try:
            expected, counts = parse_trips_by_dict(io.StringIO(text))
        except ValueError:
            with pytest.raises(MalformedInputError, match="missing columns"):
                parse_raw_trips(io.StringIO(text))
            return
        trips, report = parse_raw_trips(io.StringIO(text))
        got = [(i, start, *xy) for i, start, xy in zip(trips.id, trips.start, trips.coords.tolist())]
        assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0, which == does not
        assert asdict(report) == counts

    def test_corpus_reaches_every_outcome(self):
        _trips, counts = parse_trips_by_dict(io.StringIO(MESSY_TRIP_FILES["mixed"]))
        assert counts == {"rows_read": 18, "kept": 9, "missing_coords": 6, "bad_timestamp": 3}

CHUNK_BOUNDARIES = (PARSE_CHUNK_ROWS, 2 * PARSE_CHUNK_ROWS)  # the last rows of the first two chunks


def rows_across_chunk_boundaries(header_has_ride_id):
    """Over two chunks' worth of trip rows, with rows of every kind the reader
    drops or renames on both sides of each chunk boundary, and blank lines
    between them, which read_table skips before chunking."""
    messy = [
        "r{k},2024-03-01 06:30:00,40.0",  # short: a coordinate is missing
        "r{k},2024-03-01 06:31:00,nan,-74.0,40.0,-73.99",
        "r{k},2024-03-01 06:32:00,40.0,-74.0,inf,-73.99",
        "r{k},not a time,40.0,-74.0,40.0,-73.99",
        ",2024-03-01 06:33:00,40.0,-74.0,40.0,-73.99",  # no ride_id
        "r{k},03/01/2024 06:34,-0.0,0.0,40.0,-7_3.99",  # the other time format
        "r{k}",
        "r{k},2024-03-01 06:35:00,40.0,-74.0,,-73.99",
        "r{k},2024-03-02 06:36:00,40.0,-74.0,40.0,-73.99",  # kept: the day is clean_trips' to check
    ]
    offset = {b + o: o for b in CHUNK_BOUNDARIES for o in range(-len(messy) + 1, len(messy) + 1)}
    lines = ["ride_id,started_at,start_lat,start_lng,end_lat,end_lng"]
    for k in range(1, 2 * PARSE_CHUNK_ROWS + 300):  # k counts non-blank rows
        if k in offset:  # row k is the last of its chunk at offset 0
            lines.append(messy[offset[k] % len(messy)].format(k=k))
            if k % 3 == 0:
                lines.append("")
        else:
            lines.append(f"r{k},2024-03-01 {6 + k % 16:02d}:{k % 60:02d}:00,{40 + k * 1e-6!r},-74.0,40.0,-73.99")
    if not header_has_ride_id:  # a row's first field becomes an ignored extra one
        lines[0] = "extra,started_at,start_lat,start_lng,end_lat,end_lng"
    return "\n".join(lines) + "\n"


class TestParseAcrossChunks:
    @pytest.mark.parametrize("header_has_ride_id", [True, False], ids=["ride-id", "no-ride-id"])
    def test_columns_and_report_equal_to_the_reference(self, header_has_ride_id):
        text = rows_across_chunk_boundaries(header_has_ride_id)
        expected, counts = parse_trips_by_dict(io.StringIO(text))
        trips, report = parse_raw_trips(io.StringIO(text))
        assert counts["rows_read"] > 2 * PARSE_CHUNK_ROWS
        got = [(i, start, *xy) for i, start, xy in zip(trips.id, trips.start, trips.coords.tolist())]
        assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0, which == does not
        assert asdict(report) == counts
        assert trips.coords.dtype == np.float64 and trips.coords.shape == (len(trips), 4)
        # row-N counts non-blank rows over the whole file, not within a chunk
        renamed = {b + o for b in CHUNK_BOUNDARIES for o in (-5, 4)}  # the rows without a ride_id
        assert {f"row-{k}" for k in renamed} <= set(trips.id)
        assert counts["missing_coords"] > 0 and counts["bad_timestamp"] > 0


class TestClean:
    def test_same_endpoint_filtered_as_too_short(self):
        net = two_node_net(1000.0)
        rows = [make_row(e=(40.0, -74.0))]
        raw, _ = parse_raw_trips(raw_csv(rows))
        log = clean_trips(raw, net)
        assert not log.trips
        assert log.drop_counts["too_short"] == 1

    def test_minimum_distance_kept_with_rounded_up_duration(self):
        net = two_node_net(500.0)
        raw, _ = parse_raw_trips(raw_csv([make_row(start="2024-03-01 06:00:00")]))
        log = clean_trips(raw, net)
        assert len(log.trips) == 1
        trip = log.trips[0]
        assert trip.start_min == 360
        assert trip.duration_min == math.ceil(500.0 / SPEED) == 3
        assert trip.end_min == 363

    def test_window_boundaries_inclusive(self):
        net = two_node_net(1000.0)
        rows = [
            make_row(start="2024-03-01 05:59:00"),
            make_row(start="2024-03-01 06:00:00"),
            make_row(start="2024-03-01 22:00:00"),
            make_row(start="2024-03-01 22:01:00"),
        ]
        raw, _ = parse_raw_trips(raw_csv(rows))
        log = clean_trips(raw, net)
        assert [t.start_min for t in log.trips] == [360, 1320]
        assert log.drop_counts["window"] == 2

    @pytest.mark.parametrize(
        "window, speed_kmh",
        [
            ((600, 600), 13.0),
            ((600, 540), 13.0),
            ((360, 1320), 0.0),
            ((360, 1320), -5.0),
            ((360, 1320), math.inf),
        ],
        ids=["window-of-one-minute", "window-reversed", "speed-zero", "speed-negative", "speed-infinite"],
    )
    def test_header_the_loader_rejects_is_not_written(self, window, speed_kmh):
        raw, _ = parse_raw_trips(raw_csv([make_row()]))
        with pytest.raises(ValueError, match="ends after it starts and a finite speed > 0"):
            clean_trips(raw, two_node_net(1000.0), speed_kmh=speed_kmh, window=window)

    def test_distance_bounds_inclusive(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99), (2, 40.0, -73.98)]
        net = build_network(nodes, [(0, 1, 2500.0), (1, 2, 2500.0)])
        rows = [make_row(e=(40.0, -73.98))]  # routed 5000.0 m exactly
        raw, _ = parse_raw_trips(raw_csv(rows))
        log = clean_trips(raw, net)
        assert len(log.trips) == 1
        assert log.trips[0].path.distance_m == 5000.0

    def test_too_long_dropped(self):
        net = two_node_net(5001.0)
        raw, _ = parse_raw_trips(raw_csv([make_row()]))
        log = clean_trips(raw, net)
        assert not log.trips
        assert log.drop_counts["too_long"] == 1

    def test_unreachable_dropped_not_fatal(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99), (2, 41.0, -74.0), (3, 41.0, -73.99)]
        net = build_network(nodes, [(0, 1, 800.0), (2, 3, 800.0)])
        rows = [make_row(e=(41.0, -74.0)), make_row()]
        raw, _ = parse_raw_trips(raw_csv(rows))
        log = clean_trips(raw, net)
        assert len(log.trips) == 1
        assert log.drop_counts["unreachable"] == 1

    def test_stands_merge_when_snapping_to_same_node(self):
        net = two_node_net(1000.0)
        rows = [make_row(s=(40.0001, -74.0)), make_row(s=(39.9999, -74.0))]
        raw, _ = parse_raw_trips(raw_csv(rows))
        log = clean_trips(raw, net)
        assert log.num_stands == 2  # both starts merged onto node 0
        assert {s.node for s in log.stands} == {0, 1}
        assert log.trips[0].origin == log.trips[1].origin

    def test_row_order_does_not_change_kept_set_or_stands(self, small_scenario):
        net, _ = small_scenario
        from velosense.synth import SynthConfig, generate

        _, raw = generate(SynthConfig(8, 8, 300.0, 8, 120, seed=5))
        shuffled = raw_rows(raw, np.random.default_rng(1).permutation(len(raw)))
        log_a = clean_trips(raw, net)
        log_b = clean_trips(shuffled, net)
        key = lambda t: (t.id, t.origin, t.dest, t.start_min, t.path.segments)
        assert sorted(map(key, log_a.trips)) == sorted(map(key, log_b.trips))
        assert log_a.stands == log_b.stands

    def test_other_day_rows_dropped(self, small_scenario):
        net, _log = small_scenario
        from velosense.fleet_sim import initial_bike_counts
        from velosense.synth import SynthConfig, generate

        _, day_one = generate(SynthConfig(8, 8, 300.0, 8, 400, seed=11))
        day_two = RawTrips(day_one.id, [start + timedelta(days=1) for start in day_one.start], day_one.coords)
        one = clean_trips(day_one, net)
        both = clean_trips(raw_concat(day_two, day_one), net)
        assert both.drop_counts["other_day"] == len(day_two)
        assert one.drop_counts["other_day"] == 0
        assert {k: v for k, v in both.drop_counts.items() if k != "other_day"} == {
            k: v for k, v in one.drop_counts.items() if k != "other_day"
        }
        assert both.stands == one.stands and both.trips == one.trips
        assert initial_bike_counts(both).b == initial_bike_counts(one).b

    def test_one_dijkstra_per_destination(self, small_scenario, monkeypatch):
        import velosense.network as network
        from velosense.synth import SynthConfig, generate

        net, _log = small_scenario
        _, raw = generate(SynthConfig(8, 8, 300.0, 8, 400, seed=11))
        roots = []
        dijkstra = network.single_source_distances

        def counting(net, root):
            roots.append(root)
            return dijkstra(net, root)

        monkeypatch.setattr(network, "single_source_distances", counting)
        clean_trips(raw, net)
        dests = {network.nearest_node(net, lat, lon) for lat, lon in raw.coords[:, 2:].tolist()}
        assert sorted(roots) == sorted(dests)

    def test_deterministic(self, small_scenario):
        net, log = small_scenario
        from velosense.synth import SynthConfig, generate

        _, raw = generate(SynthConfig(8, 8, 300.0, 8, 400, seed=11))
        again = clean_trips(raw, net)
        assert [t.id for t in again.trips] == [t.id for t in log.trips]

    def test_trip_invariants_hold_after_cleaning(self, small_scenario):
        _net, log = small_scenario
        t0, t_end = log.horizon
        for trip in log.trips:
            assert t0 <= trip.start_min <= t_end
            assert 500.0 <= trip.path.distance_m <= 5000.0
            assert trip.duration_min == math.ceil(trip.path.distance_m / log.speed_m_per_min)
            assert trip.duration_min >= 1
            assert trip.end_min == trip.start_min + trip.duration_min
        starts = [t.start_min for t in log.trips]
        assert starts == sorted(starts)


def assert_cleaned_as_by_row(raw, net, **bounds):
    """clean_trips on `raw` gives the row-by-row reference's columns, path table,
    stands and drop counts, in its order; returns the log."""
    log = clean_trips(raw, net, **bounds)
    ref = clean_trips_by_row(raw, net, **bounds)
    assert log.ids == ref["ids"]
    for name in ("origin", "dest", "start_min", "duration_min", "path"):
        assert getattr(log, name).dtype == np.int64, name
        assert getattr(log, name).tolist() == ref[name], name
    assert repr(log.paths) == repr(ref["paths"])
    assert log.stands == [Stand(i, node) for i, node in enumerate(ref["stand_nodes"])]
    assert list(log.drop_counts.items()) == list(ref["drop_counts"].items())  # the report keeps this order
    return log


def messy_rides(cfg, rng):
    """The rides synth draws for `cfg`, shuffled, some jittered off their stand's
    node, some a day later, and started at any minute of the day."""
    _net, raw = generate(cfg)
    raw = raw_rows(raw, rng.permutation(len(raw)))
    coords = raw.coords + rng.normal(scale=1.5e-3, size=raw.coords.shape) * (rng.random(raw.coords.shape) < 0.3)
    days = rng.choice([0, 1], p=[0.6, 0.4], size=len(raw)).tolist()
    minutes = rng.integers(0, 24 * 60, size=len(raw)).tolist()
    starts = [datetime(2024, 1, 1) + timedelta(days=d, minutes=m) for d, m in zip(days, minutes)]
    return RawTrips(raw.id, starts, coords)


class TestCleanMatchesRowByRowReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_rides(self, seed):
        rng = np.random.default_rng(seed)
        cfg = SynthConfig(8, 8, 300.0, stand_count=10, trips=int(rng.integers(50, 600)), seed=seed)
        net = grid_network(cfg.grid_w, cfg.grid_h, cfg.block_m)
        t0 = int(rng.integers(0, 600))
        bounds = {
            "speed_kmh": float(rng.choice([9.5, 13.0, 21.0])),
            "min_km": float(rng.choice([0.0, 0.5, 1.2])),
            "max_km": float(rng.choice([1.5, 2.4, 5.0])),
            "window": (t0, min(t0 + int(rng.integers(120, 900)), 1440)),  # a window lies within the day
        }
        log = assert_cleaned_as_by_row(messy_rides(cfg, rng), net, **bounds)
        assert log.ids and len(log.paths) > 1

    def test_every_drop_reason_on_a_two_component_network(self):
        nodes = [(0, 0.0, 0.0), (1, 0.0, 0.01), (2, 0.0, 0.06), (3, 1.0, 0.0), (4, 1.0, 0.01)]
        net = build_network(nodes, [(0, 1, 1000.0), (1, 2, 5500.0), (3, 4, 800.0)])
        day = datetime(2024, 3, 1)
        rides = [  # (id, minutes after midnight of day, start, end)
            ("window-start", 360, (-0.0, 0.0), (0.0, 0.01)),
            ("before-window", 359, (0.0, -0.0), (0.0, 0.01)),
            ("window-end", 1320, (-0.0, -0.0), (0.0, 0.01)),
            ("after-window", 1321, (0.0, 0.0), (0.0, 0.01)),
            ("next-day", 1440 + 600, (0.0, 0.0), (0.0, 0.01)),
            ("too-short", 600, (0.0, -0.0), (-0.0, 0.0)),
            ("too-long", 600, (0.0, 0.0), (0.0, 0.06)),
            ("unreachable", 601, (0.0, 0.0), (1.0, 0.0)),
            ("other-side", 600, (1.0, -0.0), (1.0, 0.01)),
            ("back", 599, (0.0, 0.0101), (0.0, 0.0)),
            ("tie", 600, (0.0, 0.0), (0.0, 0.01)),
        ]
        raw = RawTrips(
            [ride for ride, *_ in rides],
            [day + timedelta(minutes=m) for _ride, m, *_ in rides],
            np.array([[*s, *e] for *_, s, e in rides], dtype=np.float64),
        )
        log = assert_cleaned_as_by_row(raw, net)
        assert log.drop_counts == {
            "other_day": 1, "window": 2, "too_short": 1, "too_long": 1, "unreachable": 1
        }
        assert log.ids == ["window-start", "back", "other-side", "tie", "window-end"]
        assert [s.node for s in log.stands] == [0, 1, 2, 3, 4]

    def test_no_rides(self):
        log = assert_cleaned_as_by_row(RawTrips([], [], np.empty((0, 4))), two_node_net(1000.0))
        assert log.ids == [] and log.paths == [] and log.stands == []


def trip_events(log, i):
    """(segment, entry minute) of trip i, read from the log's event table."""
    rows = log.events.trip == i
    return list(zip(log.events.segment[rows].tolist(), log.events.minute[rows].tolist()))


class TestTraversalTimes:
    def test_single_segment(self):
        net = two_node_net(800.0)
        raw, _ = parse_raw_trips(raw_csv([make_row(start="2024-03-01 09:00:00")]))
        log = clean_trips(raw, net)
        trip = log.trips[0]
        assert trip_events(log, 0) == [(trip.path.segments[0], 540)]

    def test_entry_minutes_from_cumulative_distance(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99), (2, 40.0, -73.98)]
        net = build_network(nodes, [(0, 1, 1083.0), (1, 2, 1083.0)])
        raw, _ = parse_raw_trips(raw_csv([make_row(start="2024-03-01 10:00:00", e=(40.0, -73.98))]))
        log = clean_trips(raw, net)
        minutes = [m for _seg, m in trip_events(log, 0)]
        assert minutes == [600, 604]  # floor(1083 / 216.67) = 4

    def test_monotone_and_bounded(self, small_scenario):
        _net, log = small_scenario
        for i, trip in enumerate(log.trips[:100]):
            minutes = [m for _seg, m in trip_events(log, i)]
            assert minutes == sorted(minutes)
            assert all(trip.start_min <= m <= trip.end_min for m in minutes)

    def test_event_conservation(self, small_scenario):
        _net, log = small_scenario
        total_segments = sum(len(t.path.segments) for t in log.trips)
        assert len(log.events.trip) == total_segments

    def test_log_events_are_the_traversal_times_of_each_trip(self, small_scenario):
        _net, log = small_scenario
        assert log.events.trip.tolist() == sorted(log.events.trip.tolist())
        for i, trip in enumerate(log.trips):
            assert trip_events(log, i) == traversal_times(trip, log.speed_m_per_min)

    def test_log_events_sum_unequal_lengths_path_by_path(self, tmp_path):
        """Entry minutes add each path's lengths left to right from 0 and floor them as
        float `//` does, on a log whose lengths are unequal and inexact, both as built
        and as loaded from its file."""
        lengths = [
            (216.67, 216.67, 216.67),
            (433.0, 1 / 3, 0.7),  # 433.0 + 1/3 is 2 minutes; a running sum over the path above lands below
            (SPEED,) * 5 + (0.1,),  # five minutes of road summed: // floors it to 4, floor of / gives 5
            (0.1, 0.7, 1 / 3, 216.67),
        ]
        # path i runs from stand 2i to stand 2i + 1 along segments and nodes of its own
        paths = [
            Path(tuple(range(10 * i, 10 * i + len(x))), tuple(range(100 * i, 100 * i + len(x) + 1)), x, sum(x))
            for i, x in enumerate(lengths)
        ]
        stands = [Stand(0, 0), Stand(1, 3), Stand(2, 100), Stand(3, 103), Stand(4, 200), Stand(5, 206),
                  Stand(6, 300), Stand(7, 304)]
        rides = [(0, 360), (1, 361), (2, 361), (3, 400), (1, 500), (2, 1000)]  # (path, start)
        trips = [
            Trip(f"t{i}", 2 * p, 2 * p + 1, start, paths[p], math.ceil(paths[p].distance_m / SPEED))
            for i, (p, start) in enumerate(rides)
        ]
        built = trip_log(trips, stands, (360, 1320), SPEED)
        assert [m for _seg, m in traversal_times(trips[1], SPEED)] == [361, 362, 363]
        assert [m for _seg, m in traversal_times(trips[2], SPEED)][-1] == 365
        save_triplog(built, tmp_path / "triplog.json")
        for log in (built, load_triplog(tmp_path / "triplog.json")):
            assert len(log.paths) == len(paths)
            for i, trip in enumerate(log.trips):
                assert trip_events(log, i) == traversal_times(trip, SPEED)


# paths whose segments agree on their end nodes and lengths, one of no segment
HAND_BUILT_PATHS = [
    Path((3, 4, 5), (1, 2, 3, 4), (216.67, 1 / 3, 0.1 + 0.2), 216.67 + 1 / 3 + (0.1 + 0.2)),
    Path((), (1,), (), 0.0),
    Path((7,), (4, 9), (1e-3,), 1e-3),
    Path((4, 2), (2, 3, 0), (1 / 3, 5e-324), 1 / 3 + 5e-324),
]


class TestSerialization:
    def test_round_trip(self, small_scenario, tmp_path):
        _net, log = small_scenario
        path = tmp_path / "triplog.json"
        save_triplog(log, path)
        loaded = load_triplog(path)
        assert loaded.horizon == log.horizon
        assert loaded.speed_m_per_min == log.speed_m_per_min
        assert loaded.stands == log.stands
        assert loaded.drop_counts == log.drop_counts
        assert loaded.trips == log.trips

    def test_round_trip_keeps_every_column(self, small_scenario, tmp_path):
        _net, log = small_scenario
        path = tmp_path / "triplog.json"
        save_triplog(log, path)
        loaded = load_triplog(path)
        assert loaded.ids == log.ids
        for name in ("origin", "dest", "start_min", "duration_min", "path"):
            assert getattr(loaded, name).dtype == np.int64, name
            assert getattr(loaded, name).tolist() == getattr(log, name).tolist(), name
        assert loaded.paths == log.paths
        assert loaded.network_sha256 == log.network_sha256
        # one Path per (origin, dest) pair, and every trip of the pair names it
        path_of_pair = {}
        for pair, index in zip(zip(loaded.origin.tolist(), loaded.dest.tolist()), loaded.path.tolist()):
            assert path_of_pair.setdefault(pair, index) == index
        assert sorted(path_of_pair.values()) == list(range(len(loaded.paths)))
        for trip in loaded.trips:
            assert trip.path is loaded.paths[path_of_pair[trip.origin, trip.dest]]

    def test_format_tag_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(MalformedInputError, match="velosense-triplog-v6"):
            load_triplog(bad)

    def test_hand_built_logs_round_trip(self, tmp_path):
        """A zero-segment path, unequal inexact lengths, and a log without trips load
        back to the same columns, path table, Paths and events."""
        stands = [Stand(0, 0), Stand(1, 1), Stand(2, 2), Stand(3, 4), Stand(4, 9)]
        ends = [(1, 3), (1, 1), (3, 4), (2, 0)]  # each path's stands
        rides = [(0, 360), (1, 361), (2, 361), (0, 400), (3, 1320), (1, 1320)]  # (path, start)
        paths = HAND_BUILT_PATHS
        trips = [
            Trip(f"t{i}", *ends[p], start, paths[p], max(1, math.ceil(paths[p].distance_m / SPEED)))
            for i, (p, start) in enumerate(rides)
        ]
        for built in (trip_log(trips, stands, (360, 1320), SPEED), trip_log([], [], (0, 60), 100.0)):
            save_triplog(built, tmp_path / "triplog.json")
            loaded = load_triplog(tmp_path / "triplog.json")
            for table in ("path_table", "segment_table"):
                for name, column in getattr(built, table)._asdict().items():
                    got = getattr(getattr(loaded, table), name)
                    assert got.dtype == column.dtype and got.tolist() == column.tolist(), (table, name)
            for name in ("entry_length_m", "path_nodes", "origin", "dest", "start_min", "duration_min", "path"):
                column, got = getattr(built, name), getattr(loaded, name)
                assert got.dtype == column.dtype and got.tolist() == column.tolist(), name
            assert loaded.paths == built.paths
            assert loaded.trips == built.trips
            for name in ("trip", "segment", "minute"):
                assert getattr(loaded.events, name).tolist() == getattr(built.events, name).tolist(), name

    @staticmethod
    def log_of(paths, ends, rides, stands):
        """The log whose path i runs from stand ends[i][0] to stand ends[i][1] along
        paths[i], and whose trip i rides paths[p] from minute start, for rides[i] = (p, start)."""
        return TripLog(
            [f"t{i}" for i in range(len(rides))],
            np.array([start for _p, start in rides], dtype=np.int64),
            np.array([p for p, _start in rides], dtype=np.int64),
            *path_tables(paths, ends),
            stands,
            (360, 1320),
            SPEED,
        )

    def refused_by_the_walk(self, log, tmp_path, message):
        """Asked for its nodes, `log` is refused; saving writes its fields, and
        loading the file refuses it, naming the file."""
        with pytest.raises(MalformedInputError) as built:
            log.path_nodes
        save_triplog(log, tmp_path / "triplog.json")
        with pytest.raises(MalformedInputError) as loaded:
            load_triplog(tmp_path / "triplog.json")
        assert str(built.value) == message
        assert str(loaded.value) == f"{tmp_path / 'triplog.json'}: {message}"

    def test_walk_refuses_a_path_ending_off_its_dest_stand(self, tmp_path):
        """Path 2 runs from stand 3 at node 4 to node 8, where its dest stand 4 is
        not: stand 4 is at node 9."""
        paths = HAND_BUILT_PATHS[:2] + [Path((7,), (4, 8), (1e-3,), 1e-3)] + HAND_BUILT_PATHS[3:]
        stands = [Stand(0, 0), Stand(1, 1), Stand(2, 2), Stand(3, 4), Stand(4, 9)]
        log = self.log_of(paths, [(1, 3), (1, 1), (3, 4), (2, 0)], [(p, 360) for p in range(len(paths))], stands)
        message = "paths.dest holds stand 4 for path 2, at node 9, but the path ends at node 8"
        self.refused_by_the_walk(log, tmp_path, message)

    def test_walk_refuses_a_log_off_its_paths_everywhere(self, tmp_path):
        """Every path runs from stand 0 at node 1 to stand 1 at node 4, which only
        path 0 does; the walk refuses the first place where a path leaves its nodes."""
        paths = HAND_BUILT_PATHS[:3] + [Path((4, 2), (2, 3, 0), (433.0, 5e-324), 433.0 + 5e-324)]
        rides = [(0, 360), (1, 361), (2, 361), (0, 400), (3, 1320), (1, 1320)]
        log = self.log_of(paths, [(0, 1)] * len(paths), rides, [Stand(0, 1), Stand(1, 4)])
        message = "paths.segments holds segment 7 at place 0 of path 2, which does not touch node 1 before it"
        self.refused_by_the_walk(log, tmp_path, message)

    def test_loading_and_using_a_log_builds_no_path(self, tmp_path, monkeypatch):
        """load_triplog, the event table, the schedule, the fleet and the network check
        read the path table's columns; no Path is built until something asks for
        `paths`. A log from clean_trips never walks its paths on the way to a
        replay, and a loaded log walks them once, on load."""
        walked = []
        walk = TripLog.path_nodes.func
        counted = cached_property(lambda log: walked.append(log) or walk(log))
        counted.__set_name__(TripLog, "path_nodes")
        monkeypatch.setattr(TripLog, "path_nodes", counted)
        net, log = chain_scenario(5)
        _ = log.events, log.schedule, initial_bike_counts(log)
        assert "path_nodes" not in log.__dict__ and walked == []
        save_triplog(log, tmp_path / "triplog.json")
        write_network_csv(net, tmp_path / "nodes.csv", tmp_path / "edges.csv")
        loaded = load_triplog(tmp_path / "triplog.json")
        assert "paths" not in loaded.__dict__ and walked == [loaded]
        _ = loaded.events, loaded.schedule, initial_bike_counts(loaded)
        args = Namespace(nodes=tmp_path / "nodes.csv", edges=tmp_path / "edges.csv", triplog=tmp_path / "triplog.json")
        _load_routed_net(args, loaded)
        assert "paths" not in loaded.__dict__
        assert loaded.paths == log.paths and "paths" in loaded.__dict__
        assert walked == [loaded, log]

    def test_trips_of_one_pair_share_one_path(self, small_scenario, tmp_path):
        _net, log = small_scenario
        path = tmp_path / "triplog.json"
        save_triplog(log, path)
        for each in (log, load_triplog(path)):
            by_pair = {}
            for trip in each.trips:
                assert by_pair.setdefault((trip.origin, trip.dest), trip.path) is trip.path
            assert len({id(trip.path) for trip in each.trips}) == len(by_pair) < len(each.trips)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def chain_scenario(seed):
    """The network and cleaned log of the benchmark's chain shape at `seed`."""
    net, raw = generate(SynthConfig(grid_w=16, grid_h=16, block_m=150.0, stand_count=30, trips=4000, seed=seed))
    return net, clean_trips(raw, net)


def seed_5_chain():
    return chain_scenario(5)[1]


class TestGolden:
    """save_triplog(clean_trips(...)) is pinned byte for byte: parsing, routing
    and cleaning may change how they work, not what they write."""

    @staticmethod
    def triplog_sha256(log, tmp_path):
        save_triplog(log, tmp_path / "triplog.json")
        return _sha256(tmp_path / "triplog.json")

    def test_reference_fixture(self, reference_scenario, tmp_path):
        _net, log = reference_scenario
        assert self.triplog_sha256(log, tmp_path) == (
            "29e07a583df1def963310398f1f6fd1514cfb8f62a1fcb6b2590c19066d32e67"
        )

    def test_seed_5_chain(self, tmp_path):
        assert self.triplog_sha256(seed_5_chain(), tmp_path) == (
            "9b78ba9b583f696a5273a53765e9be41dc3a2493777a611c798552cbdc8617e3"
        )


class TestDistanceIsTheLengthsSum:
    """A path's distance is derived from its entry lengths, not stored: on every
    path of three chain-shaped logs it equals, bit for bit, the network's lengths
    of the routed segments added one by one from 0.0 (oracles.walked_path), so
    durations follow from the routes, and a saved log loads back to them. So do
    the entry lengths and walked nodes, path by path, and the segment table is
    the network's end nodes, the lower first, and lengths at its ids.
    A grid's lengths are all block_m, whose sums are exact in any order, so each
    log is also routed on the grid with each length scaled by an inexact factor."""

    @pytest.mark.parametrize("jitter", [False, True], ids=["grid", "jittered"])
    @pytest.mark.parametrize("seed", [5, 11, 19])
    def test_routed_distance_is_the_derived_one(self, tmp_path, seed, jitter):
        net, log = chain_scenario(seed)
        if jitter:
            nodes = list(zip(range(net.num_nodes), net.node_lat.tolist(), net.node_lon.tolist()))
            lengths = net.seg_length_m * np.random.default_rng(seed).uniform(0.7, 1.3, net.num_segments)
            net = build_network(nodes, list(zip(net.seg_u.tolist(), net.seg_v.tolist(), lengths.tolist())))
            log = clean_trips(generate(SynthConfig(16, 16, 150.0, 30, 4000, seed=seed))[1], net)
        nodes = np.array([s.node for s in log.stands], dtype=np.int64)
        pairs = list(zip(nodes[log.path_table.origin].tolist(), nodes[log.path_table.dest].tolist()))
        routed = route_pairs(net, pairs)
        paths = [walked_path(net, pair[0], routed[pair]) for pair in pairs]
        assert len(paths) > 700
        count = [len(p.segments) for p in paths]
        segments = [s for p in paths for s in p.segments]
        lengths = np.array([x for p in paths for x in p.seg_lengths_m], dtype=np.float64)
        path_nodes = np.array([n for p in paths for n in p.nodes], dtype=np.int64)
        distance = np.array([p.distance_m for p in paths], dtype=np.float64)
        durations = [max(1, math.ceil(d / log.speed_m_per_min)) for d in distance[log.path].tolist()]
        ids = log.segment_table.id
        network_columns = (
            ids, np.minimum(net.seg_u, net.seg_v)[ids], np.maximum(net.seg_u, net.seg_v)[ids], net.seg_length_m[ids]
        )
        save_triplog(log, tmp_path / "triplog.json")
        for each in (log, load_triplog(tmp_path / "triplog.json")):
            # with equal counts, equal flat columns are equal path by path
            assert each.path_table.count.tolist() == count and each.path_table.segments.tolist() == segments
            assert each.entry_length_m.tobytes() == lengths.tobytes()
            assert each.path_nodes.tobytes() == path_nodes.tobytes()
            assert [column.tobytes() for column in each.segment_table] == [c.tobytes() for c in network_columns]
            assert each.path_distance_m.tobytes() == distance.tobytes()
            assert each.duration_min.dtype == np.int64 and each.duration_min.tolist() == durations


class TestV5LoadsAsTheV4Document:
    """Each fixture's v4 file, written by the v4 writer to its pinned digest, and its
    file in the current format (v6 now) hold the same log: the current file loads to
    the v4 document's header, stands, trip columns (stands and durations included),
    path table (distances included) and Paths."""

    @pytest.mark.parametrize("fixture", ["reference-fixture", "seed-5-chain"])
    def test_same_log(self, request, tmp_path, fixture):
        if fixture == "reference-fixture":
            _net, log = request.getfixturevalue("reference_scenario")
        else:
            log = seed_5_chain()
        save_triplog_v4(log, tmp_path / "v4.json")
        assert _sha256(tmp_path / "v4.json") == TRIPLOG_V4_SHA256[fixture]
        save_triplog(log, tmp_path / "v5.json")
        loaded = load_triplog(tmp_path / "v5.json")
        doc = json.loads((tmp_path / "v4.json").read_text())
        assert loaded.network_sha256 == doc["network_sha256"]
        assert list(loaded.horizon) == doc["horizon"]
        assert loaded.speed_m_per_min == doc["speed_m_per_min"]
        assert loaded.drop_counts == doc["drop_counts"]
        assert [{"stand": s.id, "node": s.node} for s in loaded.stands] == doc["stands"]
        assert loaded.ids == doc["trips"]["id"]
        for name in ("origin", "dest", "start_min", "duration_min", "path"):
            column = getattr(loaded, name)
            assert column.dtype == np.int64 and column.tolist() == doc["trips"][name], name
        columns = {
            "segments": loaded.path_table.segments,
            "seg_lengths_m": loaded.entry_length_m,
            "count": loaded.path_table.count,
            "nodes": loaded.path_nodes,
        }
        for key, column in columns.items():
            dtype = np.float64 if key == "seg_lengths_m" else np.int64
            assert column.dtype == dtype and column.tolist() == doc["paths"][key], key
        assert loaded.path_distance_m.dtype == np.float64
        assert loaded.path_distance_m.tolist() == doc["paths"]["distance_m"]
        assert loaded.paths == paths_of_triplog_v4(doc)
