from dataclasses import dataclass

import numpy as np
import pytest

from velosense.errors import MalformedInputError
from velosense.fleet_sim import Replay, SimConfig, _equipped_rows, simulate
from velosense.metrics import (
    IntervalGrid,
    count_cells,
    event_cells,
    hour_grid,
    hourly_diagnostics,
    sensing_score,
    write_report,
)
from velosense.trips import Path, Stand, Trip, TripEvents

from oracles import (
    coverage_counts_loop,
    first_bikes,
    per_bike_assembly,
    rank_correlation,
    touched_length_fraction_pct,
    traversal_times,
)
from trip_logs import coverage_counts, trip_log


@dataclass
class Ride:
    """Bike `bike`, at home at stand `home`, serves one trip with these (segment, minute) events."""

    bike: int
    events: list
    home: int = 0


def traj(bike, events, home=0):
    return Ride(bike, list(events), home)


def replay(*rides):
    """The event table of a log whose trip i is rides[i]'s, and the replay, built
    from columns, in which bike i serves trip i; homes ascend, as a fleet's do."""
    assert [t.bike for t in rides] == list(range(len(rides)))
    assert [t.home for t in rides] == sorted(t.home for t in rides)
    pairs = [event for t in rides for event in t.events]
    segment, minute = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    trip = np.repeat(np.arange(len(rides)), [len(t.events) for t in rides])
    homes = np.array([t.home for t in rides], dtype=np.int64)
    return TripEvents(trip, segment, minute), Replay(np.arange(len(rides)), homes, [f"trip-{t.bike}" for t in rides])


class TestIntervalGrid:
    def test_sixteen_hour_horizon_splits(self):
        for delta, expected in ((16.0, 1), (8.0, 2), (4.0, 4), (1.0, 16), (0.5, 32)):
            grid = IntervalGrid(360, 1320, delta)
            assert grid.n_intervals == expected

    def test_non_dividing_interval_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            IntervalGrid(360, 1320, 7.0)

    def test_sub_minute_interval_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            IntervalGrid(0, 960, 1 / 120)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            IntervalGrid(100, 100, 1.0)


class TestCoverageCounts:
    def test_no_equipped_bikes_gives_zero_matrix(self):
        grid = IntervalGrid(360, 1320, 16.0)
        counts = coverage_counts(*replay(traj(0, [(1, 400)])), (), grid, 5)
        assert counts.shape == (5, 1)
        assert counts.sum() == 0

    def test_single_event_at_horizon_start(self):
        grid = IntervalGrid(360, 1320, 16.0)
        counts = coverage_counts(*replay(traj(0, [(3, 360)])), (1,), grid, 5)
        assert counts[3, 0] == 1
        assert counts.sum() == 1

    def test_total_equals_equipped_event_count(self):
        grid = IntervalGrid(0, 120, 1.0)
        trajs = replay(
            traj(0, [(0, 5), (1, 7), (0, 60)]),
            traj(1, [(2, 10)]),
            traj(2, [(0, 100)] * 4, home=1),
        )
        counts = coverage_counts(*trajs, (1, 1), grid, 3)  # bikes 0 and 2
        assert counts.sum() == 3 + 4

    def test_events_outside_horizon_are_not_counted(self):
        grid = IntervalGrid(360, 1320, 16.0)
        counts = coverage_counts(*replay(traj(0, [(0, 359), (0, 1321), (1, 1320)])), (1,), grid, 2)
        assert counts.tolist() == [[0], [1]]

    def test_segment_beyond_network_rejected(self):
        grid = IntervalGrid(360, 1320, 16.0)
        with pytest.raises(MalformedInputError, match="segment"):
            coverage_counts(*replay(traj(0, [(5, 400)])), (1,), grid, 2)
        message = "^an event names a segment beyond the network's 5$"
        events, trajs = replay(traj(0, [(1, 400), (5, 400)]))
        with pytest.raises(MalformedInputError, match=message):
            event_cells(events, grid, 5)
        with pytest.raises(MalformedInputError, match=message):
            coverage_counts(events, trajs, (1,), grid, 5)


# Hand-made replays: events at the horizon start and end, after the end,
# and on unequipped bikes, with (sensors, horizon, num_segments)
HAND_CASES = [
    ([traj(0, [(1, 360), (2, 1320), (3, 1321)])], (1,), (360, 1320), 4),
    ([traj(0, [(1, 400)]), traj(1, [(2, 400)], home=3)], (0, 0, 0, 1), (360, 1320), 3),
    (
        [traj(0, [(0, 360), (1, 1319), (1, 1320), (2, 1400)]), traj(1, [(2, 900)]), traj(2, [], home=1)],
        (1, 1),
        (360, 1320),
        3,
    ),
]


def bikes_per_stand(rides, sensors):
    """One count per stand of sensors: the stands' bikes, given each ride is one bike's."""
    return np.bincount([t.home for t in rides], minlength=len(sensors)).tolist()


class TestCoverageCountsOracle:
    """Counting through event_cells and count_cells equals the per-event loop it replaced."""

    @pytest.mark.parametrize("delta", [16.0, 4.0, 1.0, 0.5])
    @pytest.mark.parametrize("case", range(len(HAND_CASES)))
    def test_hand_cases(self, case, delta):
        trajs, sensors, horizon, num_segments = HAND_CASES[case]
        grid = IntervalGrid(*horizon, delta)
        equipped = first_bikes(bikes_per_stand(trajs, sensors), sensors)
        expected = coverage_counts_loop(
            [(t.bike, t.events) for t in trajs], equipped, *horizon, grid.delta_min, num_segments
        )
        assert coverage_counts(*replay(*trajs), sensors, grid, num_segments).tolist() == expected

    @pytest.mark.parametrize("delta", [16.0, 4.0, 1.0, 0.5])
    def test_simulated_replay(self, small_scenario, small_fleet, delta):
        net, log = small_scenario
        sensors = tuple(min(1, b) for b in small_fleet.b)
        trajs = simulate(log, small_fleet, SimConfig(seed=12, beta=0.6, sensors=sensors))
        grid = IntervalGrid(*log.horizon, delta)
        assembled = per_bike_assembly(
            log.trips,
            [traversal_times(t, log.speed_m_per_min) for t in log.trips],
            trajs.bike_of_trip,
            small_fleet.home_stands(),
        )
        assert any(m > log.horizon[1] for _b, _h, _s, events in assembled for _seg, m in events)
        expected = coverage_counts_loop(
            [(bike, events) for bike, _home, _served, events in assembled],
            first_bikes(small_fleet.b, sensors),
            *log.horizon,
            grid.delta_min,
            net.num_segments,
        )
        assert coverage_counts(log.events, trajs, sensors, grid, net.num_segments).tolist() == expected


class TestEventCells:
    """One bincount of event_cells under an equipped mask is the per-event loop."""

    @pytest.mark.parametrize("delta", [16.0, 4.0, 1.0, 0.5])
    def test_random_plans_equal_the_loop(self, delta):
        rng = np.random.default_rng(int(4 * delta))
        t0, t_end, num_segments = 360, 1320, 7
        grid = IntervalGrid(t0, t_end, delta)
        for _ in range(20):
            bikes = int(rng.integers(1, 8))
            homes = np.sort(rng.integers(0, 3, bikes)).tolist()
            trajs = []
            for bike, size in enumerate(rng.integers(0, 6, bikes).tolist()):
                segments = rng.integers(0, num_segments, size).tolist()
                trajs.append(traj(bike, zip(segments, rng.integers(t0, t_end + 60, size).tolist()), homes[bike]))
            trajs[0].events += [(0, t_end), (num_segments - 1, t_end), (1, t_end + 1)]  # at T, and past it
            b = np.bincount(homes, minlength=3)
            sensors = tuple(rng.integers(0, b + 1).tolist())
            equipped = first_bikes(b, sensors)
            expected = coverage_counts_loop(
                [(t.bike, t.events) for t in trajs], equipped, t0, t_end, grid.delta_min, num_segments
            )
            events, trajs = replay(*trajs)
            cells = event_cells(events, grid, num_segments)
            size = num_segments * grid.n_intervals
            assert cells.min() >= 0 and cells.max() <= size
            equipped_events = np.isin(trajs.bike_of_trip[events.trip], sorted(equipped))
            counts = np.bincount(cells[equipped_events], minlength=size + 1)[:size]
            assert counts.reshape(num_segments, grid.n_intervals).tolist() == expected
            shape = (num_segments, grid.n_intervals)
            assert count_cells(cells, events.trip, trajs.rode(sensors), shape).tolist() == expected

    def test_out_of_horizon_events_fall_one_past_the_grid(self):
        grid = IntervalGrid(360, 1320, 4.0)
        events, _trajs = replay(traj(0, [(0, 359), (1, 360), (1, 1319), (2, 1320), (0, 1321)]))
        assert event_cells(events, grid, 3).tolist() == [12, 4, 7, 11, 12]


class TestCountCells:
    """A count needs only which trip rows rode an equipped bike."""

    def test_rode_flags_the_rows_of_equipped_bikes(self):
        _events, trajs = replay(traj(0, [(0, 400)]), traj(1, []), traj(2, [(1, 400)], home=1))
        assert trajs.rode((1, 1)).tolist() == [True, False, True]
        assert trajs.rode((2, 0)).tolist() == [True, True, False]
        assert trajs.rode(()).tolist() == trajs.rode((0, 0)).tolist() == [False] * 3

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_beta_one_scan_flags_count_as_the_replay(self, request, scenario):
        """The draw-free scan's flags, counted through count_cells, equal
        the counts of the beta=1 replay at every seed, so a beta=1 cell
        can be scored without a replay: at no sensors, one per stand, half
        of each stand and the whole fleet."""
        net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        plans = [[0] * len(fleet.b), [min(1, b) for b in fleet.b], [(b + 1) // 2 for b in fleet.b], fleet.b]
        grids = [IntervalGrid(*log.horizon, delta) for delta in (1.0, 4.0, 16.0)]
        cells = [event_cells(log.events, grid, net.num_segments) for grid in grids]
        for n in plans:
            sensors = tuple(n)
            rode, _sizes = _equipped_rows(log, fleet, sensors)
            scanned = [
                count_cells(grid_cells, log.events.trip, rode, (net.num_segments, grid.n_intervals))
                for grid, grid_cells in zip(grids, cells)
            ]
            assert all(counts.any() == any(sensors) for counts in scanned)
            for seed in range(5):
                trajs = simulate(log, fleet, SimConfig(seed, 1.0, sensors))
                for grid, counts in zip(grids, scanned):
                    assert np.array_equal(counts, coverage_counts(log.events, trajs, sensors, grid, net.num_segments))


class TestSensingScore:
    def test_zero_matrix_scores_zero(self):
        grid = IntervalGrid(0, 960, 16.0)
        assert sensing_score(np.zeros((4, 1), dtype=int), np.ones(4), grid) == 0.0

    def test_full_matrix_scores_hundred(self):
        grid = IntervalGrid(0, 960, 4.0)
        counts = np.ones((3, 4), dtype=int)
        assert sensing_score(counts, np.array([10.0, 20.0, 5.0]), grid) == 100.0

    def test_length_weighted_partial_coverage(self):
        # segments of 100 m and 300 m, two intervals, one covered cell
        grid = IntervalGrid(0, 120, 1.0)
        counts = np.array([[0, 0], [1, 0]])
        phi = sensing_score(counts, np.array([100.0, 300.0]), grid)
        assert phi == pytest.approx(100.0 * 300.0 / (2 * 400.0)) == 37.5

    def test_empty_network_undefined(self):
        grid = IntervalGrid(0, 60, 1.0)
        with pytest.raises(MalformedInputError):
            sensing_score(np.zeros((0, 1), dtype=int), np.zeros(0), grid)

    def test_shape_mismatch_rejected(self):
        grid = IntervalGrid(0, 120, 1.0)
        with pytest.raises(ValueError, match="shape"):
            sensing_score(np.zeros((3, 1), dtype=int), np.ones(3), grid)

    def test_score_always_in_range(self):
        rng = np.random.default_rng(8)
        grid = IntervalGrid(0, 960, 2.0)
        for _ in range(50):
            counts = rng.integers(0, 3, size=(6, grid.n_intervals))
            lengths = rng.integers(1, 400, size=6).astype(float)
            assert 0.0 <= sensing_score(counts, lengths, grid) <= 100.0


class TestWithinHorizon:
    """The horizon rule, which event_cells applies by sending later events past the grid."""

    def test_keeps_horizon_end_and_drops_later_events(self):
        grid = IntervalGrid(360, 1320, 16.0)
        trajs = replay(traj(0, [(1, 360), (2, 1320), (3, 1321)]))
        assert coverage_counts(*trajs, (1,), grid, 4).tolist() == [[0], [1], [1], [0]]

    def test_drops_unequipped_bikes(self):
        grid = IntervalGrid(360, 1320, 16.0)
        trajs = replay(traj(0, [(1, 400)]), traj(1, [(2, 400)], home=3))
        assert coverage_counts(*trajs, (0, 0, 0, 1), grid, 3).tolist() == [[0], [0], [1]]


class TestScoreProperties:
    def _scored(self, scenario, fleet, sensors, delta):
        net, log = scenario
        trajs = simulate(log, fleet, SimConfig(seed=12))
        grid = IntervalGrid(*log.horizon, delta)
        counts = coverage_counts(log.events, trajs, sensors, grid, net.num_segments)
        return sensing_score(counts, net.seg_length_m, grid)

    def test_equipped_superset_monotonicity(self, small_scenario, small_fleet):
        rng = np.random.default_rng(20)
        b = np.array(small_fleet.b)
        for _ in range(10):
            base = rng.integers(0, b + 1)
            extra = base + rng.integers(0, b - base + 1)
            phi_small = self._scored(small_scenario, small_fleet, tuple(base.tolist()), 4.0)
            phi_big = self._scored(small_scenario, small_fleet, tuple(extra.tolist()), 4.0)
            assert phi_small <= phi_big + 1e-12

    def test_refining_intervals_never_raises_score(self, small_scenario, small_fleet):
        sensors = tuple(min(1, b) for b in small_fleet.b)
        phis = [
            self._scored(small_scenario, small_fleet, sensors, delta)
            for delta in (16.0, 8.0, 4.0, 1.0)
        ]
        assert phis == sorted(phis, reverse=True)

    def test_coarsest_score_with_all_equipped_matches_union_oracle(
        self, small_scenario, small_fleet
    ):
        net, log = small_scenario
        phi = self._scored(small_scenario, small_fleet, tuple(small_fleet.b), 16.0)
        t0, t_end = log.horizon
        assert phi == pytest.approx(
            touched_length_fraction_pct(log, net.seg_length_m, t0, t_end), abs=1e-9
        )


def hourly_demand_log():
    """Trip count in hour h grows linearly with h; all trips ride segment 0."""
    out, back = Path((0,), (0, 1), (800.0,), 800.0), Path((0,), (1, 0), (800.0,), 800.0)
    trips = []
    tid = 0
    for hour in range(6, 22):
        for k in range(hour - 5):
            start = hour * 60 + 2 * k
            trips.append(Trip(f"h{tid}", 0, 1, start, out, 2))
            tid += 1
        for k in range(hour - 5):  # matching returns keep stand 0 stocked
            start = hour * 60 + 2 * k + 1
            trips.append(Trip(f"b{tid}", 1, 0, start, back, 2))
            tid += 1
    trips.sort(key=lambda t: t.start_min)
    return trip_log(trips, [Stand(0, 0), Stand(1, 1)], (360, 1320), 400.0)


class TestHourlyDiagnostics:
    """The diagnostics count nothing: they take a score's 1 h counts."""

    @staticmethod
    def diagnose(events, trajs, sensors, log, num_segments):
        return hourly_diagnostics(coverage_counts(events, trajs, sensors, hour_grid(log), num_segments), log)

    def test_single_trip_row(self):
        path = Path((4,), (0, 1), (900.0,), 900.0)
        log = trip_log([Trip("a", 0, 1, 390, path, 5)], [Stand(0, 0), Stand(1, 1)], (360, 1320), 200.0)
        report = self.diagnose(*replay(traj(0, [(4, 390)])), (1,), log, 5)
        assert report.first_hour == 6
        assert report.trips_started.tolist() == [1] + [0] * 15
        # one equipped entry: segment 4 in hour 6, column 0
        assert report.counts.shape == (5, 16)
        assert {tuple(cell) for cell in np.argwhere(report.counts)} == {(4, 0)}
        assert report.counts[4, 0] == 1

    def test_no_equipped_bikes_reports_absent_correlation(self):
        log = hourly_demand_log()
        report = self.diagnose(*replay(traj(0, [(0, 400)])), (), log, 1)
        assert not report.counts.any()
        assert report.trip_event_correlation is None

    def test_monotone_demand_gives_positive_correlation(self):
        from velosense.fleet_sim import initial_bike_counts

        log = hourly_demand_log()
        plan = initial_bike_counts(log)
        trajs = simulate(log, plan, SimConfig(seed=7))
        report = self.diagnose(log.events, trajs, tuple(plan.b), log, 1)
        assert report.trip_event_correlation is not None
        assert report.trip_event_correlation > 0
        xs = report.trips_started.tolist()
        ys = report.counts.sum(axis=0).tolist()
        assert rank_correlation(xs, ys) > 0

    def test_per_segment_counts_equal_hourly_coverage_counts(self, small_scenario, small_fleet):
        net, log = small_scenario
        trajs = simulate(log, small_fleet, SimConfig(seed=3))
        sensors = tuple(min(2, b) for b in small_fleet.b)
        grid = IntervalGrid(*log.horizon, 1.0)
        assert hour_grid(log) == grid
        counts = coverage_counts(log.events, trajs, sensors, grid, net.num_segments)
        report = hourly_diagnostics(counts, log)
        assert report.first_hour == log.horizon[0] // 60
        t0, t_end = log.horizon
        hours = [min((m - t0) // 60, 15) for m in log.start_min.tolist() if t0 <= m <= t_end]
        assert len(hours) == len(log.ids)
        assert report.trips_started.tolist() == [hours.count(h) for h in range(16)]
        assert report.counts is counts
        assert report.counts.sum() > 0
        four_hours = coverage_counts(log.events, trajs, sensors, IntervalGrid(*log.horizon, 4.0), net.num_segments)
        with pytest.raises(ValueError, match="16 hours"):
            hourly_diagnostics(four_hours, log)

    def test_unaligned_horizon_rejected(self):
        log = trip_log([], [], (365, 1320), 200.0)
        with pytest.raises(ValueError, match="hour-aligned"):
            hourly_diagnostics(np.zeros((0, 16), dtype=np.int64), log)
        with pytest.raises(ValueError, match="hour-aligned"):
            hour_grid(log)


class TestReportWriter:
    def test_hourly_writer(self, tmp_path):
        from velosense.metrics import HourlyDiagnostics, write_hourly

        counts = np.zeros((5, 2), dtype=np.int64)
        counts[4, 0], counts[1, 0], counts[0, 1] = 2, 1, 5
        diag = HourlyDiagnostics(6, np.array([2, 0]), counts, trip_event_correlation=None)
        rows_path, segs_path = tmp_path / "h.csv", tmp_path / "hs.csv"
        write_hourly(diag, rows_path, segs_path)
        assert rows_path.read_text().splitlines() == [
            "hour,trips_started,coverage_events,trip_event_correlation",
            "6,2,3,",
            "7,0,5,",
        ]
        # hour by hour, segments ascending within an hour
        assert segs_path.read_text().splitlines() == [
            "hour,segment_id,count",
            "6,1,1",
            "6,4,2",
            "7,0,5",
        ]

    def test_nonzero_cells_and_summary(self, tmp_path):
        grid = IntervalGrid(0, 120, 1.0)
        counts = np.array([[0, 2], [0, 0], [1, 0]])
        counts_path, summary_path = tmp_path / "c.csv", tmp_path / "s.json"
        write_report(counts, grid, 42.5, 3, counts_path, summary_path)
        lines = counts_path.read_text().splitlines()
        assert lines[0] == "segment_id,interval,count"
        assert set(lines[1:]) == {"0,1,2", "2,0,1"}
        import json

        summary = json.loads(summary_path.read_text())
        assert summary["phi_pct"] == 42.5
        assert summary["n_intervals"] == 2
        assert summary["equipped_count"] == 3
