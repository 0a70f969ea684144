import numpy as np
import pytest

from velosense.errors import HorizonError, MalformedInputError, UndefinedScoreError
from velosense.fleet_sim import BikeTrajectory, Replay, SimConfig, equipped_set, simulate
from velosense.metrics import (
    IntervalGrid,
    SensingReport,
    coverage_counts,
    hourly_diagnostics,
    sensing_score,
    write_report,
)
from velosense.network import Path
from velosense.trips import Stand, Trip, TripEvents

from oracles import (
    coverage_counts_loop,
    per_bike_assembly,
    rank_correlation,
    touched_length_fraction_pct,
    traversal_times,
)
from trip_logs import trip_log


def traj(bike, events, home=0):
    return BikeTrajectory(bike, home, [f"trip-{bike}"], list(events))


def replay(*trajectories):
    """The replay, built from columns, in which bike i serves one trip with the
    events of trajectories[i]."""
    assert [t.bike for t in trajectories] == list(range(len(trajectories)))
    pairs = [event for t in trajectories for event in t.events]
    segment, minute = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    trip = np.repeat(np.arange(len(trajectories)), [len(t.events) for t in trajectories])
    return Replay(
        np.arange(len(trajectories)),
        np.array([t.home for t in trajectories], dtype=np.int64),
        [t.served[0] for t in trajectories],
        TripEvents(trip, segment, minute),
    )


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

    def test_interval_membership(self):
        grid = IntervalGrid(360, 1320, 4.0)
        assert grid.interval_of(360) == 0
        assert grid.interval_of(599) == 0
        assert grid.interval_of(600) == 1
        assert grid.interval_of(1320) == 3  # horizon end joins the last cell
        for minute in (359, 1321):
            with pytest.raises(HorizonError):
                grid.interval_of(minute)

    def test_interval_of_an_array(self):
        grid = IntervalGrid(360, 1320, 4.0)
        assert grid.interval_of([360, 599, 600, 1320]).tolist() == [0, 0, 1, 3]
        with pytest.raises(HorizonError, match="1321"):
            grid.interval_of([360, 1321])


class TestCoverageCounts:
    def test_no_equipped_bikes_gives_zero_matrix(self):
        grid = IntervalGrid(360, 1320, 16.0)
        counts = coverage_counts(replay(traj(0, [(1, 400)])), frozenset(), grid, 5)
        assert counts.shape == (5, 1)
        assert counts.sum() == 0

    def test_single_event_at_horizon_start(self):
        grid = IntervalGrid(360, 1320, 16.0)
        counts = coverage_counts(replay(traj(0, [(3, 360)])), {0}, grid, 5)
        assert counts[3, 0] == 1
        assert counts.sum() == 1

    def test_total_equals_equipped_event_count(self):
        grid = IntervalGrid(0, 120, 1.0)
        trajs = replay(
            traj(0, [(0, 5), (1, 7), (0, 60)]),
            traj(1, [(2, 10)]),
            traj(2, [(0, 100)] * 4),
        )
        counts = coverage_counts(trajs, {0, 2}, grid, 3)
        assert counts.sum() == 3 + 4

    def test_events_outside_horizon_are_not_counted(self):
        grid = IntervalGrid(360, 1320, 16.0)
        counts = coverage_counts(replay(traj(0, [(0, 359), (0, 1321), (1, 1320)])), {0}, grid, 2)
        assert counts.tolist() == [[0], [1]]

    def test_segment_beyond_network_rejected(self):
        grid = IntervalGrid(360, 1320, 16.0)
        with pytest.raises(MalformedInputError, match="segment"):
            coverage_counts(replay(traj(0, [(5, 400)])), {0}, grid, 2)


# Hand-made replays: events at the horizon start and end, after the end,
# and on unequipped bikes, with (equipped, horizon, num_segments)
HAND_CASES = [
    ([traj(0, [(1, 360), (2, 1320), (3, 1321)])], {0}, (360, 1320), 4),
    ([traj(0, [(1, 400)]), traj(1, [(2, 400)], home=3)], {1}, (360, 1320), 3),
    (
        [traj(0, [(0, 360), (1, 1319), (1, 1320), (2, 1400)]), traj(1, [(2, 900)]), traj(2, [])],
        {0, 2},
        (360, 1320),
        3,
    ),
]


class TestCoverageCountsOracle:
    """coverage_counts equals the per-event loop it replaced."""

    @pytest.mark.parametrize("delta", [16.0, 4.0, 1.0, 0.5])
    @pytest.mark.parametrize("case", range(len(HAND_CASES)))
    def test_hand_cases(self, case, delta):
        trajs, equipped, horizon, num_segments = HAND_CASES[case]
        grid = IntervalGrid(*horizon, delta)
        expected = coverage_counts_loop(
            [(t.bike, t.events) for t in trajs], equipped, *horizon, grid.delta_min, num_segments
        )
        assert coverage_counts(replay(*trajs), equipped, grid, num_segments).tolist() == expected

    @pytest.mark.parametrize("delta", [16.0, 4.0, 1.0, 0.5])
    def test_simulated_replay(self, small_scenario, small_fleet, delta):
        net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        trajs = simulate(log, small_fleet, SimConfig(seed=12, beta=0.6, equipped=equipped))
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
            equipped,
            *log.horizon,
            grid.delta_min,
            net.num_segments,
        )
        assert coverage_counts(trajs, equipped, grid, net.num_segments).tolist() == expected


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
        with pytest.raises(UndefinedScoreError):
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
    """The horizon rule, which coverage_counts applies as a mask."""

    def test_keeps_horizon_end_and_drops_later_events(self):
        grid = IntervalGrid(360, 1320, 16.0)
        trajs = replay(traj(0, [(1, 360), (2, 1320), (3, 1321)]))
        assert coverage_counts(trajs, {0}, grid, 4).tolist() == [[0], [1], [1], [0]]

    def test_drops_unequipped_bikes(self):
        grid = IntervalGrid(360, 1320, 16.0)
        trajs = replay(traj(0, [(1, 400)]), traj(1, [(2, 400)], home=3))
        assert coverage_counts(trajs, {1}, grid, 3).tolist() == [[0], [0], [1]]


class TestScoreProperties:
    def _scored(self, scenario, fleet, equipped, delta):
        net, log = scenario
        trajs = simulate(log, fleet, SimConfig(seed=12))
        grid = IntervalGrid(*log.horizon, delta)
        counts = coverage_counts(trajs, equipped, grid, net.num_segments)
        return sensing_score(counts, net.seg_length_m, grid)

    def test_equipped_superset_monotonicity(self, small_scenario, small_fleet):
        rng = np.random.default_rng(20)
        bikes = list(range(small_fleet.num_bikes))
        for _ in range(10):
            base = set(rng.choice(bikes, size=5, replace=False).tolist())
            extra = base | set(rng.choice(bikes, size=5, replace=False).tolist())
            phi_small = self._scored(small_scenario, small_fleet, frozenset(base), 4.0)
            phi_big = self._scored(small_scenario, small_fleet, frozenset(extra), 4.0)
            assert phi_small <= phi_big + 1e-12

    def test_refining_intervals_never_raises_score(self, small_scenario, small_fleet):
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        phis = [
            self._scored(small_scenario, small_fleet, equipped, delta)
            for delta in (16.0, 8.0, 4.0, 1.0)
        ]
        assert phis == sorted(phis, reverse=True)

    def test_coarsest_score_with_all_equipped_matches_union_oracle(
        self, small_scenario, small_fleet
    ):
        net, log = small_scenario
        everyone = frozenset(range(small_fleet.num_bikes))
        phi = self._scored(small_scenario, small_fleet, everyone, 16.0)
        t0, t_end = log.horizon
        assert phi == pytest.approx(
            touched_length_fraction_pct(log, net.seg_length_m, t0, t_end), abs=1e-9
        )


def hourly_demand_log():
    """Trip count in hour h grows linearly with h; all trips ride segment 0."""
    path = Path((0,), (0, 1), (800.0,), 800.0)
    trips = []
    tid = 0
    for hour in range(6, 22):
        for k in range(hour - 5):
            start = hour * 60 + 2 * k
            trips.append(Trip(f"h{tid}", 0, 1, start, path, 2))
            tid += 1
        for k in range(hour - 5):  # matching returns keep stand 0 stocked
            start = hour * 60 + 2 * k + 1
            trips.append(Trip(f"b{tid}", 1, 0, start, path, 2))
            tid += 1
    trips.sort(key=lambda t: t.start_min)
    return trip_log(trips, [Stand(0, 0), Stand(1, 1)], (360, 1320), 400.0)


class TestHourlyDiagnostics:
    def test_single_trip_row(self):
        path = Path((4,), (0, 1), (900.0,), 900.0)
        log = trip_log([Trip("a", 0, 1, 390, path, 5)], [Stand(0, 0), Stand(1, 1)], (360, 1320), 200.0)
        report = hourly_diagnostics(replay(traj(0, [(4, 390)])), {0}, log)
        assert report.first_hour == 6
        assert report.trips_started.tolist() == [1] + [0] * 15
        # one equipped entry: segment 4 in hour 6, column 0
        assert report.counts.shape == (5, 16)
        assert {tuple(cell) for cell in np.argwhere(report.counts)} == {(4, 0)}
        assert report.counts[4, 0] == 1

    def test_no_equipped_bikes_reports_absent_correlation(self):
        log = hourly_demand_log()
        report = hourly_diagnostics(replay(traj(0, [(0, 400)])), frozenset(), log)
        assert not report.counts.any()
        assert report.trip_event_correlation is None

    def test_monotone_demand_gives_positive_correlation(self):
        from velosense.fleet_sim import initial_bike_counts

        log = hourly_demand_log()
        plan = initial_bike_counts(log)
        trajs = simulate(log, plan, SimConfig(seed=7))
        report = hourly_diagnostics(trajs, frozenset(range(plan.num_bikes)), log)
        assert report.trip_event_correlation is not None
        assert report.trip_event_correlation > 0
        xs = report.trips_started.tolist()
        ys = report.counts.sum(axis=0).tolist()
        assert rank_correlation(xs, ys) > 0

    def test_per_segment_counts_equal_hourly_coverage_counts(self, small_scenario, small_fleet):
        net, log = small_scenario
        trajs = simulate(log, small_fleet, SimConfig(seed=3))
        equipped = equipped_set(small_fleet, [min(2, b) for b in small_fleet.b])
        report = hourly_diagnostics(trajs, equipped, log)
        grid = IntervalGrid(*log.horizon, 1.0)
        counts = coverage_counts(trajs, equipped, grid, net.num_segments)
        assert report.first_hour == log.horizon[0] // 60
        assert report.trips_started.tolist() == np.bincount(grid.interval_of(log.start_min), minlength=16).tolist()
        # the diagnostics count up to the last segment an event names
        assert np.array_equal(report.counts, counts[: len(report.counts)])
        assert not counts[len(report.counts) :].any()
        assert report.counts.sum() > 0

    def test_unaligned_horizon_rejected(self):
        log = trip_log([], [], (365, 1320), 200.0)
        with pytest.raises(ValueError, match="hour-aligned"):
            hourly_diagnostics(replay(), frozenset(), log)


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
        report = SensingReport(counts, 42.5, grid, equipped_count=3)
        counts_path, summary_path = tmp_path / "c.csv", tmp_path / "s.json"
        write_report(report, counts_path, summary_path)
        lines = counts_path.read_text().splitlines()
        assert lines[0] == "segment_id,interval,count"
        assert set(lines[1:]) == {"0,1,2", "2,0,1"}
        import json

        summary = json.loads(summary_path.read_text())
        assert summary["phi_pct"] == 42.5
        assert summary["n_intervals"] == 2
        assert summary["equipped_count"] == 3
