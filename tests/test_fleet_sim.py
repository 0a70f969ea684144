import hashlib
import tracemalloc

import numpy as np
import pytest

import velosense.fleet_sim as fleet_sim
from velosense.errors import InfeasiblePlanError, MalformedInputError
from velosense.fleet_sim import (
    FleetPlan,
    Replay,
    SimConfig,
    _redraw,
    _unguided_picks,
    check_replay,
    equipped_set,
    initial_bike_counts,
    load_trajectories,
    save_trajectories,
    simulate,
)
from velosense.metrics import IntervalGrid, sensing_score
from velosense.network import Path
from velosense.trips import Stand, Trip, clean_trips

from oracles import (
    idle_before_departure,
    initial_bike_counts_by_trip,
    per_bike_assembly,
    simulate_by_minute,
    traversal_times,
)
from trip_logs import coverage_counts, trip_log


def toy_log(moves, num_stands, horizon=(0, 30), speed=100.0):
    """Build a TripLog from (origin, dest, start_min, duration_min) tuples; trip i
    rides segment i, so each segment has one length."""
    trips = []
    for i, (origin, dest, start, duration) in enumerate(moves):
        path = Path((i,), (origin, dest), (duration * speed,), duration * speed)
        trips.append(Trip(f"t{i}", origin, dest, start, path, duration))
    trips.sort(key=lambda t: t.start_min)
    stands = [Stand(i, i) for i in range(num_stands)]
    return trip_log(trips, stands, horizon, speed)


class TestInitialBikeCounts:
    def test_two_departures_then_arrival(self):
        # stand 0: departures at t=1 and t=2, an arrival lands at t=3
        log = toy_log([(0, 1, 1, 5), (0, 1, 2, 5), (1, 0, 1, 2)], num_stands=2)
        plan = initial_bike_counts(log)
        assert plan.b[0] == 2

    def test_arrival_before_departure_needs_nothing(self):
        log = toy_log([(1, 0, 2, 3), (0, 1, 10, 3)], num_stands=2)
        plan = initial_bike_counts(log)
        assert plan.b[0] == 0

    def test_same_minute_return_can_depart(self):
        # the inbound bike arrives at minute 5 and leaves again at minute 5
        log = toy_log([(1, 0, 2, 3), (0, 1, 5, 3)], num_stands=2)
        plan = initial_bike_counts(log)
        assert plan.b[0] == 0
        simulate(log, plan, SimConfig(seed=1))  # must not raise

    def test_bike_ids_dense_and_grouped_by_stand(self):
        log = toy_log([(0, 1, 1, 2), (0, 1, 1, 2), (1, 0, 1, 2)], num_stands=2)
        plan = initial_bike_counts(log)
        assert plan.b == [2, 1]
        assert plan.bikes == [[0, 1], [2]]
        assert list(plan.home_stands()) == [0, 0, 1]

    def test_returns_after_horizon_do_not_reduce_fleet(self):
        # trip into stand 0 ends past the horizon; the later departure still
        # needs its own bike
        log = toy_log([(1, 0, 25, 10), (0, 1, 28, 2)], num_stands=2, horizon=(0, 30))
        plan = initial_bike_counts(log)
        assert plan.b[0] == 1

    def test_replay_feasible_on_scenario(self, small_scenario, small_fleet):
        _net, log = small_scenario
        simulate(log, small_fleet, SimConfig(seed=3))  # must not raise

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_equals_the_per_trip_loop(self, request, scenario):
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        assert initial_bike_counts(log).b == initial_bike_counts_by_trip(log)

    def test_minimality_on_scenario(self, request):
        # one bike fewer at any stand that has bikes leaves a trip from that stand without one
        for scenario in ("small", "reference"):
            _net, log = request.getfixturevalue(f"{scenario}_scenario")
            fleet = request.getfixturevalue(f"{scenario}_fleet")
            for stand in [s for s, b in enumerate(fleet.b) if b > 0]:
                b = list(fleet.b)
                b[stand] -= 1
                with pytest.raises(InfeasiblePlanError, match=f"^no idle bike at stand {stand} "):
                    simulate(log, FleetPlan(b), SimConfig(seed=3))


TOY_SCHEDULES = {
    # a bike back at stand 0 at minute 5 leaves again at minute 5
    "return-and-departure-in-one-minute": lambda: toy_log([(1, 0, 2, 3), (0, 1, 5, 3), (0, 1, 5, 1)], 2),
    # the bike bound for stand 0 is back after the horizon, too late for the departure at 28
    "return-after-the-horizon": lambda: toy_log([(1, 0, 25, 10), (0, 1, 28, 2)], 2, horizon=(0, 30)),
    # stand 2 only receives bikes
    "stand-with-no-departures": lambda: toy_log([(0, 2, 1, 3), (1, 2, 1, 2), (0, 1, 4, 1)], 3),
}


class TestServiceSchedule:
    """A row finds b[origin] + net + 1 idle bikes at its origin, whatever bikes earlier rows took."""

    @staticmethod
    def assert_idle_counts(log, fleet):
        for b in (fleet.b, [0] * log.num_stands, [count + 2 for count in fleet.b]):
            idle = np.asarray(b, dtype=np.int64)[log.origin] + log.schedule.net + 1
            assert idle.tolist() == idle_before_departure(log, b)

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_idle_counts_on_scenario(self, request, scenario):
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        self.assert_idle_counts(log, request.getfixturevalue(f"{scenario}_fleet"))

    @pytest.mark.parametrize("name", sorted(TOY_SCHEDULES))
    def test_idle_counts_on_toy_logs(self, name):
        log = TOY_SCHEDULES[name]()
        self.assert_idle_counts(log, initial_bike_counts(log))

    def test_returns_by_end_minute_and_counted_by_start(self, small_scenario):
        _net, log = small_scenario
        end = (log.start_min + log.duration_min).tolist()
        assert log.schedule.returns.tolist() == sorted(range(len(end)), key=lambda i: (end[i], i))
        ended_by_start = [sum(e <= start for e in end) for start in log.start_min.tolist()]
        assert log.schedule.returned.tolist() == ended_by_start
        assert log.schedule is log.schedule  # built once per log

    def test_peak_memory_is_a_few_arrays(self):
        """Building the schedule keeps at most 6.5 arrays of 2 x trips int64 alive
        at once, each temporary dropped once used."""
        from velosense.synth import SynthConfig, generate

        net, raw = generate(SynthConfig(grid_w=10, grid_h=10, block_m=250.0, stand_count=20, trips=3000, seed=7))
        log = clean_trips(raw, net)
        array = 2 * len(log.ids) * 8
        _ = log.origin, log.dest, log.duration_min  # the log's own columns, gathered once per log
        tracemalloc.start()
        try:
            schedule = log.schedule
            _kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.ids) == 3000 and peak < 6.5 * array
        assert [len(column) for column in schedule] == [3000] * 3


class TestSimulate:
    def test_single_trip_single_bike(self):
        log = toy_log([(0, 1, 3, 4)], num_stands=2)
        plan = initial_bike_counts(log)
        trajs = simulate(log, plan, SimConfig(seed=0))
        assert len(trajs) == 1
        assert list(trajs)[0].served == ["t0"]
        assert list(trajs)[0].home == 0
        assert (log.events.trip.tolist(), log.events.segment.tolist(), log.events.minute.tolist()) == ([0], [0], [3])

    def test_beta_one_always_picks_equipped(self):
        log = toy_log([(0, 1, 3, 4)], num_stands=2)
        plan = FleetPlan([2, 0])
        for seed in range(20):
            cfg = SimConfig(seed=seed, beta=1.0, equipped=frozenset({1}))
            trajs = simulate(log, plan, cfg)
            assert list(trajs)[1].served == ["t0"]

    def test_beta_zero_matches_unguided_bitwise(self, small_scenario, small_fleet):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        guided_off = simulate(log, small_fleet, SimConfig(seed=9, beta=0.0, equipped=equipped))
        plain = simulate(log, small_fleet, SimConfig(seed=9))
        assert guided_off == plain

    def test_every_trip_served_exactly_once(self, small_scenario, small_fleet):
        _net, log = small_scenario
        trajs = simulate(log, small_fleet, SimConfig(seed=2))
        served = [trip_id for t in trajs for trip_id in t.served]
        assert sorted(served) == sorted(t.id for t in log.trips)

    def test_trajectories_non_overlapping_and_continuous(self, small_scenario, small_fleet):
        _net, log = small_scenario
        by_id = {t.id: t for t in log.trips}
        trajs = simulate(log, small_fleet, SimConfig(seed=2))
        for traj in trajs:
            trips = [by_id[i] for i in traj.served]
            location = traj.home
            last_end = None
            for trip in trips:
                assert trip.origin == location
                if last_end is not None:
                    assert trip.start_min >= last_end
                location = trip.dest
                last_end = trip.end_min

    def test_occupancy_never_negative(self, small_scenario, small_fleet):
        _net, log = small_scenario
        by_id = {t.id: t for t in log.trips}
        trajs = simulate(log, small_fleet, SimConfig(seed=2))
        t0, t_end = log.horizon
        width = t_end - t0 + 1
        occupancy = np.zeros((log.num_stands, width), dtype=int)
        for traj in trajs:
            occupancy[traj.home, 0] += 1
            for trip in (by_id[i] for i in traj.served):
                occupancy[trip.origin, trip.start_min - t0] -= 1
                if trip.end_min <= t_end:
                    occupancy[trip.dest, trip.end_min - t0] += 1
        assert (np.cumsum(occupancy, axis=1) >= 0).all()

    def test_deterministic(self, small_scenario, small_fleet):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        cfg = SimConfig(seed=77, beta=0.6, equipped=equipped)
        assert simulate(log, small_fleet, cfg) == simulate(log, small_fleet, cfg)

    def test_views_equal_a_per_bike_assembly(self, small_scenario, small_fleet):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        trajs = simulate(log, small_fleet, SimConfig(seed=77, beta=0.6, equipped=equipped))
        expected = per_bike_assembly(
            log.trips,
            [traversal_times(t, log.speed_m_per_min) for t in log.trips],
            trajs.bike_of_trip,
            small_fleet.home_stands(),
        )
        assert [(t.bike, t.home, t.served) for t in trajs] == [bike[:3] for bike in expected]
        assert len(trajs) == small_fleet.num_bikes

    def test_replays_are_equal_when_their_columns_are(self, small_scenario, small_fleet):
        _net, log = small_scenario
        trajs = simulate(log, small_fleet, SimConfig(seed=4))
        copy = Replay(trajs.bike_of_trip.copy(), trajs.homes.copy(), list(trajs.trip_ids))
        assert copy == trajs
        assert Replay(trajs.bike_of_trip, trajs.homes, trajs.trip_ids[::-1]) != trajs
        assert simulate(log, small_fleet, SimConfig(seed=5)) != trajs

    def test_beta_nesting_in_equipped_served_trips(self, small_scenario, small_fleet):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])

        def equipped_trips(beta):
            trajs = simulate(log, small_fleet, SimConfig(seed=5, beta=beta, equipped=equipped))
            return sum(len(t.served) for t in trajs if t.bike in equipped)

        assert equipped_trips(1.0) >= equipped_trips(0.0)

    def test_beta_one_mask_and_phi_are_the_same_at_every_seed(self, small_scenario, small_fleet):
        """At beta 1 a trip rides an equipped bike whenever one is idle at its
        origin, so which trips ride equipped bikes, and so phi, owes nothing to
        the draws; at beta 0.5 it does."""
        net, log = small_scenario
        b = np.array(small_fleet.b)
        rng = np.random.default_rng(3)
        partial = [rng.binomial(b, q) for q in (0.05, 0.2, 0.5, 0.8)]
        assert all(0 < n.sum() < b.sum() for n in partial)
        grid = IntervalGrid(*log.horizon, 1.0)

        def masks_and_phis(n, beta):
            """The distinct equipped-trip masks and phis of replay seeds 0-7."""
            equipped = equipped_set(small_fleet, n.tolist())
            masks, phis = set(), set()
            for seed in range(8):
                replay = simulate(log, small_fleet, SimConfig(seed=seed, beta=beta, equipped=equipped))
                masks.add(np.isin(replay.bike_of_trip, sorted(equipped)).tobytes())
                counts = coverage_counts(log.events, replay, equipped, grid, net.num_segments)
                phis.add(sensing_score(counts, net.seg_length_m, grid))
            return masks, phis

        for n in [0 * b, *partial, b]:
            masks, phis = masks_and_phis(n, 1.0)
            assert len(masks) == len(phis) == 1
        assert any(len(masks_and_phis(n, 0.5)[0]) > 1 for n in partial)

    def test_guided_selection_frequency(self):
        # one equipped + one plain bike, beta=0.5: P(equipped) = 0.5 + 0.5/2
        log = toy_log([(0, 1, 3, 4)], num_stands=2)
        plan = FleetPlan([2, 0])
        hits = 0
        n = 2000
        for seed in range(n):
            cfg = SimConfig(seed=seed, beta=0.5, equipped=frozenset({0}))
            trajs = simulate(log, plan, cfg)
            hits += bool(list(trajs)[0].served)
        assert hits / n == pytest.approx(0.75, abs=0.03)

    def test_infeasible_plan_raises(self):
        log = toy_log([(0, 1, 3, 4)], num_stands=2)
        with pytest.raises(InfeasiblePlanError, match="stand 0"):
            simulate(log, FleetPlan([0, 0]), SimConfig(seed=0))

    def test_infeasible_plan_names_the_first_short_row(self):
        # stands 0 and 1 each lack a bike; stand 1 runs short first, at trip t2
        log = toy_log([(1, 2, 1, 5), (0, 2, 2, 5), (1, 2, 3, 5), (0, 2, 4, 5)], num_stands=3)
        assert initial_bike_counts(log).b == [2, 2, 0]
        with pytest.raises(InfeasiblePlanError) as caught:
            simulate(log, FleetPlan([1, 1, 0]), SimConfig(seed=0))
        assert str(caught.value) == "no idle bike at stand 1 at minute 3 for trip t2"

    def test_bad_log_or_plan_fails_before_any_draw(self, monkeypatch, small_scenario, small_fleet):
        def no_draws(seed):
            raise AssertionError("replay drew for a log or plan it must reject")

        monkeypatch.setattr(fleet_sim, "PCG64", no_draws)
        _net, log = small_scenario
        b = list(small_fleet.b)
        b[b.index(max(b))] -= 1
        # the unguided pass, the inline loop and the beta=1 pass
        for cfg in (SimConfig(0), SimConfig(0, 0.5, frozenset({0, 1})), SimConfig(0, 1.0, frozenset({0, 1}))):
            with pytest.raises(InfeasiblePlanError):
                simulate(log, FleetPlan(b), cfg)

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_guided_loop_at_beta_zero_is_the_unguided_replay(self, request, scenario):
        """simulate sends beta=0 to the unguided pass, so criterion 4 holds there
        by construction. The guided loop, run at beta=0 itself, must agree."""
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        equipped = equipped_set(fleet, [(b + 1) // 2 for b in fleet.b])
        assert equipped
        for seed in range(5):
            guided = fleet_sim._guided_bikes(log, fleet, SimConfig(seed, 0.0, equipped))
            assert guided == simulate(log, fleet, SimConfig(seed)).bike_of_trip.tolist()

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_beta_one_pass_is_the_guided_loop(self, request, monkeypatch, scenario):
        """simulate sends beta=1 to a draw-free scan and one pass of picks. The
        inline loop, run at beta=1 itself, must pick the same bikes, and the
        scan's flags must mark the rows it served with equipped bikes: with one
        equipped bike per stand, half of each stand, and the whole fleet; and
        under a stream whose rejections send the pass to draw every row
        inline."""
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        plans = [[min(1, b) for b in fleet.b], [(b + 1) // 2 for b in fleet.b], fleet.b]

        def check():
            for n in plans:
                equipped = equipped_set(fleet, n)
                is_equipped = np.isin(np.arange(fleet.num_bikes), sorted(equipped))
                rode, _sizes = fleet_sim._equipped_rows(log, fleet, equipped)
                for seed in range(5):
                    cfg = SimConfig(seed, 1.0, equipped)
                    guided = fleet_sim._guided_bikes(log, fleet, cfg)
                    assert simulate(log, fleet, cfg).bike_of_trip.tolist() == guided
                    assert rode.tolist() == is_equipped[guided].tolist()

        check()
        monkeypatch.setattr(fleet_sim, "PCG64", SparseWords)
        monkeypatch.setattr(SparseWords, "made", [])
        check()
        assert all(bitgen.taken > 2 * len(log.ids) for bitgen in SparseWords.made)

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            SimConfig(seed=0, beta=1.5)


class TestCheckReplay:
    """check_replay passes every replay simulate gives and refuses one no run could give."""

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_replays_pass(self, request, scenario):
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        equipped = equipped_set(fleet, [(b + 1) // 2 for b in fleet.b])
        for beta in (0.0, 0.5, 1.0):
            for seed in range(3):
                check_replay(log, simulate(log, fleet, SimConfig(seed, beta, equipped)), equipped, beta)

    def test_swapped_bikes_refused(self, small_scenario, small_fleet):
        """Two trips with different origins, on two bikes, swap bikes: neither bike's rides chain."""
        _net, log = small_scenario
        trajs = simulate(log, small_fleet, SimConfig(seed=1))
        rng = np.random.default_rng(5)
        swaps = 0
        while swaps < 200:
            i, j = rng.choice(len(log.ids), 2, replace=False).tolist()
            if log.origin[i] == log.origin[j] or trajs.bike_of_trip[i] == trajs.bike_of_trip[j]:
                continue
            bikes = trajs.bike_of_trip.copy()
            bikes[[i, j]] = bikes[[j, i]]
            with pytest.raises(MalformedInputError, match="^bike_of_trip puts trip "):
                check_replay(log, Replay(bikes, trajs.homes, trajs.trip_ids), frozenset(), 0.0)
            swaps += 1

    def test_each_fault_named(self):
        # stand 0's bike reaches stand 1 at minute 7; stand 1's leaves at minute 5
        log = toy_log([(0, 1, 3, 4), (1, 0, 5, 2)], num_stands=2)
        homes = initial_bike_counts(log).home_stands()
        assert homes.tolist() == [0, 1]
        check_replay(log, Replay(np.array([0, 1]), homes, log.ids), frozenset(), 0.0)
        faults = {
            (0, 0): "trip t1, which leaves stand 1 at minute 5, on bike 0, which waits at stand 1 from minute 7",
            (1, 0): "trip t0, which leaves stand 0 at minute 3, on bike 1, which waits at stand 1 from minute 0",
            (1, 1): "trip t0, which leaves stand 0 at minute 3, on bike 1, which waits at stand 1 from minute 0",
        }
        for bikes, fault in faults.items():
            with pytest.raises(MalformedInputError) as caught:
                check_replay(log, Replay(np.array(bikes), homes, log.ids), frozenset(), 0.0)
            assert str(caught.value) == f"bike_of_trip puts {fault}"
        # bike 0 is back in time, at the wrong stand
        log = toy_log([(0, 1, 3, 4), (0, 0, 8, 2)], num_stands=2)
        message = "^bike_of_trip puts trip t1, which leaves stand 0 at minute 8, on bike 0, which waits at stand 1 from minute 7$"
        with pytest.raises(MalformedInputError, match=message):
            check_replay(log, Replay(np.array([0, 0]), np.array([0, 0]), log.ids), frozenset(), 0.0)
        with pytest.raises(MalformedInputError, match="^homes are not those of the log's minimal fleet of 2 bikes$"):
            check_replay(log, Replay(np.array([0, 1]), np.array([0, 1]), log.ids), frozenset(), 0.0)
        with pytest.raises(MalformedInputError, match="^trip_ids are not the log's trips; re-run `velosense simulate`$"):
            check_replay(log, Replay(np.array([0, 0]), np.array([0, 0]), log.ids[::-1]), frozenset(), 0.0)

    def test_equipped_not_a_plans_refused(self, small_scenario, small_fleet):
        """At every beta the equipped bikes must be the first ones of each stand."""
        _net, log = small_scenario
        stand = small_fleet.b.index(max(small_fleet.b))
        first = sum(small_fleet.b[:stand])
        for beta in (0.0, 0.5, 1.0):
            replay = simulate(log, small_fleet, SimConfig(0, beta, frozenset({first, first + 1})))
            check_replay(log, replay, frozenset({first, first + 1}), beta)
            with pytest.raises(MalformedInputError, match="^metadata.equipped is not the first bikes of each stand"):
                check_replay(log, replay, frozenset({first + 1}), beta)

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_equipped_not_the_beta_one_replays_refused(self, request, scenario):
        """At beta=1 a set of a plan's form other than the replay's is refused:
        the replay's with one stand's count one lower or one higher, at each of
        the first four stands with two bikes or more."""
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        n = [(b + 1) // 2 for b in fleet.b]
        replay = simulate(log, fleet, SimConfig(0, 1.0, equipped_set(fleet, n)))
        for stand in np.flatnonzero(np.array(fleet.b) > 1)[:4].tolist():
            for step in (-1, 1):
                other = list(n)
                other[stand] += step
                equipped = equipped_set(fleet, other)
                assert replay.rode(equipped).tolist() != fleet_sim._equipped_rows(log, fleet, equipped)[0].tolist()
                with pytest.raises(MalformedInputError, match="^metadata.equipped is not the set of bikes the beta=1"):
                    check_replay(log, replay, equipped, 1.0)


class TestReplayMatchesMinuteLoop:
    """The row-by-row replay assigns every trip the bike the minute loop did."""

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_same_bikes_and_homes(self, request, scenario, beta):
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        equipped = equipped_set(fleet, [(b + 1) // 2 for b in fleet.b])
        assert equipped
        for seed in range(5):
            cfg = SimConfig(seed=seed, beta=beta, equipped=equipped)
            replay = simulate(log, fleet, cfg)
            bike_of_trip, homes = simulate_by_minute(log, fleet.b, cfg)
            assert replay.bike_of_trip.tolist() == bike_of_trip
            assert replay.homes.tolist() == homes

    @pytest.mark.parametrize("scenario", ["small", "reference"])
    def test_one_equipped_bike_per_stand(self, request, scenario):
        # guided pools of 0 and 1 bikes: a pick from one bike takes no bits
        _net, log = request.getfixturevalue(f"{scenario}_scenario")
        fleet = request.getfixturevalue(f"{scenario}_fleet")
        equipped = equipped_set(fleet, [min(b, 1) for b in fleet.b])
        for seed in range(5):
            cfg = SimConfig(seed=seed, beta=0.25, equipped=equipped)
            replay = simulate(log, fleet, cfg)
            bike_of_trip, homes = simulate_by_minute(log, fleet.b, cfg)
            assert replay.bike_of_trip.tolist() == bike_of_trip
            assert replay.homes.tolist() == homes


class TestReplayGolden:
    """SHA-256 of bike_of_trip (int64, little-endian) on the small scenario at
    seed 0, half of each stand's bikes equipped, as the replay that made two
    numpy Generator calls per trip wrote it. Drift in the stream that the
    minute-loop oracle would share shows here."""

    DIGESTS = {
        0.0: "6121cd1a6bdcbf2ad87589832fd1aa1be2550d4e1585bea7b78dc0a27573aebe",
        0.5: "d0bc20981d3a34f52dcf18ba1de1ec470403513b4394e0360fd41e224bc3b342",
        1.0: "8226053504af8c56eee5d5ce588f70086ebaed991cb215ac40e50a70a6ba00d4",
    }

    @pytest.mark.parametrize("beta", sorted(DIGESTS))
    def test_bike_of_trip_digest(self, small_scenario, small_fleet, beta):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [(b + 1) // 2 for b in small_fleet.b])
        replay = simulate(log, small_fleet, SimConfig(seed=0, beta=beta, equipped=equipped))
        digest = hashlib.sha256(replay.bike_of_trip.astype("<i8").tobytes()).hexdigest()
        assert digest == self.DIGESTS[beta]


# Pool sizes for the draws: the large ones make Lemire's rejection loop
# run often (about every other draw at 2**31 + 1, every fourth at 3 * 2**30).
SIZES = [1, 2, 3, 7, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1]


def numpy_picks(seed, sizes):
    """The picks of Generator(PCG64(seed)) calling random() then integers(0, n) for each size."""
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = []
    for n in sizes:
        rng.random()
        picks.append(int(rng.integers(0, n)))
    return picks


def inline_picks(seed, sizes):
    """The picks as the guided loop draws them: a row's guidance word, then
    its first 32 bits inline, then _redraw."""
    stream = iter(np.random.PCG64(seed).random_raw(3 * len(sizes) + 64).tolist())
    half = None
    picks = []
    for n in sizes:
        next(stream)
        if n == 1:
            picks.append(0)
            continue
        if half is None:
            word = next(stream)
            m, half = (word & 0xFFFFFFFF) * n, word >> 32
        else:
            m, half = half * n, None
        k, half = _redraw(m, n, half, stream.__next__)
        picks.append(k)
    return picks


class SparseWords:
    """A PCG64 stand-in whose words are PCG64's with seven in eight zeroed. A
    zero half is rejected by every pool size but a power of two, so picks
    take many more words than two per row, and a replay under it never keeps
    the unguided pass's picks: it draws every row inline."""

    made = []

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self.taken = 0
        self.made.append(self)

    def random_raw(self, size=None):
        words = self._bitgen.random_raw(1 if size is None else size)
        kept = np.arange(self.taken, self.taken + len(words)) % 8 == 0
        self.taken += len(words)
        words = np.where(kept, words, np.uint64(0))
        return int(words[0]) if size is None else words


class TestDraws:
    """The unguided pass and the guided loop's inline draws give what numpy's
    Generator gives for random() then integers(0, n), row by row."""

    @pytest.mark.parametrize("n", SIZES)
    def test_random_then_integers_match_numpy(self, n):
        for seed in range(20):
            expected = numpy_picks(seed, [n] * 60)
            assert _unguided_picks(seed, np.full(60, n)).tolist() == expected
            assert inline_picks(seed, [n] * 60) == expected

    def test_mixed_sizes_share_the_left_over_half_across_chunks(self):
        # 6,144 rows, a quarter of them often rejected: the unguided pass draws every
        # row inline, reading on past the words it took in chunks of _CHUNK
        sizes = np.random.default_rng(7).choice(SIZES, size=6144)
        for seed in range(3):
            expected = numpy_picks(seed, sizes.tolist())
            assert _unguided_picks(seed, sizes).tolist() == expected
            assert inline_picks(seed, sizes.tolist()) == expected

    def test_rejections_take_more_words_than_the_first_layout(self):
        # without a rejection 200 rows at 2**31 + 1 take 300 words; about every
        # other draw is rejected, and the last redraws read past the words the pass took
        sizes = [2**31 + 1] * 200
        for seed in range(5):
            assert _unguided_picks(seed, np.array(sizes)).tolist() == numpy_picks(seed, sizes)
        # 3 rows take 5 words; at some seeds the first row's redraws read past them all
        sizes = [2**31 + 1] * 3
        for seed in range(200):
            assert _unguided_picks(seed, np.array(sizes)).tolist() == numpy_picks(seed, sizes)

    def test_rows_around_a_rejection_are_drawn_inline(self):
        # one often-rejected row in 200: after a rejection the pass draws every
        # row inline, those before the rejected one, which the pass had drawn,
        # and those after it, which read on in the stream with any left-over half
        sizes = np.random.default_rng(11).choice([1, 2, 3, 7, 1000], size=3000)
        sizes[100::200] = 2**31 + 1
        for seed in range(5):
            assert _unguided_picks(seed, sizes).tolist() == numpy_picks(seed, sizes.tolist())
        # the inline draws start with no left-over half: a first pool of two takes a fresh word's low half
        sizes = [1, 2] + [2**31 + 1] * 3
        for seed in range(50):
            assert _unguided_picks(seed, np.array(sizes)).tolist() == numpy_picks(seed, sizes)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_real_replays_keep_the_bulk_pass(self, monkeypatch, reference_scenario, reference_fleet, beta):
        """A pick over n bikes is rejected with a chance below n / 2**32, so the
        unguided and beta=1 replays of the reference fixture keep their one
        pass's picks and never call _redraw; under SparseWords the same replay
        draws inline, and the spy sees it."""
        calls = []
        redraw = fleet_sim._redraw

        def spy(*args):
            calls.append(args)
            return redraw(*args)

        monkeypatch.setattr(fleet_sim, "_redraw", spy)
        _net, log = reference_scenario
        equipped = equipped_set(reference_fleet, [(b + 1) // 2 for b in reference_fleet.b])
        for seed in range(10):
            simulate(log, reference_fleet, SimConfig(seed, beta, equipped))
        assert calls == []
        monkeypatch.setattr(fleet_sim, "PCG64", SparseWords)
        simulate(log, reference_fleet, SimConfig(0, beta, equipped))
        assert calls

    def test_a_pool_of_one_takes_no_bits(self):
        # seven rows of one bike take their guidance words only; the eighth picks from word 8's low half
        sizes = [1] * 7 + [1000]
        for seed in range(20):
            words = np.random.PCG64(seed).random_raw(9).tolist()
            expected = [0] * 7 + [(words[8] & 0xFFFFFFFF) * 1000 >> 32]
            assert _unguided_picks(seed, np.array(sizes)).tolist() == expected
            assert inline_picks(seed, sizes) == expected == numpy_picks(seed, sizes)

    def test_guided_loop_redraws_across_its_chunks(self, monkeypatch, small_scenario, small_fleet):
        # chunks of 64 words, so redraws take words across many of them
        monkeypatch.setattr(fleet_sim, "PCG64", SparseWords)
        monkeypatch.setattr(fleet_sim, "_CHUNK", 64)
        monkeypatch.setattr(SparseWords, "made", [])
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [(b + 1) // 2 for b in small_fleet.b])
        for seed in range(3):
            guided = fleet_sim._guided_bikes(log, small_fleet, SimConfig(seed, 0.0, equipped))
            assert SparseWords.made[-1].taken > 2 * len(log.ids)
            assert guided == simulate(log, small_fleet, SimConfig(seed)).bike_of_trip.tolist()


class TestFleetPlan:
    def test_bikes_homes_and_equipped_follow_counts(self):
        plan = FleetPlan([3, 0, 2])
        assert plan.bikes == [[0, 1, 2], [], [3, 4]]
        assert plan.home_stands().tolist() == [0, 0, 0, 2, 2]
        assert equipped_set(plan, [2, 0, 1]) == frozenset({0, 1, 3})


class TestEquippedSet:
    def test_first_n_per_stand(self):
        plan = FleetPlan([3, 2])
        assert equipped_set(plan, [2, 1]) == frozenset({0, 1, 3})

    def test_over_capacity_rejected(self):
        plan = FleetPlan([1, 0])
        with pytest.raises(Exception):
            equipped_set(plan, [2, 0])


class TestTrajectoryDump:
    def test_round_trip_with_metadata(self, small_scenario, small_fleet, tmp_path):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        cfg = SimConfig(seed=13, beta=0.4, equipped=equipped)
        trajs = simulate(log, small_fleet, cfg)
        out = tmp_path / "traj.json"
        save_trajectories(trajs, cfg, out, "ab" * 32)
        loaded, meta = load_trajectories(out)
        assert [(t.bike, t.home, t.served) for t in loaded] == [(t.bike, t.home, t.served) for t in trajs]
        assert loaded == trajs
        assert meta["triplog_sha256"] == "ab" * 32
        assert meta["seed"] == 13
        assert meta["beta"] == 0.4
        assert meta["generator"] == "numpy-pcg64"
        assert set(meta["equipped"]) == set(equipped)

    def test_round_trip_keeps_every_column(self, small_scenario, small_fleet, tmp_path):
        _net, log = small_scenario
        equipped = equipped_set(small_fleet, [min(1, b) for b in small_fleet.b])
        cfg = SimConfig(seed=21, beta=0.6, equipped=equipped)
        trajs = simulate(log, small_fleet, cfg)
        out = tmp_path / "traj.json"
        save_trajectories(trajs, cfg, out, "ab" * 32)
        loaded, _meta = load_trajectories(out)
        assert loaded.bike_of_trip.tolist() == trajs.bike_of_trip.tolist()
        assert loaded.homes.tolist() == trajs.homes.tolist()
        assert loaded.trip_ids == trajs.trip_ids
        assert loaded == trajs
