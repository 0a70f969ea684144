import sys
import warnings

import numpy as np
import pytest

from velosense import coverage_model
from velosense.coverage_model import (
    CoverageMatrix,
    estimate_probabilities,
    linearity_probe,
    load_matrix,
    mean_coverage,
    save_matrix,
)
from velosense.errors import MalformedInputError
from velosense.fleet_sim import FleetPlan, SimConfig, initial_bike_counts, simulate
from velosense.trips import Path, Stand, Trip

from oracles import (
    column_dict,
    dict_columns,
    linearity_probe_counter,
    mean_coverage_counter,
    per_bike_assembly,
    traversal_times,
)
from trip_logs import trip_log


def line_trip(trip_id, origin, dest, start, block=600.0, speed=200.0):
    """Trip along the line network between stand/node origin and dest."""
    lo, hi = min(origin, dest), max(origin, dest)
    segs = list(range(lo, hi))
    if origin > dest:
        segs = segs[::-1]
    nodes = tuple(range(origin, dest + 1)) if origin < dest else tuple(range(origin, dest - 1, -1))
    lengths = tuple(block for _ in segs)
    distance = block * len(segs)
    duration = max(1, int(distance / speed))
    return Trip(trip_id, origin, dest, start, Path(tuple(segs), nodes, lengths, distance), duration)


def radial_log(n_nodes=9, horizon=(0, 600)):
    """All demand leaves stand 0; counts to node k fall off steeply with k."""
    trips = []
    start = 1
    tid = 0
    for k in range(1, n_nodes):
        count = max(1, 48 // (k * k))
        for _ in range(count):
            trips.append(line_trip(f"r{tid}", 0, k, start))
            tid += 1
            start += 2
    trips.sort(key=lambda t: t.start_min)
    stands = [Stand(i, i) for i in range(n_nodes)]
    return trip_log(trips, stands, horizon, 200.0)


def one_trip_log():
    """One trip from stand 0 to stand 2 along a three-node line."""
    return trip_log([line_trip("a", 0, 2, 5)], [Stand(i, i) for i in range(3)], (0, 60), 200.0)


class TestMeanCoverage:
    def test_single_run_counts_each_traversal_once(self):
        log = one_trip_log()
        plan = initial_bike_counts(log)
        assert column_dict(*mean_coverage(log, plan, runs=1, seed=4)) == {(0, 0): 1.0, (0, 1): 1.0}

    def test_mean_of_identical_runs_is_unchanged(self):
        log = radial_log()
        plan = initial_bike_counts(log)
        once = mean_coverage(log, plan, runs=1, seed=9)
        many = mean_coverage(log, plan, runs=4, seed=9)
        # one idle bike per selection here, so every run plays out identically
        assert column_dict(*once) == column_dict(*many)

    def test_default_run_count(self, small_scenario, small_fleet):
        import inspect

        assert inspect.signature(mean_coverage).parameters["runs"].default == 20

    def test_conservation_of_events(self, small_scenario, small_fleet):
        _net, log = small_scenario
        _stand, _segment, n_bar = mean_coverage(log, small_fleet, runs=3, seed=1)
        total_segments = sum(len(t.path.segments) for t in log.trips)
        assert sum(n_bar.tolist()) == pytest.approx(total_segments, rel=1e-12)

    def test_columns_sorted_unique_and_typed(self, small_scenario, small_fleet):
        _net, log = small_scenario
        stand, segment, n_bar = mean_coverage(log, small_fleet, runs=2, seed=1)
        assert (stand.dtype, segment.dtype, n_bar.dtype) == (np.int64, np.int64, np.float64)
        keys = list(zip(stand.tolist(), segment.tolist()))
        assert keys == sorted(set(keys))
        assert (n_bar > 0).all()

    def test_runs_validated(self, small_scenario, small_fleet):
        _net, log = small_scenario
        with pytest.raises(ValueError):
            mean_coverage(log, small_fleet, runs=0)


class TestEstimateProbabilities:
    def test_binomial_slope(self, monkeypatch):
        log = one_trip_log()
        monkeypatch.setattr(coverage_model, "mean_coverage", lambda *_args: dict_columns({(0, 3): 4.0}))
        matrix = estimate_probabilities(log, FleetPlan([8, 0, 0]), runs=20, seed=6)
        assert column_dict(matrix.stand, matrix.segment, matrix.p) == {(0, 3): 0.5}
        # the protocol comes from the call and the log
        assert (matrix.runs, matrix.seed, matrix.stand_nodes) == (20, 6, [0, 1, 2])

    def test_absent_entries_stay_absent(self):
        # the one trip leaves stand 0, so stands 1 and 2 cover nothing
        log = one_trip_log()
        matrix = estimate_probabilities(log, initial_bike_counts(log), runs=2, seed=0)
        assert set(matrix.stand.tolist()) == {0}

    def test_exact_on_deterministic_fixture(self):
        # every stand holds one bike, so counts have no selection randomness
        log = radial_log()
        plan = initial_bike_counts(log)
        matrix = estimate_probabilities(log, plan, runs=2, seed=3)
        direct = {}
        for trip in log.trips:
            for seg in trip.path.segments:
                direct[seg] = direct.get(seg, 0) + 1
        expected = {(0, seg): count / plan.b[0] for seg, count in direct.items()}
        assert column_dict(matrix.stand, matrix.segment, matrix.p) == expected

    def test_equal_to_a_per_entry_division(self, small_scenario, small_fleet):
        _net, log = small_scenario
        matrix = estimate_probabilities(log, small_fleet, runs=3, seed=5)
        n_bar = column_dict(*mean_coverage(log, small_fleet, runs=3, seed=5))
        expected = {(s, e): value / small_fleet.b[s] for (s, e), value in n_bar.items()}
        assert column_dict(matrix.stand, matrix.segment, matrix.p) == expected

    def test_values_finite_and_nonnegative(self, small_scenario, small_fleet):
        _net, log = small_scenario
        matrix = estimate_probabilities(log, small_fleet, runs=2, seed=5)
        assert all(p > 0 and p < float("inf") for p in matrix.p.tolist())


class TestLinearityProbe:
    def test_slope_near_estimated_probability(self, small_scenario, small_fleet):
        _net, log = small_scenario
        busiest = max(range(len(small_fleet.b)), key=lambda s: small_fleet.b[s])
        rows = linearity_probe(log, small_fleet, [busiest], runs=4, seed=6, min_mean=3.0)
        assert rows, "expected at least one probed pair"
        matrix = estimate_probabilities(log, small_fleet, runs=4, seed=6)
        p = column_dict(matrix.stand, matrix.segment, matrix.p)
        for stand, seg, slope, r2, points in rows:
            assert stand == busiest
            assert points == small_fleet.b[busiest]
            assert 0.0 <= r2 <= 1.0
            # the full-fleet point of the refit is the production estimate
            assert slope == pytest.approx(p[(stand, seg)], rel=0.6)

    @pytest.mark.parametrize("stands, unknown", [([-7, 1], -7), ([99], 99)])
    def test_unknown_stand_rejected(self, small_scenario, small_fleet, stands, unknown):
        # -7 once indexed stand 1's bikes from the end and filed them under -7
        _net, log = small_scenario
        with pytest.raises(MalformedInputError, match=f"unknown stand {unknown}$"):
            linearity_probe(log, small_fleet, stands, runs=3, min_mean=1.0)


def assembled_runs(log, plan, runs, seed):
    """Per-bike (bike, home, events) of the unguided replays seeded seed+1 .. seed+runs."""
    trip_events = [traversal_times(t, log.speed_m_per_min) for t in log.trips]
    out = []
    for tau in range(1, runs + 1):
        bike_of_trip = simulate(log, plan, SimConfig(seed=seed + tau)).bike_of_trip
        assembled = per_bike_assembly(log.trips, trip_events, bike_of_trip, plan.home_stands())
        out.append([(bike, home, events) for bike, home, _served, events in assembled])
    return out


class TestCounterOracle:
    """The bincount tallies equal the Counter tally they replaced."""

    def test_mean_coverage(self, small_scenario, small_fleet):
        _net, log = small_scenario
        n_bar = column_dict(*mean_coverage(log, small_fleet, runs=3, seed=2))
        expected = mean_coverage_counter(assembled_runs(log, small_fleet, 3, 2))
        assert list(n_bar.items()) == list(expected.items())

    def test_linearity_probe(self, small_scenario, small_fleet):
        _net, log = small_scenario
        stands = [s for s, b in enumerate(small_fleet.b) if b >= 2][:3] + [0]
        rows = linearity_probe(log, small_fleet, stands, runs=3, seed=6, min_mean=1.0)
        expected = linearity_probe_counter(
            assembled_runs(log, small_fleet, 3, 6), small_fleet.bikes, stands, min_mean=1.0
        )
        assert rows
        assert rows == expected


class TestMatrixSerialization:
    def test_round_trip(self, small_scenario, small_fleet, tmp_path):
        _net, log = small_scenario
        matrix = estimate_probabilities(log, small_fleet, runs=2, seed=1)
        csv_path, meta_path = tmp_path / "p.csv", tmp_path / "p.meta.json"
        save_matrix(matrix, csv_path, meta_path)
        loaded = load_matrix(csv_path, meta_path)
        for name in ("stand", "segment", "p"):
            column, expected = getattr(loaded, name), getattr(matrix, name)
            assert column.dtype == expected.dtype and np.array_equal(column, expected)
        assert loaded.runs == matrix.runs
        assert loaded.seed == matrix.seed
        assert loaded.stand_nodes == matrix.stand_nodes
        assert csv_path.read_text().splitlines()[0] == "stand_id,segment_id,p"

    def test_round_trip_is_exact(self, tmp_path, capsys):
        """Each id and p comes back bit for bit, with its fields quoted or not, and a
        header-only file loads empty without a warning."""
        stand = np.array([0, 0, 1, 7, 2**62, 2**63 - 1], dtype=np.int64)
        segment = np.array([0, 2**63 - 1, 5, 0, 3, 0], dtype=np.int64)
        p = np.array([5e-324, 1e-300, 0.1 + 0.2, 1 / 3, float(2**60 + 1), sys.float_info.max])
        csv_path, meta_path = tmp_path / "p.csv", tmp_path / "p.meta.json"
        save_matrix(CoverageMatrix(stand, segment, p, 2, 1, [10, 11]), csv_path, meta_path)
        plain = load_matrix(csv_path, meta_path)
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("".join('"' + '","'.join(line.split(",")) + '"\n' for line in lines))  # every field quoted
        for loaded in (plain, load_matrix(csv_path, meta_path)):
            assert loaded.stand.tolist() == stand.tolist() and loaded.segment.tolist() == segment.tolist()
            assert loaded.p.dtype == np.float64 and loaded.p.tobytes() == p.tobytes()
        csv_path.write_text("stand_id,segment_id,p\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = load_matrix(csv_path, meta_path)
        assert [len(empty.stand), len(empty.segment), len(empty.p)] == [0, 0, 0]
        assert empty.stand.dtype == empty.segment.dtype == np.int64 and empty.p.dtype == np.float64
        assert capsys.readouterr().err == ""

    def test_rows_in_any_order_load_sorted(self, small_scenario, small_fleet, tmp_path):
        _net, log = small_scenario
        matrix = estimate_probabilities(log, small_fleet, runs=2, seed=1)
        csv_path, meta_path = tmp_path / "p.csv", tmp_path / "p.meta.json"
        save_matrix(matrix, csv_path, meta_path)
        header, *rows = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([header, *rows[::-1], ""]))
        loaded = load_matrix(csv_path, meta_path)
        assert np.array_equal(loaded.stand, matrix.stand)
        assert np.array_equal(loaded.segment, matrix.segment)
        assert np.array_equal(loaded.p, matrix.p)
