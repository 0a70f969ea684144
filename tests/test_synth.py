import hashlib

import pytest

from velosense.errors import ConfigInfeasibleError
from velosense.network import load_network
from velosense.synth import SynthConfig, generate, grid_network, write_network_csv, write_trips_csv
from velosense.trips import DEFAULT_WINDOW, clean_trips, parse_raw_trips


class TestGridNetwork:
    def test_dimensions(self):
        net = grid_network(4, 3, 250.0)
        assert net.num_nodes == 12
        assert net.num_segments == 3 * 3 + 2 * 4  # horizontal + vertical
        assert set(net.seg_length_m) == {250.0}

    def test_two_by_two(self):
        net = grid_network(2, 2, 600.0)
        assert net.num_nodes == 4
        assert net.num_segments == 4


class TestGenerate:
    def test_two_stand_grid_routes_between_them(self):
        cfg = SynthConfig(2, 2, 600.0, stand_count=2, trips=10, seed=3)
        net, raw = generate(cfg)
        assert len(raw) == 10
        log = clean_trips(raw, net)
        assert len(log.trips) == 10
        assert log.num_stands == 2
        for trip in log.trips:
            assert 500.0 <= trip.path.distance_m <= 5000.0
            assert {trip.origin, trip.dest} == {0, 1}

    def test_zero_trips_gives_empty_log(self):
        cfg = SynthConfig(3, 3, 600.0, stand_count=3, trips=0, seed=1)
        _net, raw = generate(cfg)
        assert (len(raw), raw.id, raw.start, raw.coords.shape) == (0, [], [], (0, 4))

    def test_cleaning_keeps_every_generated_trip(self):
        cfg = SynthConfig(10, 10, 250.0, stand_count=20, trips=2000, seed=8)
        net, raw = generate(cfg)
        log = clean_trips(raw, net)
        assert len(log.trips) == len(raw) == 2000
        assert all(v == 0 for v in log.drop_counts.values())

    def test_deterministic_under_seed(self):
        cfg = SynthConfig(6, 6, 300.0, stand_count=6, trips=50, seed=21)
        columns = lambda raw: (raw.id, raw.start, raw.coords.tolist())
        _net_a, raw_a = generate(cfg)
        _net_b, raw_b = generate(cfg)
        assert columns(raw_a) == columns(raw_b)
        _net_c, raw_c = generate(
            SynthConfig(6, 6, 300.0, stand_count=6, trips=50, seed=22)
        )
        assert columns(raw_a) != columns(raw_c)

    def test_infeasible_when_no_pair_in_bounds(self):
        # 2x2 grid with 100 m blocks: every stand pair is under 500 m apart
        cfg = SynthConfig(2, 2, 100.0, stand_count=2, trips=5, seed=0)
        with pytest.raises(ConfigInfeasibleError):
            generate(cfg)

    def test_start_minutes_inside_horizon(self):
        cfg = SynthConfig(5, 5, 400.0, stand_count=5, trips=200, seed=2)
        _net, raw = generate(cfg)
        for start in raw.start:
            minute = start.hour * 60 + start.minute
            assert DEFAULT_WINDOW[0] <= minute <= DEFAULT_WINDOW[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(1, 1, 200.0, stand_count=1, trips=1)
        with pytest.raises(ValueError):
            SynthConfig(3, 3, 200.0, stand_count=10, trips=1)
        with pytest.raises(ValueError):
            SynthConfig(3, 3, 200.0, stand_count=2, trips=-1)
        with pytest.raises(ValueError):
            SynthConfig(3, 3, -5.0, stand_count=2, trips=1)
        with pytest.raises(ValueError):
            SynthConfig(3, 3, 200.0, stand_count=2, trips=1, gravity_gamma=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^block_m must be a finite number > 0, got {value}$"):
                SynthConfig(3, 3, value, stand_count=2, trips=1)
            with pytest.raises(ValueError, match=f"^gravity_gamma must be a finite number > 0, got {value}$"):
                SynthConfig(3, 3, 200.0, stand_count=2, trips=1, gravity_gamma=value)
        counts = {"grid_w": 3, "grid_h": 3, "stand_count": 2, "trips": 1, "seed": 0}
        for name in counts:
            for value in (2.5, 2.0, True, "2"):
                with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
                    SynthConfig(block_m=200.0, **{**counts, name: value})
        for value in (True, "200"):
            with pytest.raises(ValueError, match=f"^block_m must be a finite number > 0, got {value!r}$"):
                SynthConfig(3, 3, value, stand_count=2, trips=1)
            with pytest.raises(ValueError, match=f"^gravity_gamma must be a finite number > 0, got {value!r}$"):
                SynthConfig(3, 3, 200.0, stand_count=2, trips=1, gravity_gamma=value)
        assert SynthConfig(3, 3, 200, stand_count=2, trips=1).block_m == 200


class TestFileEmission:
    def test_emitted_files_feed_the_ingestion_pipeline(self, tmp_path):
        cfg = SynthConfig(5, 5, 400.0, stand_count=5, trips=60, seed=14)
        net, raw = generate(cfg)
        nodes, edges, trips_file = tmp_path / "n.csv", tmp_path / "e.csv", tmp_path / "t.csv"
        write_network_csv(net, nodes, edges)
        write_trips_csv(raw, trips_file)

        with open(nodes) as nf, open(edges) as ef:
            loaded = load_network(nf, ef)
        assert loaded.num_nodes == net.num_nodes
        assert loaded.num_segments == net.num_segments
        assert list(loaded.seg_length_m) == list(net.seg_length_m)

        with open(trips_file) as tf:
            parsed, report = parse_raw_trips(tf)
        assert report.kept == len(raw)
        direct = clean_trips(raw, net)
        via_files = clean_trips(parsed, loaded)
        assert [t.id for t in via_files.trips] == [t.id for t in direct.trips]
        assert via_files.stands == direct.stands

    @pytest.mark.parametrize(
        "cfg, sha256",
        [
            (
                SynthConfig(6, 6, 300.0, stand_count=6, trips=200, seed=21),
                "62356ccdf8eadc762af75a1170a82ba925649431c20f038dfd963925beb295bc",
            ),
            (
                SynthConfig(3, 3, 600.0, stand_count=3, trips=0, seed=1),
                "e1598e9cabaa7504d08adf05edb9a9aed6f9f0ab5df0a44f55a7555a1a772d9b",
            ),
        ],
        ids=["200-trips", "no-trips"],
    )
    def test_trips_csv_is_pinned_byte_for_byte(self, tmp_path, cfg, sha256):
        """The benchmark's recorded references start from these bytes: each
        coordinate is written as the repr of a Python float."""
        _net, raw = generate(cfg)
        write_trips_csv(raw, tmp_path / "trips.csv")
        assert hashlib.sha256((tmp_path / "trips.csv").read_bytes()).hexdigest() == sha256
