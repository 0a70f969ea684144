import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from velosense.allocation import load_plan
from velosense.cli import main
from velosense.coverage_model import load_matrix
from velosense.errors import MalformedInputError
from velosense.fleet_sim import load_trajectories
from velosense.trips import DEFAULT_WINDOW, load_triplog

from lp_parser import parse_lp


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(
        [
            "synth",
            "--grid-w", "6", "--grid-h", "6", "--block-m", "350",
            "--stands", "6", "--trips", "150",
            "--seed", "19", "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pipeline_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    common = ["--out-dir", str(out), "--seed", "19"]
    assert main(
        [
            "ingest",
            "--nodes", str(synth_dir / "nodes.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--trips", str(synth_dir / "trips.csv"),
            *common,
        ]
    ) == 0
    assert main(["fleet", "--triplog", str(out / "triplog.json"), *common]) == 0
    assert main(
        ["probs", "--triplog", str(out / "triplog.json"), "--runs", "2", *common]
    ) == 0
    return out


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


SCORE_DIGESTS = {
    "coverage_counts.csv": "d56aac0a5fd5238b1f015cc148a97bd8fb0532f444463a055d9b82ce649bc978",
    "score.json": "1dd08d426ef7b6dacefb7c05a34b713b0396f7364f78b77c2b03e514cd84a220",
    "hourly.csv": "2086983447a7c7065e4fabd21606cf6ca675134036fdb784338d58a947146143",
    "hourly_segments.csv": "252dcff749ff5daec6101fa45207dae7a1fd56b46f0f56b208955415de3b6012",
}


def test_synth_writes_consumable_files(synth_dir):
    for name in ("nodes.csv", "edges.csv", "trips.csv"):
        assert (synth_dir / name).exists()
    assert (synth_dir / "trips.csv").read_text().splitlines()[0].startswith("ride_id,started_at")


def test_ingest_reports_and_triplog(pipeline_dir):
    report = json.loads((pipeline_dir / "ingest_report.json").read_text())
    assert report["parse"]["kept"] == 150
    assert sum(report["cleaning"].values()) == 0
    assert report["cleaning"]["other_day"] == 0
    doc = json.loads((pipeline_dir / "triplog.json").read_text())
    assert doc["format"] == "velosense-triplog-v6"
    trips, paths, segments = doc["trips"], doc["paths"], doc["segments"]
    assert list(trips) == ["id", "start_min", "path"]
    assert all(len(column) == 150 for column in trips.values())
    # one path per (origin, dest) stand pair, shared by the trips that make it
    assert list(paths) == ["origin", "dest", "count", "segments"]
    assert len(paths["count"]) == len(set(zip(paths["origin"], paths["dest"])))
    assert set(trips["path"]) == set(range(len(paths["count"])))
    # each segment a path uses once
    assert list(segments) == ["id", "u", "v", "length_m"]
    assert segments["id"] == sorted(set(paths["segments"]))


def test_fleet_artifact(pipeline_dir):
    doc = json.loads((pipeline_dir / "fleet.json").read_text())
    assert doc["format"] == "velosense-fleet-v1"
    assert sum(doc["b"]) > 0


def test_probs_artifact(pipeline_dir):
    header = (pipeline_dir / "probs.csv").read_text().splitlines()[0]
    assert header == "stand_id,segment_id,p"
    meta = json.loads((pipeline_dir / "probs.meta.json").read_text())
    assert meta["runs"] == 2 and meta["seed"] == 19
    assert _sha256(pipeline_dir / "probs.csv") == "a5fa120359b69c4edc0cfbb23feeb64ff71a01d106c0b62be4275e8be69a1185"


def test_allocate_simulate_score_chain(synth_dir, pipeline_dir, tmp_path):
    out = tmp_path
    base = [
        "--nodes", str(synth_dir / "nodes.csv"),
        "--edges", str(synth_dir / "edges.csv"),
        "--triplog", str(pipeline_dir / "triplog.json"),
        "--probs", str(pipeline_dir / "probs.csv"),
        "--probs-meta", str(pipeline_dir / "probs.meta.json"),
    ]
    assert main(
        ["allocate", *base, "--budget", "4", "--method", "exact",
         "--time-limit", "10", "--out-dir", str(out)]
    ) == 0
    alloc = json.loads((out / "alloc.json").read_text())
    assert alloc["format"] == "velosense-alloc-v1"
    assert sum(alloc["n"]) <= 4

    assert main(
        ["simulate", "--triplog", str(pipeline_dir / "triplog.json"),
         "--alloc", str(out / "alloc.json"), "--beta", "1.0",
         "--seed", "7", "--out-dir", str(out)]
    ) == 0
    traj = json.loads((out / "traj.json").read_text())
    assert list(traj) == ["format", "metadata", "homes", "trip_ids", "bike_of_trip"]
    assert traj["format"] == "velosense-traj-v3"
    assert traj["metadata"]["generator"] == "numpy-pcg64"

    assert main(
        ["score", "--traj", str(out / "traj.json"),
         "--triplog", str(pipeline_dir / "triplog.json"),
         "--nodes", str(synth_dir / "nodes.csv"),
         "--edges", str(synth_dir / "edges.csv"),
         "--delta", "4", "--out-dir", str(out)]
    ) == 0
    score = json.loads((out / "score.json").read_text())
    assert 0.0 <= score["phi_pct"] <= 100.0
    assert score["n_intervals"] == 4
    header = (out / "coverage_counts.csv").read_text().splitlines()[0]
    assert header == "segment_id,interval,count"
    hourly = (out / "hourly.csv").read_text().splitlines()
    assert hourly[0] == "hour,trips_started,coverage_events,trip_event_correlation"
    assert len(hourly) == 1 + 16  # one row per horizon hour
    assert (out / "hourly_segments.csv").read_text().splitlines()[0] == "hour,segment_id,count"
    # the score's four outputs, pinned byte for byte
    for name, digest in SCORE_DIGESTS.items():
        assert _sha256(out / name) == digest, name


def test_score_on_an_unaligned_horizon_writes_nothing(synth_dir, tmp_path, capsys):
    """The hourly diagnostics need an hour-aligned horizon; score checks it
    before it writes any of its outputs."""
    chain = tmp_path / "chain"
    paths = {
        "--nodes": synth_dir / "nodes.csv",
        "--edges": synth_dir / "edges.csv",
        "--trips": synth_dir / "trips.csv",
        "--triplog": chain / "triplog.json",
        "--probs": chain / "probs.csv",
        "--probs-meta": chain / "probs.meta.json",
        "--alloc": chain / "alloc.json",
        "--traj": chain / "traj.json",
    }
    common = ["--out-dir", str(chain)]
    window = ["--window-start", "390", "--window-end", "1350"]
    assert main(["ingest", *_args(paths, ("--nodes", "--edges", "--trips")), *window, *common]) == 0
    assert main(["probs", *_args(paths, ("--triplog",)), "--runs", "2", *common]) == 0
    assert main(["allocate", *_args(paths, ALLOCATE), "--budget", "4", *common]) == 0
    assert main(["simulate", *_args(paths, SIMULATE), *common]) == 0
    out = tmp_path / "score"
    out.mkdir()
    capsys.readouterr()
    assert main(["score", *_args(paths, SCORE), "--delta", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: horizon (390, 1350) is not hour-aligned\n"
    assert not any(out.iterdir())


def test_score_on_an_edgeless_network_is_2_and_writes_nothing(tmp_path, capsys):
    """Rides that start and end at one stand cover no segment of a network
    without edges, so there is no length to share: score refuses it."""
    (tmp_path / "nodes.csv").write_text("node_id,lat,lon\n0,40.7,-74.0\n1,40.7,-73.999\n")
    (tmp_path / "edges.csv").write_text("u,v,length_m\n")
    (tmp_path / "trips.csv").write_text(
        "ride_id,started_at,start_lat,start_lng,end_lat,end_lng\n"
        "a,2024-01-01 08:00:00,40.7,-74.0,40.7,-74.0\n"
        "b,2024-01-01 08:01:00,40.7,-74.0,40.7,-74.0\n"
    )
    chain = tmp_path / "chain"
    paths = {
        "--nodes": tmp_path / "nodes.csv",
        "--edges": tmp_path / "edges.csv",
        "--trips": tmp_path / "trips.csv",
        "--triplog": chain / "triplog.json",
        "--probs": chain / "probs.csv",
        "--probs-meta": chain / "probs.meta.json",
        "--alloc": chain / "alloc.json",
        "--traj": chain / "traj.json",
    }
    common = ["--out-dir", str(chain)]
    assert main(["ingest", *_args(paths, ("--nodes", "--edges", "--trips")), "--min-km", "0", *common]) == 0
    assert main(["probs", *_args(paths, ("--triplog",)), *common]) == 0
    assert main(["allocate", *_args(paths, ALLOCATE), "--budget", "1", *common]) == 0
    assert main(["simulate", *_args(paths, SIMULATE), *common]) == 0
    out = tmp_path / "score"
    out.mkdir()
    capsys.readouterr()
    assert main(["score", *_args(paths, SCORE), "--delta", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: sensing score is undefined on an empty network\n"
    assert not any(out.iterdir())


def test_budget_above_the_fleet_is_clamped_with_a_warning(synth_dir, pipeline_dir, tmp_path, capsys):
    paths = {
        "--nodes": synth_dir / "nodes.csv",
        "--edges": synth_dir / "edges.csv",
        "--triplog": pipeline_dir / "triplog.json",
        "--probs": pipeline_dir / "probs.csv",
        "--probs-meta": pipeline_dir / "probs.meta.json",
    }
    capacity = sum(json.loads((pipeline_dir / "fleet.json").read_text())["b"])
    budget = capacity + 7
    assert main(["allocate", *_args(paths, ALLOCATE), "--budget", str(budget), "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == f"warning: budget {budget} exceeds total capacity {capacity}; clamped\n"
    assert json.loads((tmp_path / "alloc.json").read_text())["budget"] == capacity


def test_export_lp(synth_dir, pipeline_dir, tmp_path):
    lp_path = tmp_path / "model.lp"
    assert main(
        ["export-lp",
         "--nodes", str(synth_dir / "nodes.csv"),
         "--edges", str(synth_dir / "edges.csv"),
         "--triplog", str(pipeline_dir / "triplog.json"),
         "--probs", str(pipeline_dir / "probs.csv"),
         "--probs-meta", str(pipeline_dir / "probs.meta.json"),
         "--budget", "4", "--out", str(lp_path)]
    ) == 0
    parsed = parse_lp(lp_path.read_text())
    assert parsed.generals and parsed.binaries
    assert any(name == "budget" for name, *_ in parsed.constraints)


def test_export_lp_writes_model_lp_into_out_dir_by_default(synth_dir, pipeline_dir, tmp_path):
    argv = [
        "export-lp",
        "--nodes", str(synth_dir / "nodes.csv"),
        "--edges", str(synth_dir / "edges.csv"),
        "--triplog", str(pipeline_dir / "triplog.json"),
        "--probs", str(pipeline_dir / "probs.csv"),
        "--probs-meta", str(pipeline_dir / "probs.meta.json"),
        "--budget", "4",
    ]
    out_dir = tmp_path / "new" / "run"
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    explicit = tmp_path / "explicit.lp"
    assert main([*argv, "--out", str(explicit), "--out-dir", str(tmp_path / "unused")]) == 0
    assert (out_dir / "model.lp").read_bytes() == explicit.read_bytes()
    assert not (tmp_path / "unused").exists()  # an explicit --out wins


def test_round_trip_at_one_stand_lasts_a_minute(tmp_path):
    """A ride that starts and ends at one stand takes one minute, so its bike
    serves the next ride a minute later: one bike serves both."""
    (tmp_path / "nodes.csv").write_text("node_id,lat,lon\n0,40.7,-74.0\n1,40.7,-73.999\n")
    (tmp_path / "edges.csv").write_text("u,v,length_m\n0,1,100.0\n")
    (tmp_path / "trips.csv").write_text(
        "ride_id,started_at,start_lat,start_lng,end_lat,end_lng\n"
        "a,2024-01-01 08:00:00,40.7,-74.0,40.7,-74.0\n"
        "b,2024-01-01 08:01:00,40.7,-74.0,40.7,-74.0\n"
    )
    common = ["--out-dir", str(tmp_path)]
    inputs = [f"--{name}={tmp_path / name}.csv" for name in ("nodes", "edges", "trips")]
    assert main(["ingest", *inputs, "--min-km", "0", *common]) == 0
    doc = json.loads((tmp_path / "triplog.json").read_text())
    assert doc["paths"]["count"] == [0] and doc["trips"]["path"] == [0, 0]
    log = load_triplog(tmp_path / "triplog.json")
    assert log.path_distance_m.tolist() == [0.0] and log.duration_min.tolist() == [1, 1]
    triplog = f"--triplog={tmp_path / 'triplog.json'}"
    assert main(["fleet", triplog, *common]) == 0
    assert json.loads((tmp_path / "fleet.json").read_text())["b"] == [1]
    assert main(["probs", triplog, "--runs", "2", *common]) == 0


def test_experiment_pipeline_mode(tmp_path):
    config = {
        "source": {"synth": {"grid_w": 6, "grid_h": 6, "block_m": 350.0,
                              "stand_count": 6, "trips": 150, "seed": 19}},
        "budgets": [2],
        "deltas": [16.0],
        "betas": [1.0],
        "replications": 2,
        "seed": 3,
        "coverage_runs": 2,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "method,budget,delta_h,beta,rep,phi_pct"
    assert len(lines) == 1 + 2 * 3  # two reps, three methods
    assert (tmp_path / "summary.csv").exists()


def test_experiment_beta_sweep_mode(tmp_path):
    config = {
        "source": {"synth": {"grid_w": 6, "grid_h": 6, "block_m": 350.0,
                              "stand_count": 6, "trips": 150, "seed": 19}},
        "budgets": [2],
        "deltas": [16.0],
        "betas": [0.0, 1.0],
        "replications": 2,
        "coverage_runs": 2,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(
        ["experiment", "--mode", "beta-sweep", "--config", str(cfg_path),
         "--out-dir", str(tmp_path)]
    ) == 0
    gains = (tmp_path / "beta_gains.csv").read_text().splitlines()
    assert gains[0] == "budget,delta_h,beta_from,beta_to,gain_phi_pct"
    assert len(gains) == 2


def test_experiment_sensor_requirement_mode(tmp_path):
    config = {
        "source": {"synth": {"grid_w": 6, "grid_h": 6, "block_m": 350.0,
                              "stand_count": 6, "trips": 150, "seed": 19}},
        "budgets": [1],
        "deltas": [16.0],
        "betas": [1.0],
        "replications": 1,
        "coverage_runs": 2,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(
        ["experiment", "--mode", "sensor-requirement", "--target-phi", "5",
         "--config", str(cfg_path), "--out-dir", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "sensor_requirement.csv").read_text().splitlines()
    assert lines[0] == "delta_h,target_phi_pct,budget,achieved_phi_pct,monotone_ok"
    assert len(lines) == 2


def test_experiment_tables_end_lines_like_results(tmp_path):
    """beta_gains.csv and sensor_requirement.csv are in csv's default dialect, as
    results.csv is: every line ends in CRLF."""
    config = {
        "source": {"synth": {"grid_w": 6, "grid_h": 6, "block_m": 350.0,
                              "stand_count": 6, "trips": 150, "seed": 19}},
        "budgets": [2],
        "deltas": [16.0],
        "replications": 1,
        "coverage_runs": 2,
    }
    # sensor-requirement takes one beta
    for mode, betas in (("beta-sweep", [0.0, 1.0]), ("sensor-requirement", [0.0])):
        cfg_path = tmp_path / f"{mode}.json"
        cfg_path.write_text(json.dumps({**config, "betas": betas}))
        argv = ["experiment", "--mode", mode, "--target-phi", "5", "--config", str(cfg_path)]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    for name in ("results.csv", "beta_gains.csv", "sensor_requirement.csv"):
        lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
        assert len(lines) >= 2 and all(line.endswith(b"\r\n") for line in lines), name


SWEEP = {"budgets": [3, 12], "deltas": [16.0, 4.0], "betas": [0.5, 1.0]}


@pytest.mark.parametrize(
    "mode, config, digests",
    [
        # the search solves budgets 49 (the fleet, every stand full) and 1..24,
        # whose plans leave 4 to 7 of the 8 stands open
        ("sensor-requirement", {"deltas": [16.0, 4.0, 1.0], "betas": [0.0]}, {
            "sensor_requirement.csv": "32b6c62dc44d116b24880bd8bbc8fa057de6505fce14312c71f21835edbab263",
        }),
        # guided: the searches share each (budget, rep) replay between intervals
        ("sensor-requirement", {"deltas": [16.0, 4.0, 1.0], "betas": [1.0]}, {
            "sensor_requirement.csv": "339b829537147ddef57ec31280a7558fe7b980de497192d579f6a6e7f3ed6911",
        }),
        ("pipeline", SWEEP, {
            "results.csv": "82dbb0cdece65a056a11de41c6a7fa590c705973349a3a73c12e35588b5c25b3",
        }),
        ("beta-sweep", SWEEP, {
            "results.csv": "ad29512b4b9129c08fea4af1bd8cc9a97a8ffd7ff97ad0204c0e11d514c545ed",
            "summary.csv": "c905147ce2d45af2bf554c2038bbf56c5ec13ee9ee7c9f7f2e882fc5ff5fe940",
            "beta_gains.csv": "a7f0c28bcd97260aae6e74cc9dfb0a40174a0ec41cedcf127f4612198f7aa909",
        }),
    ],
    ids=["sensor-requirement", "sensor-requirement-guided", "pipeline", "beta-sweep"],
)
def test_experiment_table_bytes_are_pinned(tmp_path, mode, config, digests):
    """An experiment's tables are pinned byte for byte on one small synth
    source: allocation and replay may change how they work, not what an
    experiment reports."""
    synth = {"grid_w": 8, "grid_h": 8, "block_m": 300.0, "stand_count": 8, "trips": 400, "seed": 11}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps({"source": {"synth": synth}, "replications": 2, "coverage_runs": 2, "seed": 5, **config})
    )
    argv = ["experiment", "--mode", mode, "--target-phi", "10", "--config", str(cfg_path)]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    for table, digest in digests.items():
        assert _sha256(tmp_path / table) == digest, table


ALLOCATE = ("--nodes", "--edges", "--triplog", "--probs", "--probs-meta")
SIMULATE = ("--triplog", "--alloc")
SCORE = ("--traj", "--triplog", "--nodes", "--edges")


@pytest.fixture(scope="module")
def artifacts(synth_dir, pipeline_dir, tmp_path_factory):
    """Paths of a complete, valid artifact chain, by command-line option."""
    out = tmp_path_factory.mktemp("chain")
    paths = {
        "--nodes": synth_dir / "nodes.csv",
        "--edges": synth_dir / "edges.csv",
        "--triplog": pipeline_dir / "triplog.json",
        "--probs": pipeline_dir / "probs.csv",
        "--probs-meta": pipeline_dir / "probs.meta.json",
        "--alloc": out / "alloc.json",
        "--traj": out / "traj.json",
    }
    assert main(["allocate", *_args(paths, ALLOCATE), "--budget", "4", "--out-dir", str(out)]) == 0
    assert main(["simulate", *_args(paths, SIMULATE), "--beta", "1", "--out-dir", str(out)]) == 0
    return paths


def _args(paths, options):
    return [arg for option in options for arg in (option, str(paths[option]))]


@pytest.mark.parametrize("delta, grids", [("1", 1), ("4", 2)])
def test_score_counts_each_distinct_grid_once(artifacts, tmp_path, monkeypatch, delta, grids):
    """score counts its own grid and the hourly diagnostics' 1 h grid, which at
    delta 1 h are one grid, counted once; the diagnostics count nothing, and
    only bin the trip starts into hours by event_cells' rule."""
    from velosense import metrics

    calls = []
    count_cells, event_cells = metrics.count_cells, metrics.event_cells

    def spy(name, counter):
        def counting(*args):
            calls.append(name)
            return counter(*args)

        return counting

    monkeypatch.setattr(metrics, "count_cells", spy("count_cells", count_cells))
    monkeypatch.setattr(metrics, "event_cells", spy("event_cells", event_cells))
    assert main(["score", *_args(artifacts, SCORE), "--delta", delta, "--out-dir", str(tmp_path)]) == 0
    assert calls == ["event_cells", "count_cells"] * grids + ["event_cells"]
    assert len((tmp_path / "hourly.csv").read_text().splitlines()) == 1 + 16


def test_export_lp_on_a_triplog_without_trips_is_3(tmp_path, capsys):
    """With no trips there are no stands, so no plan over them and no valid LP text
    (a model with no variables is not): allocate and export-lp refuse it, as an
    experiment refuses a log with no trips, and write nothing."""
    paths = {
        "--nodes": tmp_path / "nodes.csv",
        "--edges": tmp_path / "edges.csv",
        "--trips": tmp_path / "trips.csv",
        "--triplog": tmp_path / "triplog.json",
        "--probs": tmp_path / "probs.csv",
        "--probs-meta": tmp_path / "probs.meta.json",
    }
    common = ["--out-dir", str(tmp_path)]
    assert main(["synth", "--grid-w", "4", "--grid-h", "4", "--stands", "3", "--trips", "0", *common]) == 0
    assert main(["ingest", *_args(paths, ("--nodes", "--edges", "--trips")), *common]) == 0
    assert main(["probs", *_args(paths, ("--triplog",)), *common]) == 0
    capsys.readouterr()
    for command in ("allocate", "export-lp"):
        assert main([command, *_args(paths, ALLOCATE), "--budget", "3", *common]) == 3
        err = capsys.readouterr().err
        assert err == f"infeasible: {paths['--triplog']} holds no trips, so it has no stands to allocate to\n"
    assert not (tmp_path / "alloc.json").exists() and not (tmp_path / "model.lp").exists()


def _drop_key(key):
    def edit(text):
        doc = json.loads(text)
        del doc[key]
        return json.dumps(doc)

    return edit


def _drop_metadata_key(key):
    def edit(text):
        doc = json.loads(text)
        del doc["metadata"][key]
        return json.dumps(doc)

    return edit


def _edit_doc(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return edit


def _edit_trip(change, index=0):
    """Apply `change` to a dict of trip `index`'s fields, and write them back to the columns."""
    def edit(doc):
        row = {name: column[index] for name, column in doc["trips"].items()}
        change(row)
        for name, value in row.items():
            doc["trips"][name][index] = value

    return _edit_doc(edit)


def _edit_column(name, change):
    """Replace the column `name` of a traj.json with change(column)."""
    return _edit_doc(lambda doc: doc.update({name: change(doc[name])}))


def _append_row(row):
    return lambda text: text + row + "\n"


def _repeat_first_row(p):
    """Append the first row's (stand, segment) again, with probability `p`."""
    def edit(text):
        stand, segment, _p = text.splitlines()[1].split(",")
        return text + f"{stand},{segment},{p}\n"

    return edit


def _edit_largest_count(change):
    """Replace the largest sensor count n of an alloc.json with change(n)."""
    def edit(doc):
        n = doc["n"]
        n[n.index(max(n))] = change(max(n))

    return _edit_doc(edit)


def _edit_path(field, value):
    """Set the first entry of column `field` of a triplog's path table, which is
    the first path's, to `value`."""
    return _edit_doc(lambda doc: doc["paths"][field].__setitem__(0, value))


def _edit_segment(field, value):
    """Set the first entry of column `field` of a triplog's segment table, which is
    the lowest segment's, to `value`."""
    return _edit_doc(lambda doc: doc["segments"][field].__setitem__(0, value))


def _swap_first_rides(doc):
    """Swap the bikes of the first rides of bike 0 and of the first bike with
    another home: the two rides leave from different stands."""
    bikes, homes = doc["bike_of_trip"], doc["homes"]
    other = next(bike for bike in bikes if homes[bike] != homes[bikes[0]])
    i, j = bikes.index(bikes[0]), bikes.index(other)
    bikes[i], bikes[j] = bikes[j], bikes[i]


def _shift_an_equipped_bike(doc):
    """Move the first equipped bike whose next id is an unequipped bike onto that id:
    the set is no longer the first bikes of each stand."""
    equipped = doc["metadata"]["equipped"]
    i = next(i for i, bike in enumerate(equipped) if bike + 1 < len(doc["homes"]) and bike + 1 not in equipped)
    equipped[i] += 1


def _set_metadata(**fields):
    return _edit_doc(lambda doc: doc["metadata"].update(fields))


@pytest.mark.parametrize(
    "command, options, extra, corrupted, edit",
    [
        ("fleet", ("--triplog",), [], "--triplog", _drop_key("stands")),
        ("score", SCORE, ["--delta", "4"], "--traj", _drop_key("metadata")),
        ("simulate", SIMULATE, [], "--alloc", _drop_key("N_e")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("99,0,0.5")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,99999,0.5")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,0,nan")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,0,-0.5")),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(start_min=2000))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(start_min=100))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("origin", 99)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("origin", -1)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["segments"]["length_m"].pop())),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["trips"]["path"].__setitem__(0, len(d["paths"]["count"])))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(path=-1))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(start_min=360), -1)),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs-meta", _drop_key("triplog_sha256")),
        ("score", SCORE, ["--delta", "4"], "--traj", _drop_metadata_key("triplog_sha256")),
        ("simulate", SIMULATE, [], "--alloc", _drop_key("triplog_sha256")),
        ("simulate", SIMULATE, [], "--alloc", _edit_doc(lambda d: d["n"].__setitem__(0, -1))),
        ("simulate", SIMULATE, [], "--alloc", _edit_doc(lambda d: d["n"].extend([0, 0, 0]))),
        ("simulate", SIMULATE, [], "--alloc", _edit_doc(lambda d: d["n"].pop())),
        ("simulate", SIMULATE, [], "--alloc", _edit_doc(lambda d: d["n"].__setitem__(0, "x"))),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,0,abc")),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(start_min=t["start_min"] + 0.5), -1)),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(lambda d: d["bike_of_trip"].__setitem__(0, len(d["homes"])))),
        ("score", SCORE, ["--delta", "4"], "--traj", _drop_metadata_key("equipped")),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(equipped=[10**6])),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(equipped=["x"])),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(equipped=[True])),
        ("simulate", SIMULATE, [], "--alloc", _edit_largest_count(lambda n: n + 0.5)),
        ("simulate", SIMULATE, [], "--alloc", _edit_largest_count(lambda n: True)),
        ("simulate", SIMULATE, [], "--alloc", _edit_largest_count(str)),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _repeat_first_row(9.0)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["stands"][1].update(stand=7))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["stands"][1].update(node=d["stands"][0]["node"]))),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_column("trip_ids", lambda c: c[::-1])),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(id=17))),
        ("probs", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(id=None))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["horizon"].__setitem__(0, 360.0))),
        ("probs", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d.update(speed_m_per_min=0))),
        ("probs", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d.update(speed_m_per_min="fast"))),
        ("probs", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d.update(speed_m_per_min=-5.0))),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,0,0.5,7")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,0")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("99999999999999999999,0,0.5")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0,-1,0.5")),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("segments", 3.7)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("segments", "3")),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("segments", -1)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("segments", True)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("u", -1)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("u", 0.5)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", -500.0)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", 0.0)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", math.nan)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", math.inf)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", "x")),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", 10**400)),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("0.5,0,0.5")),
        ("allocate", ALLOCATE, ["--budget", "4"], "--probs", _append_row("#0,0,0.5")),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("segments", 2**64)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("count", -1)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_path("count", 1.5)),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["paths"]["count"].__setitem__(-1, d["paths"]["count"][-1] + 1))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["paths"]["segments"].__setitem__(0, d["segments"]["id"][-1] + 1))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["segments"]["id"].__setitem__(1, d["segments"]["id"][0]))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["segments"]["id"].__setitem__(slice(0, 2), d["segments"]["id"][1::-1]))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["segments"].update(u=d["segments"]["v"], v=d["segments"]["u"]))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["paths"]["segments"].__setitem__(slice(0, 2), d["paths"]["segments"][1::-1]))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["paths"]["origin"].__setitem__(0, d["paths"]["dest"][0]))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["paths"]["dest"].__setitem__(0, d["paths"]["origin"][0]))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_segment("length_m", 1e300)),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_column("bike_of_trip", lambda c: [0] * len(c))),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(_swap_first_rides)),
        ("simulate", SIMULATE, [], "--alloc", _edit_doc(lambda d: d["n"].__setitem__(0, d["n"][0] + d["budget"] - sum(d["n"]) + 1))),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(lambda d: d["metadata"]["equipped"].pop())),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(_shift_an_equipped_bike)),
        ("score", SCORE, ["--delta", "4"], "--traj", _drop_metadata_key("beta")),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(beta=1.5)),
        ("score", SCORE, ["--delta", "4"], "--traj", _drop_metadata_key("seed")),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(seed=-1)),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(seed=0.5)),
        ("score", SCORE, ["--delta", "4"], "--traj", _set_metadata(generator="mt19937")),
    ],
    ids=["triplog-without-stands", "traj-without-metadata", "alloc-without-N_e",
         "probs-unknown-stand", "probs-unknown-segment", "probs-nan", "probs-negative",
         "trip-after-horizon", "trip-before-horizon", "trip-unknown-origin",
         "trip-negative-origin", "trip-path-lengths-disagree", "trip-path-out-of-range",
         "trip-path-negative", "trips-unsorted",
         "probs-meta-without-triplog-sha256", "traj-without-triplog-sha256",
         "alloc-without-triplog-sha256", "alloc-negative-count", "alloc-extra-stand",
         "alloc-missing-stand", "alloc-count-not-int", "probs-p-not-a-number",
         "trip-start-not-int", "traj-bike-out-of-range", "traj-without-equipped", "traj-equipped-out-of-range",
         "traj-equipped-not-int", "traj-equipped-bool", "alloc-count-fraction",
         "alloc-count-bool", "alloc-count-string", "probs-repeated-pair",
         "stand-id-not-its-index", "stands-share-a-node", "traj-trip-ids-reversed", "trip-id-not-a-string", "trip-id-null",
         "horizon-not-int", "speed-zero", "speed-not-a-number", "speed-negative",
         "probs-extra-field", "probs-missing-field", "probs-stand-past-int64", "probs-negative-segment",
         "path-segment-fraction", "path-segment-string", "path-segment-negative", "path-segment-bool",
         "path-node-negative", "path-node-fraction", "path-length-negative", "path-length-zero",
         "path-length-nan", "path-length-infinite", "path-length-string", "path-length-past-float",
         "probs-stand-fraction", "probs-comment-row", "path-segment-past-int64",
         "path-count-negative", "path-count-fraction", "path-count-past-segments", "path-segment-not-listed", "segment-ids-repeated", "segment-ids-out-of-order",
         "segment-nodes-reversed", "path-segments-swapped", "path-origin-moved", "path-dest-moved",
         "path-lengths-past-int64-minutes", "traj-all-on-bike-0", "traj-first-rides-swapped", "alloc-over-budget",
         "traj-equipped-last-dropped", "traj-equipped-id-shifted", "traj-without-beta", "traj-beta-past-1",
         "traj-without-seed", "traj-seed-negative", "traj-seed-fractional", "traj-generator-other"],
)
def test_malformed_artifact_is_2(artifacts, tmp_path, capsys, request, command, options, extra, corrupted, edit):
    paths = dict(artifacts)
    bad = tmp_path / paths[corrupted].name
    text = paths[corrupted].read_text()
    bad.write_text(edit(text))
    paths[corrupted] = bad
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    message = PROBS_ROW_MESSAGES.get(request.node.callspec.id)
    if message is not None:  # the appended row follows the header and every row of the file
        assert err == f"error: {bad}: {message.format(n=len(text.splitlines()))}\n"
    field = PATH_TABLE_FIELDS.get(request.node.callspec.id) or NAMED_FIELDS.get(request.node.callspec.id)
    if field is not None:
        assert err.startswith(f"error: {bad}: {field} ")


# an appended probs.csv row -> its message, the row numbered as trip files number theirs
PROBS_ROW_MESSAGES = {
    "probs-extra-field": "row {n} has 4 fields, not 3",
    "probs-missing-field": "row {n} has 2 fields, not 3",
    "probs-stand-fraction": "row {n}: stand_id '0.5' does not convert to int64",
    "probs-p-not-a-number": "row {n}: p 'abc' does not convert to float64",
    "probs-stand-past-int64": "row {n}: stand_id '99999999999999999999' does not convert to int64",
}


# a path- or segment-table edit -> the column its message names first
PATH_TABLE_FIELDS = {
    "trip-unknown-origin": "paths.origin",
    "trip-negative-origin": "paths.origin",
    "trip-path-lengths-disagree": "segments.length_m",
    "path-segment-fraction": "paths.segments",
    "path-segment-string": "paths.segments",
    "path-segment-negative": "paths.segments",
    "path-segment-bool": "paths.segments",
    "path-segment-past-int64": "paths.segments",
    "path-node-negative": "segments.u",
    "path-node-fraction": "segments.u",
    "path-length-negative": "segments.length_m",
    "path-length-zero": "segments.length_m",
    "path-length-nan": "segments.length_m",
    "path-length-infinite": "segments.length_m",
    "path-length-string": "segments.length_m",
    "path-count-negative": "paths.count",
    "path-count-fraction": "paths.count",
    "path-count-past-segments": "paths.segments",
    "path-segment-not-listed": "paths.segments",
    "segment-ids-repeated": "segments.id",
    "segment-ids-out-of-order": "segments.id",
    "segment-nodes-reversed": "segments.u",
    "path-segments-swapped": "paths.segments",
    "path-origin-moved": "paths.segments",
    "path-dest-moved": "paths.dest",
    "path-lengths-past-int64-minutes": "segments.length_m",
}


# a traj.json or alloc.json edit that no run could have written -> the column its message names first
NAMED_FIELDS = {
    "traj-all-on-bike-0": "bike_of_trip",
    "traj-first-rides-swapped": "bike_of_trip",
    "alloc-over-budget": "n",
    "traj-equipped-last-dropped": "metadata.equipped",
    "traj-equipped-id-shifted": "metadata.equipped",
    "traj-without-seed": "metadata.seed",
    "traj-seed-negative": "metadata.seed",
    "traj-seed-fractional": "metadata.seed",
    "traj-generator-other": "metadata.generator",
}


# JSON artifact option -> (a command that reads it, its options, extra arguments,
# the artifact's format, the command that writes it)
JSON_INPUTS = {
    "--triplog": ("fleet", ("--triplog",), [], "velosense-triplog-v6", "ingest"),
    "--probs-meta": ("allocate", ALLOCATE, ["--budget", "4"], "velosense-coverage-v1", "probs"),
    "--alloc": ("simulate", SIMULATE, [], "velosense-alloc-v1", "allocate"),
    "--traj": ("score", SCORE, ["--delta", "4"], "velosense-traj-v3", "simulate"),
}
NOT_JSON = "{not json"
TOO_DEEP = "[" * 100_000 + "]" * 100_000
CONTENTS = {"unknown": '{"format": "something-else"}', "list": "[]", "number": "5", "not-json": NOT_JSON}
DERIVED = ("--probs-meta", "--alloc", "--traj")


@pytest.mark.parametrize(
    "corrupted, text",
    [
        ("--triplog", '{"format": "velosense-triplog-v1", "trips": []}'),
        ("--triplog", '{"format": "velosense-triplog-v2", "trips": []}'),
        ("--triplog", '{"format": "velosense-triplog-v3", "paths": [], "trips": {}}'),
        ("--triplog", '{"format": "velosense-triplog-v4", "paths": {}, "trips": {}}'),
        ("--triplog", '{"format": "velosense-triplog-v5", "segments": {}, "paths": {}, "trips": {}}'),
        ("--triplog", '{"format": "something-else"}'),
        ("--triplog", "[]"),
        ("--triplog", NOT_JSON),
        ("--triplog", TOO_DEEP),
        ("--traj", '{"format": "velosense-traj-v1", "metadata": {}, "bikes": []}'),
        ("--traj", '{"format": "velosense-traj-v2", "metadata": {}, "segment": [], "minute": []}'),
        *[(option, text) for option in DERIVED for text in CONTENTS.values()],
    ],
    ids=["v1", "v2", "v3", "v4", "v5", "unknown", "not-an-object", "triplog-not-json", "triplog-nested-too-deep",
         "traj-v1", "traj-v2",
         *[f"{option[2:]}-{name}" for option in DERIVED for name in CONTENTS]],
)
def test_triplog_of_another_format_is_2(artifacts, tmp_path, capsys, corrupted, text):
    """Every JSON artifact input that cannot be parsed, is not an object or is
    of another format exits 2 naming the file; unless it cannot be parsed, the
    message also names the expected format and the command that writes it."""
    command, options, extra, fmt, writer = JSON_INPUTS[corrupted]
    paths = dict(artifacts)
    bad = tmp_path / paths[corrupted].name
    bad.write_text(text)
    paths[corrupted] = bad
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    if text not in (NOT_JSON, TOO_DEEP):
        assert fmt in err and f"re-run `velosense {writer}`" in err


# edits of one JSON value: numbers are bumped, negated, zeroed or made fractional,
# and any value may become a string, null, an integer past int64 or NaN
NUMBER_EDITS = {
    "plus-1": lambda v: v + 1, "minus-1": lambda v: v - 1, "negated": lambda v: -v,
    "zeroed": lambda v: 0, "fractional": lambda v: v + 0.5,
}
VALUE_EDITS = {"string": lambda v: "x", "null": lambda v: None, "2**70": lambda v: 2**70, "nan": lambda v: math.nan}
LIST_EDITS = {"emptied": lambda v: [], "shortened": lambda v: v[:-1]}
# the commands that read each mutated artifact, with their options and extra arguments
MUTANT_READERS = {
    "--triplog": [
        ("fleet", ("--triplog",), []),
        ("probs", ("--triplog",), ["--runs", "2"]),
        ("allocate", ALLOCATE, ["--budget", "4"]),
        ("export-lp", ALLOCATE, ["--budget", "4"]),
        ("simulate", SIMULATE, ["--beta", "1"]),
        ("score", SCORE, ["--delta", "4"]),
    ],
    "--alloc": [("simulate", SIMULATE, ["--beta", "1"])],
    "--traj": [("score", SCORE, ["--delta", "4"])],
}


def _mutants(doc):
    """Every (place, edit name, edit) of a JSON document: a place is a key path,
    through each key of an object and the first, middle and last entry of a list;
    the value there takes the value edits (and the number edits if a number), a
    list there the list edits too, and a key of an object may be dropped (edit None)."""
    def walk(value, place):
        if isinstance(value, dict):
            for key, item in value.items():
                yield (*place, key), "key-dropped", None
                yield from walk(item, (*place, key))
            return
        edits = dict(VALUE_EDITS)
        if isinstance(value, list):
            edits.update(LIST_EDITS)
            for i in sorted({0, len(value) // 2, len(value) - 1} if value else ()):
                yield from walk(value[i], (*place, i))
        elif type(value) in (int, float):
            edits.update(NUMBER_EDITS)
        for name, edit in edits.items():
            yield place, name, edit

    return list(walk(doc, ()))


@pytest.mark.parametrize("corrupted", sorted(MUTANT_READERS), ids=lambda option: option[2:])
def test_seeded_mutants_exit_0_2_or_3(artifacts, tmp_path, corrupted):
    """20 edits of one value, list or key of the artifact, drawn with a fixed seed
    from every place of it: each command that reads it exits 0, 2 or 3, and none raises."""
    original = json.loads(artifacts[corrupted].read_text())
    mutants = _mutants(original)
    paths = dict(artifacts)
    paths[corrupted] = tmp_path / artifacts[corrupted].name
    for place, name, edit in random.Random(32).sample(mutants, 20):
        doc = json.loads(json.dumps(original))
        *parents, last = place
        target = doc
        for key in parents:
            target = target[key]
        if edit is None:
            del target[last]
        else:
            target[last] = edit(target[last])
        paths[corrupted].write_text(json.dumps(doc))
        for command, options, extra in MUTANT_READERS[corrupted]:
            code = main([command, *_args(paths, options), *_with_lp_out(command, extra, tmp_path), "--out-dir", str(tmp_path)])
            assert code in (0, 2, 3), (place, name, command)


# the seven pipeline steps on synth_dir's inputs in one interpreter; prints each
# step after which numpy.ma is imported
CHAIN_SCRIPT = """
import contextlib, io, sys
from pathlib import Path
from velosense.cli import main
src, d = Path(sys.argv[1]), Path(sys.argv[2])
net = ["--nodes", str(src / "nodes.csv"), "--edges", str(src / "edges.csv")]
log = ["--triplog", str(d / "triplog.json")]
probs = ["--probs", str(d / "probs.csv"), "--probs-meta", str(d / "probs.meta.json")]
steps = [
    ["ingest", *net, "--trips", str(src / "trips.csv")],
    ["fleet", *log],
    ["probs", *log, "--runs", "2"],
    ["allocate", *net, *log, *probs, "--budget", "4"],
    ["simulate", *log, "--alloc", str(d / "alloc.json"), "--beta", "1"],
    ["score", "--traj", str(d / "traj.json"), *log, *net, "--delta", "1"],
    ["export-lp", *net, *log, *probs, "--budget", "4", "--out", str(d / "model.lp")],
]
for argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out-dir", str(d)]) == 0, argv
    if "numpy.ma" in sys.modules:
        print(argv[0])
"""


def test_cli_chain_does_not_import_numpy_ma(synth_dir, tmp_path):
    """A plain np.unique imports numpy.ma under numpy 2.x, about 1 MB of resident
    memory; the seven pipeline steps run in a fresh interpreter without it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    )
    if bare.stdout.strip() == "True":
        pytest.skip("import numpy alone imports numpy.ma")
    run = subprocess.run(
        [sys.executable, "-c", CHAIN_SCRIPT, str(synth_dir), str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []  # the steps after which numpy.ma was imported


def test_every_artifact_loader_rejects_a_json_list(artifacts, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    loaders = [load_triplog, load_trajectories, load_plan, lambda path: load_matrix(artifacts["--probs"], path)]
    for load in loaders:
        with pytest.raises(MalformedInputError, match="got None"):
            load(bad)


def _run_chain(out, seed, synth_args):
    """Option paths of an artifact chain from synth through simulate."""
    assert main(["synth", *synth_args, "--seed", str(seed), "--out-dir", str(out)]) == 0
    paths = {
        "--nodes": out / "nodes.csv",
        "--edges": out / "edges.csv",
        "--trips": out / "trips.csv",
        "--triplog": out / "triplog.json",
        "--probs": out / "probs.csv",
        "--probs-meta": out / "probs.meta.json",
        "--alloc": out / "alloc.json",
        "--traj": out / "traj.json",
    }
    common = ["--out-dir", str(out), "--seed", str(seed)]
    assert main(["ingest", *_args(paths, ("--nodes", "--edges", "--trips")), *common]) == 0
    assert main(["probs", *_args(paths, ("--triplog",)), "--runs", "2", *common]) == 0
    assert main(["allocate", *_args(paths, ALLOCATE), "--budget", "4", *common]) == 0
    assert main(["simulate", *_args(paths, SIMULATE), "--beta", "1", *common]) == 0
    return paths


def _with_lp_out(command, extra, tmp_path):
    return [*extra, "--out", str(tmp_path / "model.lp")] if command == "export-lp" else extra


@pytest.fixture(scope="module")
def runs_by_seed(tmp_path_factory):
    """Option paths of a full artifact chain for each of synth seeds 5 and 6."""
    synth = ["--grid-w", "6", "--grid-h", "6", "--block-m", "350", "--stands", "6", "--trips", "150"]
    return {seed: _run_chain(tmp_path_factory.mktemp(f"seed{seed}"), seed, synth) for seed in (5, 6)}


@pytest.mark.parametrize(
    "command, options, extra, foreign",
    [
        ("allocate", ALLOCATE, ["--budget", "4"], ("--probs", "--probs-meta")),
        ("export-lp", ALLOCATE, ["--budget", "4"], ("--probs", "--probs-meta")),
        ("score", SCORE, ["--delta", "4"], ("--traj",)),
        ("simulate", SIMULATE, ["--beta", "1"], ("--alloc",)),
    ],
    ids=["allocate-probs", "export-lp-probs", "score-traj", "simulate-alloc"],
)
def test_artifact_from_another_triplog_is_2(
    runs_by_seed, tmp_path, capsys, command, options, extra, foreign
):
    paths = dict(runs_by_seed[6])
    for option in foreign:
        paths[option] = runs_by_seed[5][option]
    extra = _with_lp_out(command, extra, tmp_path)
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "another triplog" in err
    assert str(runs_by_seed[5][foreign[-1]]) in err and str(paths["--triplog"]) in err


@pytest.fixture(scope="module")
def foreign_network(tmp_path_factory):
    """A chain on a 16x16 grid (synth seed 5), and the nodes and edges of a
    20x20 grid (synth seed 9) that none of its trips were routed on."""
    synth = ["--grid-w", "16", "--grid-h", "16", "--block-m", "150", "--stands", "30"]
    run = _run_chain(tmp_path_factory.mktemp("grid16"), 5, [*synth, "--trips", "4000"])
    other = tmp_path_factory.mktemp("grid20")
    synth = ["--grid-w", "20", "--grid-h", "20", "--block-m", "150", "--stands", "30"]
    assert main(["synth", *synth, "--trips", "100", "--seed", "9", "--out-dir", str(other)]) == 0
    return run, {"--nodes": other / "nodes.csv", "--edges": other / "edges.csv"}


NETWORK_CHECKED = [
    ("allocate", ALLOCATE, ["--budget", "4"]),
    ("export-lp", ALLOCATE, ["--budget", "4"]),
    ("score", SCORE, ["--delta", "4"]),
]


@pytest.mark.parametrize("command, options, extra", NETWORK_CHECKED, ids=["allocate", "export-lp", "score"])
def test_network_other_than_the_triplogs_is_2(foreign_network, tmp_path, capsys, command, options, extra):
    run, network = foreign_network
    paths = {**run, **network}
    extra = _with_lp_out(command, extra, tmp_path)
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "routed on another network" in err
    assert all(str(paths[option]) in err for option in ("--triplog", "--nodes", "--edges"))


@pytest.mark.parametrize("command, options, extra", NETWORK_CHECKED, ids=["allocate", "export-lp", "score"])
def test_triplog_without_network_sha256_is_2(runs_by_seed, tmp_path, capsys, command, options, extra):
    paths = dict(runs_by_seed[6])
    bad = tmp_path / "triplog.json"
    bad.write_text(_drop_key("network_sha256")(paths["--triplog"].read_text()))
    paths["--triplog"] = bad
    extra = _with_lp_out(command, extra, tmp_path)
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "records no network_sha256" in err
    assert all(str(paths[option]) in err for option in ("--triplog", "--nodes", "--edges"))


def _set_length(doc):
    """Give the lowest segment of the segment table length 1.0; returns its row."""
    doc["segments"]["length_m"][0] = 1.0
    return 0


def _set_unknown_segment(doc):
    """Renumber the highest segment of the segment table 10**6, where the paths use it
    too; returns its row."""
    table = doc["segments"]
    doc["paths"]["segments"] = [10**6 if s == table["id"][-1] else s for s in doc["paths"]["segments"]]
    table["id"][-1] = 10**6
    return len(table["id"]) - 1


def _move_node(doc):
    """Move the end of the lowest segment that no stand holds to a node the segment
    table does not use, in every segment that ends there, so each path still walks;
    returns the row of the lowest of them."""
    table = doc["segments"]
    stand_nodes = {s["node"] for s in doc["stands"]}
    node = next(n for pair in zip(table["u"], table["v"]) for n in pair if n not in stand_nodes)
    moved = max(table["u"] + table["v"]) + 1
    rows = [i for i, pair in enumerate(zip(table["u"], table["v"])) if node in pair]
    for i in rows:
        table["u"][i], table["v"][i] = sorted(moved if n == node else n for n in (table["u"][i], table["v"][i]))
    return rows[0]


def _pinned(artifact, triplog, out):
    """A copy of a JSON artifact in `out` that records `triplog` as its triplog."""
    doc = json.loads(artifact.read_text())
    (doc.get("metadata") or doc)["triplog_sha256"] = _sha256(triplog)
    pinned = out / artifact.name
    pinned.write_text(json.dumps(doc))
    return pinned


@pytest.mark.parametrize(
    "edit, has",
    [
        (_set_length, "give it 350.0 m"),
        (_set_unknown_segment, "have no such segment"),
        (_move_node, "give it nodes {u} and {v}"),
    ],
    ids=["lengths-edited", "segment-unknown", "end-nodes-edited"],
)
@pytest.mark.parametrize("command, options, extra", NETWORK_CHECKED, ids=["allocate", "export-lp", "score"])
def test_path_off_the_network_is_2(artifacts, tmp_path, capsys, command, options, extra, edit, has):
    """A triplog whose header names the right network but whose segment table was
    edited. Its probs sidecar and allocation are pinned to it and its replay is made
    from it, so only the segment check can refuse it; the commands without a
    network still run. The first segment that is off the network is named."""
    paths = dict(artifacts)
    doc = json.loads(paths["--triplog"].read_text())
    original = json.loads(json.dumps(doc["segments"]))
    i = edit(doc)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    bad = paths["--triplog"] = inputs / "triplog.json"
    bad.write_text(json.dumps(doc))
    paths["--probs-meta"] = _pinned(artifacts["--probs-meta"], bad, inputs)
    paths["--alloc"] = _pinned(artifacts["--alloc"], bad, inputs)
    assert main(["fleet", "--triplog", str(bad), "--out-dir", str(inputs)]) == 0
    assert main(["simulate", *_args(paths, SIMULATE), "--beta", "1", "--out-dir", str(inputs)]) == 0
    paths["--traj"] = inputs / "traj.json"
    capsys.readouterr()
    out = tmp_path / "out"
    extra = _with_lp_out(command, extra, tmp_path)
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(out)]) == 2
    table = doc["segments"]
    network = f"{paths['--nodes']} and {paths['--edges']}"
    assert capsys.readouterr().err == (
        f"error: {bad}: segment {table['id'][i]} joins nodes {table['u'][i]} and {table['v'][i]} "
        f"over {table['length_m'][i]} m, but {network} {has.format(u=original['u'][i], v=original['v'][i])}\n"
    )
    assert not out.exists() and not (tmp_path / "model.lp").exists()


def test_probs_sidecar_with_a_horizon_still_allocates(artifacts, tmp_path):
    """probs.meta.json used to carry a copy of the triplog's horizon, in this place;
    a sidecar written that way loads to the same matrix and allocates the same plan."""
    paths = dict(artifacts)
    meta = json.loads(paths["--probs-meta"].read_text())
    assert list(meta) == ["format", "runs", "seed", "stand_nodes", "triplog_sha256"]
    old = {key: meta[key] for key in ("format", "runs", "seed")}
    old.update(horizon=list(DEFAULT_WINDOW), stand_nodes=meta["stand_nodes"], triplog_sha256=meta["triplog_sha256"])
    paths["--probs-meta"] = tmp_path / "probs.meta.json"
    paths["--probs-meta"].write_text(json.dumps(old))
    loaded = load_matrix(paths["--probs"], paths["--probs-meta"])
    assert vars(loaded).keys() == vars(load_matrix(artifacts["--probs"], artifacts["--probs-meta"])).keys()
    assert main(["allocate", *_args(paths, ALLOCATE), "--budget", "4", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "alloc.json").read_bytes() == artifacts["--alloc"].read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_synth_survives_default_ingest(tmp_path, seed):
    """The generator draws start minutes over the cleaning's default window, so
    default cleaning keeps every trip, and the triplog's horizon is that window."""
    synth = ["--grid-w", "8", "--grid-h", "8", "--block-m", "300", "--stands", "8", "--trips", "300"]
    assert main(["synth", *synth, "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
    net = ["--nodes", str(tmp_path / "nodes.csv"), "--edges", str(tmp_path / "edges.csv")]
    assert main(["ingest", *net, "--trips", str(tmp_path / "trips.csv"), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ingest_report.json").read_text())
    assert report["parse"]["kept"] == report["parse"]["rows_read"] == 300
    assert report["cleaning"] == dict.fromkeys(report["cleaning"], 0)
    assert load_triplog(tmp_path / "triplog.json").horizon == DEFAULT_WINDOW


@pytest.mark.parametrize("option", ["--t0", "--t-end"])
def test_synth_sets_no_window(tmp_path, capsys, option):
    """The cleaning window is the one horizon: synth takes no window of its own."""
    synth = ["--grid-w", "6", "--grid-h", "6", "--stands", "6", "--trips", "10"]
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", *synth, option, "0", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option} 0" in capsys.readouterr().err


def _synth_source(**changes):
    """The `source` entry of an experiment config on a 6x6 synthetic grid, with `changes`."""
    synth = {"grid_w": 6, "grid_h": 6, "block_m": 350.0, "stand_count": 6, "trips": 150, **changes}
    return f'"source": {json.dumps({"synth": synth})}'


class TestExitCodes:
    def test_malformed_input_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,columns\n1,2\n")
        code = main(
            ["ingest", "--nodes", str(bad), "--edges", str(bad),
             "--trips", str(bad), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "nodes, edges, record",
        [
            ("node_id,lat,lon\n0,40.7,-74.0\n1,40.7,-73.999\n", "u,v,length_m\n0,1,100.0\n1\n", "edge record 2"),
            ("lat,lon,node_id\n40.7,-74.0,0\n\n40.7,-73.999\n", "u,v,length_m\n0,1,100.0\n", "node record 2"),
        ],
        ids=["edge-row-without-v", "node-row-without-node_id"],
    )
    def test_short_network_row_is_2(self, tmp_path, capsys, nodes, edges, record):
        (tmp_path / "nodes.csv").write_text(nodes)
        (tmp_path / "edges.csv").write_text(edges)
        (tmp_path / "trips.csv").write_text("started_at,start_lat,start_lng,end_lat,end_lng\n")
        inputs = {name: str(tmp_path / f"{name}.csv") for name in ("nodes", "edges", "trips")}
        argv = ["ingest", *(arg for name, path in inputs.items() for arg in (f"--{name}", path))]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        bad = inputs["edges" if record.startswith("edge") else "nodes"]
        assert err.startswith(f"error: {bad}: {record} has ") and "too few for its header" in err

    def test_missing_file_is_2(self, tmp_path):
        code = main(
            ["fleet", "--triplog", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_directory_as_input_is_2(self, tmp_path, capsys):
        assert main(["fleet", "--triplog", str(tmp_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_bad_json_config_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "[]"], ids=["number", "list"])
    def test_config_not_an_object_is_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err and "JSON object" in err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"betas": [1.5]', "beta must be in [0, 1], got 1.5"),
            ('"coverage_runs": 0', "coverage_runs must be >= 1, got 0"),
            ('"deltas": [0.123]', "delta_h=0.123 is not a whole number of minutes"),
            ('"budgets": [0]', "budget must be >= 1, got 0"),
            ('"deltas": [1e400]', "delta_h=inf is not a whole number of minutes"),
            ('"budgets": [1e400]', "budgets must be a list of integers, got [inf]"),
            ('"budgets": [2.7]', "budgets must be a list of integers, got [2.7]"),
            ('"replications": 2.5', "replications must be an integer, got 2.5"),
            ('"budgets": "12"', "budgets must be a list of integers, got '12'"),
            ('"seed": 1.9', "seed must be an integer, got 1.9"),
            ('"coverage_runs": "3"', "coverage_runs must be an integer, got '3'"),
            ('"betas": [true]', "betas must be a list of numbers, got [True]"),
            ('"seed": true', "seed must be an integer, got True"),
            ('"deltas": ["16"]', "deltas must be a list of numbers, got ['16']"),
            ('"budgets": [3, 3]', "budgets must not repeat, got [3, 3]"),
            ('"deltas": [4, 4.0]', "deltas must not repeat, got [4.0, 4.0]"),
            ('"betas": [1.0, 0.5, 1.0]', "betas must not repeat, got [1.0, 0.5, 1.0]"),
            ('"methods": ["optimized-noactive", "optimized-noactive"]',
             "methods must not repeat, got ['optimized-noactive', 'optimized-noactive']"),
            ('"methods": []', "budgets, deltas, betas, and methods must be non-empty"),
            (_synth_source(grid_w=6.5), "grid_w must be an integer, got 6.5"),
            (_synth_source(grid_w=True), "grid_w must be an integer, got True"),
            (_synth_source(stand_count=6.0), "stand_count must be an integer, got 6.0"),
            (_synth_source(trips=150.5), "trips must be an integer, got 150.5"),
            (_synth_source(seed=1.5), "seed must be an integer, got 1.5"),
            (_synth_source(horizon=[360, 1320]), "unexpected keyword argument 'horizon'"),
            (_synth_source(block_m=True), "block_m must be a finite number > 0, got True"),
            (_synth_source(gravity_gamma=True), "gravity_gamma must be a finite number > 0, got True"),
        ],
        ids=["beta-above-one", "no-coverage-runs", "delta-not-whole-minutes", "budget-zero",
             "delta-infinite", "budget-infinite", "budget-fraction", "replications-fraction",
             "budgets-a-string", "seed-fraction", "coverage-runs-a-string", "beta-bool", "seed-bool",
             "delta-a-string", "budget-repeated", "delta-repeated-by-value", "beta-repeated",
             "method-repeated", "methods-empty", "synth-grid-fraction", "synth-grid-bool",
             "synth-stands-float", "synth-trips-fraction", "synth-seed-fraction",
             "synth-horizon", "synth-block-bool", "synth-gamma-bool"],
    )
    def test_bad_experiment_config_is_2_at_load(self, tmp_path, capsys, monkeypatch, entry, message):
        import velosense.harness as harness

        def no_prepare(spec):
            raise AssertionError("the config was accepted")

        monkeypatch.setattr(harness, "prepare", no_prepare)
        source = "" if entry.startswith('"source"') else f"{_synth_source()}, "
        cfg = tmp_path / "exp.json"
        cfg.write_text(f'{{{source}"budgets": [2], "deltas": [16.0], {entry}}}')
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: bad experiment config: ") and message in err

    def test_sensor_requirement_with_several_betas_is_2_before_prepare(self, tmp_path, capsys, monkeypatch):
        import velosense.harness as harness

        def no_prepare(spec):
            raise AssertionError("the config was accepted")

        monkeypatch.setattr(harness, "prepare", no_prepare)
        synth = '"grid_w": 6, "grid_h": 6, "block_m": 350.0, "stand_count": 6, "trips": 150'
        cfg = tmp_path / "exp.json"
        cfg.write_text(f'{{"source": {{"synth": {{{synth}}}}}, "budgets": [2], "deltas": [16.0], "betas": [0.0, 1.0]}}')
        argv = ["experiment", "--mode", "sensor-requirement", "--config", str(cfg), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {cfg}: sensor-requirement takes one beta, got [0.0, 1.0]\n"
        with pytest.raises(MalformedInputError, match="takes one beta"):
            harness.sensor_requirement(harness.load_spec(json.loads(cfg.read_text())), 10.0)

    @pytest.mark.parametrize("mode", ["pipeline", "beta-sweep"])
    def test_sweep_without_budgets_is_2_before_prepare(self, tmp_path, capsys, monkeypatch, mode):
        import velosense.harness as harness

        def no_prepare(spec):
            raise AssertionError("the config was accepted")

        monkeypatch.setattr(harness, "prepare", no_prepare)
        synth = '"grid_w": 6, "grid_h": 6, "block_m": 350.0, "stand_count": 6, "trips": 150'
        cfg = tmp_path / "exp.json"
        cfg.write_text(f'{{"source": {{"synth": {{{synth}}}}}, "deltas": [16.0], "betas": [0.0, 1.0]}}')
        assert main(["experiment", "--mode", mode, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'budgets'" in err

    def test_sensor_requirement_without_budgets_writes_the_same_rows(self, tmp_path):
        synth = {"grid_w": 6, "grid_h": 6, "block_m": 350.0, "stand_count": 6, "trips": 150, "seed": 19}
        config = {"source": {"synth": synth}, "deltas": [16.0, 4.0], "betas": [0.0], "replications": 2, "coverage_runs": 2}
        for name, doc in (("without", config), ("with", {**config, "budgets": [1]})):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            argv = ["experiment", "--mode", "sensor-requirement", "--target-phi", "10"]
            assert main([*argv, "--config", str(tmp_path / f"{name}.json"), "--out-dir", str(tmp_path / name)]) == 0
        rows = [(tmp_path / name / "sensor_requirement.csv").read_bytes() for name in ("without", "with")]
        assert rows[0] == rows[1] and len(rows[0].splitlines()) == 3

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_sensor_requirement_target_not_finite_is_2_before_prepare(self, tmp_path, capsys, monkeypatch, target):
        import velosense.harness as harness

        def no_prepare(spec):
            raise AssertionError("the target was accepted")

        monkeypatch.setattr(harness, "prepare", no_prepare)
        synth = '"grid_w": 6, "grid_h": 6, "block_m": 350.0, "stand_count": 6, "trips": 150'
        cfg = tmp_path / "exp.json"
        cfg.write_text(f'{{"source": {{"synth": {{{synth}}}}}, "deltas": [16.0], "betas": [0.0]}}')
        argv = ["experiment", "--mode", "sensor-requirement", f"--target-phi={target}", "--config", str(cfg)]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: target phi must be a finite percentage, got {float(target)}\n"

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("allocate", ["--budget", "4", "--k", "nan"], "K must be a finite number > 0, got nan"),
            ("allocate", ["--budget", "4", "--k", "inf"], "K must be a finite number > 0, got inf"),
            ("export-lp", ["--budget", "4", "--k", "nan"], "K must be a finite number > 0, got nan"),
            ("ingest", ["--min-km", "nan"], "need distance bounds 0 <= min <= max < inf, got nan and 5.0 km"),
            ("ingest", ["--max-km", "nan"], "need distance bounds 0 <= min <= max < inf, got 0.5 and nan km"),
            ("ingest", ["--min-km", "3", "--max-km", "1"], "need distance bounds 0 <= min <= max < inf, got 3.0 and 1.0 km"),
            ("allocate", ["--budget", "4", "--method", "exact", "--time-limit", "nan"],
             "time limit must be a number of seconds >= 0, got nan"),
            ("allocate", ["--budget", "4", "--method", "exact", "--time-limit", "-1"],
             "time limit must be a number of seconds >= 0, got -1.0"),
        ],
        ids=["k-nan", "k-inf", "export-lp-k-nan", "min-km-nan", "max-km-nan", "min-km-above-max-km",
             "time-limit-nan", "time-limit-negative"],
    )
    def test_number_out_of_range_is_2(self, synth_dir, artifacts, tmp_path, capsys, command, options, message):
        if command == "ingest":
            inputs = [*_args(artifacts, ("--nodes", "--edges")), "--trips", str(synth_dir / "trips.csv")]
        else:
            inputs = _args(artifacts, ALLOCATE)
        if command == "export-lp":
            inputs += ["--out", str(tmp_path / "model.lp")]
        assert main([command, *inputs, *options, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_missing_config_is_2(self, tmp_path):
        assert main(["experiment", "--out-dir", str(tmp_path)]) == 2

    def test_infeasible_synth_is_3(self, tmp_path):
        code = main(
            ["synth", "--grid-w", "2", "--grid-h", "2", "--block-m", "100",
             "--stands", "2", "--trips", "5", "--out-dir", str(tmp_path)]
        )
        assert code == 3

    def test_infeasible_experiment_is_3(self, tmp_path):
        config = {
            "source": {"synth": {"grid_w": 2, "grid_h": 2, "block_m": 100.0,
                                  "stand_count": 2, "trips": 5}},
            "budgets": [1],
            "deltas": [16.0],
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 3
