import hashlib
import json

import pytest

from velosense.allocation import load_plan
from velosense.cli import main
from velosense.coverage_model import load_matrix
from velosense.errors import MalformedInputError
from velosense.fleet_sim import load_trajectories
from velosense.trips import load_triplog

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
    "score.json": "92dbc0d2e948d4064cffef4240d586e5ee0a5be57d762dab3ca7cc86b25447ab",
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
    assert doc["format"] == "velosense-triplog-v3"
    trips = doc["trips"]
    assert list(trips) == ["id", "origin", "dest", "start_min", "duration_min", "path"]
    assert all(len(column) == 150 for column in trips.values())
    # one path per (origin, dest) stand pair, shared by the trips that make it
    assert len(doc["paths"]) == len(set(zip(trips["origin"], trips["dest"])))
    assert set(trips["path"]) == set(range(len(doc["paths"])))


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
    assert traj["format"] == "velosense-traj-v2"
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
    assert doc["trips"]["duration_min"] == [1, 1]
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
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(origin=99))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(origin=-1))),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["paths"][0]["seg_lengths_m"].pop())),
        ("fleet", ("--triplog",), [], "--triplog", _edit_doc(lambda d: d["trips"]["path"].__setitem__(0, len(d["paths"])))),
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
        ("probs", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(duration_min=2.5))),
        ("probs", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(duration_min=-30))),
        ("probs", ("--triplog",), [], "--triplog", _edit_trip(lambda t: t.update(duration_min=0))),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(lambda d: d["bike_of_trip"].__setitem__(0, len(d["homes"])))),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(lambda d: d["events_per_trip"].__setitem__(0, d["events_per_trip"][0] + 1))),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_doc(lambda d: d["segment"].__setitem__(0, -1))),
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
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_column("minute", lambda c: [m + 600 for m in c])),
        ("score", SCORE, ["--delta", "4"], "--traj", _edit_column("segment", lambda c: [0] * len(c))),
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
    ],
    ids=["triplog-without-stands", "traj-without-metadata", "alloc-without-N_e",
         "probs-unknown-stand", "probs-unknown-segment", "probs-nan", "probs-negative",
         "trip-after-horizon", "trip-before-horizon", "trip-unknown-origin",
         "trip-negative-origin", "trip-path-lengths-disagree", "trip-path-out-of-range",
         "trip-path-negative", "trips-unsorted",
         "probs-meta-without-triplog-sha256", "traj-without-triplog-sha256",
         "alloc-without-triplog-sha256", "alloc-negative-count", "alloc-extra-stand",
         "alloc-missing-stand", "alloc-count-not-int", "probs-p-not-a-number",
         "trip-start-not-int", "trip-duration-not-int", "trip-duration-negative",
         "trip-duration-zero", "traj-bike-out-of-range", "traj-events-per-trip-off",
         "traj-segment-negative", "traj-without-equipped", "traj-equipped-out-of-range",
         "traj-equipped-not-int", "traj-equipped-bool", "alloc-count-fraction",
         "alloc-count-bool", "alloc-count-string", "probs-repeated-pair",
         "stand-id-not-its-index", "stands-share-a-node", "traj-minutes-shifted",
         "traj-segments-zeroed", "traj-trip-ids-reversed", "trip-id-not-a-string", "trip-id-null",
         "horizon-not-int", "speed-zero", "speed-not-a-number", "speed-negative",
         "probs-extra-field", "probs-missing-field", "probs-stand-past-int64", "probs-negative-segment"],
)
def test_malformed_artifact_is_2(artifacts, tmp_path, capsys, command, options, extra, corrupted, edit):
    paths = dict(artifacts)
    bad = tmp_path / paths[corrupted].name
    bad.write_text(edit(paths[corrupted].read_text()))
    paths[corrupted] = bad
    assert main([command, *_args(paths, options), *extra, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


# JSON artifact option -> (a command that reads it, its options, extra arguments,
# the artifact's format, the command that writes it)
JSON_INPUTS = {
    "--triplog": ("fleet", ("--triplog",), [], "velosense-triplog-v3", "ingest"),
    "--probs-meta": ("allocate", ALLOCATE, ["--budget", "4"], "velosense-coverage-v1", "probs"),
    "--alloc": ("simulate", SIMULATE, [], "velosense-alloc-v1", "allocate"),
    "--traj": ("score", SCORE, ["--delta", "4"], "velosense-traj-v2", "simulate"),
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
        ("--triplog", '{"format": "something-else"}'),
        ("--triplog", "[]"),
        ("--triplog", NOT_JSON),
        ("--triplog", TOO_DEEP),
        ("--traj", '{"format": "velosense-traj-v1", "metadata": {}, "bikes": []}'),
        *[(option, text) for option in DERIVED for text in CONTENTS.values()],
    ],
    ids=["v1", "v2", "unknown", "not-an-object", "triplog-not-json", "triplog-nested-too-deep", "traj-v1",
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
        ],
        ids=["beta-above-one", "no-coverage-runs", "delta-not-whole-minutes", "budget-zero",
             "delta-infinite", "budget-infinite", "budget-fraction", "replications-fraction",
             "budgets-a-string", "seed-fraction", "coverage-runs-a-string", "beta-bool", "seed-bool",
             "delta-a-string", "budget-repeated", "delta-repeated-by-value", "beta-repeated",
             "method-repeated", "methods-empty"],
    )
    def test_bad_experiment_config_is_2_at_load(self, tmp_path, capsys, monkeypatch, entry, message):
        import velosense.harness as harness

        def no_prepare(spec):
            raise AssertionError("the config was accepted")

        monkeypatch.setattr(harness, "prepare", no_prepare)
        synth = '"grid_w": 6, "grid_h": 6, "block_m": 350.0, "stand_count": 6, "trips": 150'
        cfg = tmp_path / "exp.json"
        cfg.write_text(f'{{"source": {{"synth": {{{synth}}}}}, "budgets": [2], "deltas": [16.0], {entry}}}')
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
