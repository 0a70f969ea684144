"""Command-line interface.

Subcommands mirror the pipeline stages so intermediate artifacts can be
inspected and reused: ingest, synth, fleet, probs, allocate, simulate,
score, experiment, export-lp. Exit codes: 0 success, 2 malformed input,
3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import allocation, coverage_model, fleet_sim, harness, metrics, synth, trips
from .errors import (
    ConfigInfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    blamed_on,
    read_json,
    write_json,
)
from .network import load_network_files, network_sha256

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3


def _check_triplog(recorded, artifact, triplog, triplog_sha256) -> None:
    """An artifact must record the SHA-256 of the triplog it is used with."""
    if recorded is None:
        raise MalformedInputError(
            f"{artifact} records no triplog_sha256, so it cannot be checked against {triplog}"
        )
    if recorded != triplog_sha256:
        raise MalformedInputError(f"{artifact} was built from another triplog than {triplog}")


def _load_routed_net(args, log):
    """Load --nodes/--edges, which must be the network the triplog was routed on: the
    header names its hash, and each segment of its segment table has the network's
    end nodes and length."""
    net = load_network_files(args.nodes, args.edges)
    network = f"{args.nodes} and {args.edges}"
    if log.network_sha256 is None:
        raise MalformedInputError(
            f"{args.triplog} records no network_sha256, so it cannot be checked against {network}"
        )
    if log.network_sha256 != network_sha256(net):
        raise MalformedInputError(f"{args.triplog} was routed on another network than {network}")
    table = log.segment_table
    at = np.minimum(table.id, net.num_segments)  # an unknown id reads the appended NaN and -1
    net_length = np.append(net.seg_length_m, np.nan)[at]
    net_u = np.append(np.minimum(net.seg_u, net.seg_v), -1)[at]
    net_v = np.append(np.maximum(net.seg_u, net.seg_v), -1)[at]
    wrong = np.flatnonzero((net_length != table.length_m) | (net_u != table.u) | (net_v != table.v))
    if len(wrong):
        i = wrong[0]
        if np.isnan(net_length[i]):
            has = "have no such segment"
        elif net_length[i] != table.length_m[i]:
            has = f"give it {net_length[i]} m"
        else:
            has = f"give it nodes {net_u[i]} and {net_v[i]}"
        raise MalformedInputError(
            f"{args.triplog}: segment {table.id[i]} joins nodes {table.u[i]} and {table.v[i]} "
            f"over {table.length_m[i]} m, but {network} {has}"
        )
    return net


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    net = load_network_files(args.nodes, args.edges)
    with open(args.trips, encoding="utf-8", newline="") as fh:
        raw, report = trips.parse_raw_trips(fh)
    log = trips.clean_trips(
        raw,
        net,
        speed_kmh=args.speed_kmh,
        min_km=args.min_km,
        max_km=args.max_km,
        window=(args.window_start, args.window_end),
    )
    out = _out_dir(args)
    trips.save_triplog(log, out / "triplog.json")
    write_json(out / "ingest_report.json", {"parse": asdict(report), "cleaning": log.drop_counts})
    print(
        f"ingested {len(log.ids)} trips across {log.num_stands} stands "
        f"(parsed {report.kept}/{report.rows_read} rows) -> {out / 'triplog.json'}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    # each SynthConfig field is the option of the same name
    cfg = synth.SynthConfig(**{f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)})
    net, raw = synth.generate(cfg)
    out = _out_dir(args)
    synth.write_network_csv(net, out / "nodes.csv", out / "edges.csv")
    synth.write_trips_csv(raw, out / "trips.csv")
    print(f"synthesized {net.num_nodes} nodes, {net.num_segments} segments, {len(raw)} trips -> {out}")
    return EXIT_OK


def cmd_fleet(args) -> int:
    log = trips.load_triplog(args.triplog)
    plan = fleet_sim.initial_bike_counts(log)
    out = _out_dir(args)
    fleet_sim.save_fleet(plan, out / "fleet.json")
    print(f"fleet of {plan.num_bikes} bikes over {len(plan.b)} stands -> {out / 'fleet.json'}")
    return EXIT_OK


def cmd_probs(args) -> int:
    log = trips.load_triplog(args.triplog)
    plan = fleet_sim.initial_bike_counts(log)
    matrix = coverage_model.estimate_probabilities(log, plan, runs=args.runs, seed=args.seed)
    matrix.triplog_sha256 = trips.file_sha256(args.triplog)
    out = _out_dir(args)
    coverage_model.save_matrix(matrix, out / "probs.csv", out / "probs.meta.json")
    print(f"{len(matrix.p)} (stand, segment) probabilities -> {out / 'probs.csv'}")
    return EXIT_OK


def _build_instance_from_files(args):
    """The allocation instance of the input files, and the SHA-256 of --triplog. A log
    with no trips has no stands, so no plan to write and no valid LP model."""
    log = trips.load_triplog(args.triplog)
    net = _load_routed_net(args, log)
    plan = fleet_sim.initial_bike_counts(log)
    matrix = coverage_model.load_matrix(args.probs, args.probs_meta)
    triplog_sha256 = trips.file_sha256(args.triplog)
    _check_triplog(matrix.triplog_sha256, args.probs_meta, args.triplog, triplog_sha256)
    with blamed_on(args.probs):
        inst = allocation.build_instance(matrix, net, plan, args.budget, K=args.k)
    if not inst.num_stands:
        raise ConfigInfeasibleError(f"{args.triplog} holds no trips, so it has no stands to allocate to")
    return inst, triplog_sha256


def cmd_allocate(args) -> int:
    inst, triplog_sha256 = _build_instance_from_files(args)
    if args.method == "exact":
        plan = allocation.solve_exact(inst, time_limit_s=args.time_limit)
    elif args.method == "greedy":
        plan = allocation.solve_greedy(inst)
    else:
        plan = allocation.random_allocation(inst, args.seed)
    out = _out_dir(args)
    allocation.save_plan(plan, inst, out / "alloc.json", triplog_sha256)
    if args.budget > inst.budget:
        print(f"warning: budget {args.budget} exceeds total capacity {inst.budget}; clamped", file=sys.stderr)
    if plan.gap > 0:
        print(
            f"warning: time limit hit; best found may be up to {plan.gap:.1f} m "
            "below optimal (try --method greedy or a higher --time-limit)",
            file=sys.stderr,
        )
    print(
        f"{sum(plan.n)} sensors via {plan.solver}, "
        f"objective {plan.objective_m:.1f} m -> {out / 'alloc.json'}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    log = trips.load_triplog(args.triplog)
    plan = fleet_sim.initial_bike_counts(log)
    alloc = allocation.load_plan(args.alloc)
    triplog_sha256 = trips.file_sha256(args.triplog)
    _check_triplog(alloc.triplog_sha256, args.alloc, args.triplog, triplog_sha256)
    with blamed_on(args.alloc):
        equipped = fleet_sim.equipped_set(plan, alloc.n)
    cfg = fleet_sim.SimConfig(seed=args.seed, beta=args.beta, equipped=equipped)
    replay = fleet_sim.simulate(log, plan, cfg)
    out = _out_dir(args)
    fleet_sim.save_trajectories(replay, cfg, out / "traj.json", triplog_sha256)
    print(f"replayed {len(replay.bike_of_trip)} trips on {len(replay)} bikes -> {out / 'traj.json'}")
    return EXIT_OK


def cmd_score(args) -> int:
    log = trips.load_triplog(args.triplog)
    net = _load_routed_net(args, log)
    replay, meta = fleet_sim.load_trajectories(args.traj)
    _check_triplog(meta.get("triplog_sha256"), args.traj, args.triplog, trips.file_sha256(args.triplog))
    equipped = frozenset(meta["equipped"])
    with blamed_on(args.traj):
        fleet_sim.check_replay(log, replay, equipped, meta["beta"])
    grid = metrics.IntervalGrid(*log.horizon, args.delta)
    # one count per distinct interval; the hourly diagnostics' grid refuses a horizon
    # that is not hour-aligned, before any file is written
    grids = {args.delta: grid, 1.0: metrics.hour_grid(log)}
    events, rode, segments = log.events, replay.rode(equipped), net.num_segments
    counts = {
        d: metrics.count_cells(metrics.event_cells(events, g, segments), events.trip, rode, (segments, g.n_intervals))
        for d, g in grids.items()
    }
    phi = metrics.sensing_score(counts[args.delta], net.seg_length_m, grid)
    hourly = metrics.hourly_diagnostics(counts[1.0], log)
    out = _out_dir(args)
    metrics.write_report(counts[args.delta], grid, phi, len(equipped), out / "coverage_counts.csv",
                         out / "score.json")
    metrics.write_hourly(hourly, out / "hourly.csv", out / "hourly_segments.csv")
    print(f"phi = {phi:.3f}% at delta {args.delta} h -> {out / 'score.json'}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    if not args.config:
        raise MalformedInputError("experiment requires --config <json>")
    doc = read_json(args.config)
    try:
        spec = harness.load_spec(doc)
        if args.mode == "sensor-requirement":
            harness.requirement_beta(spec)  # refused here, before any routing
    except MalformedInputError as exc:
        raise MalformedInputError(f"{args.config}: {exc}") from exc
    if "seed" not in doc:
        spec.seed = args.seed
    out = _out_dir(args)
    if args.mode == "pipeline":
        rows, summary = harness.run_pipeline(spec)
        harness.write_rows(out / "results.csv", harness.ResultRow, rows)
        harness.write_rows(out / "summary.csv", harness.SummaryRow, summary)
        print(f"{len(rows)} result rows -> {out / 'results.csv'}")
    elif args.mode == "beta-sweep":
        rows, summary, gains = harness.beta_sweep(spec)
        harness.write_rows(out / "results.csv", harness.ResultRow, rows)
        harness.write_rows(out / "summary.csv", harness.SummaryRow, summary)
        harness.write_rows(out / "beta_gains.csv", harness.BetaGain, gains)
        print(f"{len(rows)} result rows, {len(gains)} beta steps -> {out}")
    else:  # sensor-requirement
        rows = harness.sensor_requirement(spec, args.target_phi)
        harness.write_rows(out / "sensor_requirement.csv", harness.RequirementRow, rows)
        print(f"{len(rows)} interval rows -> {out / 'sensor_requirement.csv'}")
    return EXIT_OK


def cmd_export_lp(args) -> int:
    inst, _triplog_sha256 = _build_instance_from_files(args)
    out = Path(args.out) if args.out else _out_dir(args) / "model.lp"
    with open(out, "wb") as fh:
        allocation.export_lp(inst, fh)
    print(
        f"LP model with {inst.num_stands} integer and {len(inst.candidates)} "
        f"binary variables -> {out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for every stochastic step")
    common.add_argument("--out-dir", default=".", help="directory for output artifacts")
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--nodes", required=True)
    network.add_argument("--edges", required=True)
    triplog = argparse.ArgumentParser(add_help=False)
    triplog.add_argument("--triplog", required=True)
    instance = argparse.ArgumentParser(add_help=False, parents=[network, triplog])
    instance.add_argument("--probs", required=True)
    instance.add_argument("--probs-meta", required=True)
    instance.add_argument("--budget", type=int, required=True)
    instance.add_argument("--k", type=float, default=1.0)

    parser = argparse.ArgumentParser(
        prog="velosense",
        description="Drive-by sensing on bike-share fleets: replay, allocate, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common, network], help="parse, clean, and route raw trips")
    p.add_argument("--trips", required=True)
    p.add_argument("--speed-kmh", type=float, default=trips.DEFAULT_SPEED_KMH)
    p.add_argument("--min-km", type=float, default=trips.DEFAULT_MIN_KM)
    p.add_argument("--max-km", type=float, default=trips.DEFAULT_MAX_KM)
    p.add_argument("--window-start", type=int, default=trips.DEFAULT_WINDOW[0])
    p.add_argument("--window-end", type=int, default=trips.DEFAULT_WINDOW[1])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic network and trips")
    p.add_argument("--grid-w", type=int, required=True)
    p.add_argument("--grid-h", type=int, required=True)
    p.add_argument("--block-m", type=float, default=200.0)
    p.add_argument("--stands", dest="stand_count", type=int, required=True)
    p.add_argument("--trips", type=int, required=True)
    p.add_argument("--gamma", dest="gravity_gamma", type=float, default=1.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fleet", parents=[common, triplog], help="derive minimal initial bike counts")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("probs", parents=[common, triplog], help="estimate visit probabilities")
    p.add_argument("--runs", type=int, default=coverage_model.DEFAULT_RUNS)
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("allocate", parents=[common, instance], help="allocate sensors to stands")
    p.add_argument("--method", choices=["exact", "greedy", "random"], default="greedy")
    p.add_argument("--time-limit", type=float, default=60.0)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("simulate", parents=[common, triplog], help="replay trips with equipped bikes")
    p.add_argument("--alloc", required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("score", parents=[common, triplog, network], help="score a trajectory dump")
    p.add_argument("--traj", required=True)
    p.add_argument("--delta", type=float, required=True, help="sensing interval in hours")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("experiment", parents=[common], help="run a configured experiment")
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument(
        "--mode",
        choices=["pipeline", "beta-sweep", "sensor-requirement"],
        default="pipeline",
    )
    p.add_argument("--target-phi", type=float, default=50.0)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export-lp", parents=[common, instance], help="write the allocation model as LP text")
    p.add_argument("--out", help="LP file to write (default: <out-dir>/model.lp)")
    p.set_defaults(func=cmd_export_lp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (ConfigInfeasibleError, InfeasiblePlanError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
