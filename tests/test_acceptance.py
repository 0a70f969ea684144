"""Acceptance gate.

Each test runs one exit criterion at its stated tolerance and prints a
single pass/fail line (visible with `pytest -s` or in captured output).
Criterion 10 needs operator-supplied real-world data and is skipped when
the input files are not configured.
"""

import io
import math
import os
import time

import numpy as np
import pytest

from velosense.allocation import build_instance, export_lp, solve_exact, solve_greedy
from velosense.coverage_model import estimate_probabilities, linearity_probe
from velosense.errors import InfeasiblePlanError
from velosense.fleet_sim import (
    FleetPlan,
    SimConfig,
    equipped_set,
    initial_bike_counts,
    simulate,
)
from velosense.harness import (
    METHOD_ACTIVE,
    METHOD_OPTIMIZED,
    METHOD_RANDOM,
    ExperimentSpec,
    FileSource,
    beta_sweep,
    run_pipeline,
    sensor_requirement,
)
from velosense.metrics import IntervalGrid, sensing_score
from velosense.synth import SynthConfig, generate
from velosense.trips import clean_trips, parse_raw_trips

from alloc_problems import make_problem, random_problem
from lp_parser import parse_lp
from oracles import best_allocation_objective, touched_length_fraction_pct
from trip_logs import coverage_counts

REFERENCE_SYNTH = SynthConfig(
    grid_w=20, grid_h=20, block_m=200.0, stand_count=50, trips=20_000, seed=4242
)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def score(net, log, trajectories, equipped, delta_h):
    grid = IntervalGrid(*log.horizon, delta_h)
    counts = coverage_counts(log.events, trajectories, equipped, grid, net.num_segments)
    return sensing_score(counts, net.seg_length_m, grid)


def test_criterion_1_exact_solver_equals_enumeration_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        inst, dense, lengths, caps, _budget = random_problem(rng)
        expected = best_allocation_objective(dense, lengths, caps, inst.budget, inst.K)
        if solve_exact(inst).objective_m != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    assert report(1, ok, f"200 instances, {mismatches} mismatches, {elapsed:.2f}s (< 10 s)")


def test_criterion_2_lp_export_parity_with_external_solver():
    scipy = pytest.importorskip("scipy", reason="no external MILP solver installed")
    del scipy
    from lp_parser import solve_with_highs

    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(20):
        inst, _dense, _lengths, _caps, _budget = random_problem(rng)
        internal = solve_exact(inst).objective_m
        sink = io.BytesIO()
        export_lp(inst, sink)
        external, _values = solve_with_highs(parse_lp(sink.getvalue().decode()))
        scale = max(1.0, abs(internal))
        worst = max(worst, abs(external - internal) / scale)
    ok = worst <= 1e-6
    assert report(2, ok, f"20 instances via HiGHS, worst relative error {worst:.2e} (<= 1e-6)")


def test_criterion_3_minimal_fleet_is_feasible_and_tight():
    rng = np.random.default_rng(3003)
    start = time.perf_counter()
    checked = 0
    for i in range(50):
        cfg = SynthConfig(
            grid_w=int(rng.integers(4, 7)),
            grid_h=int(rng.integers(4, 7)),
            block_m=300.0,
            stand_count=int(rng.integers(3, 6)),
            trips=int(rng.integers(30, 90)),
            seed=int(rng.integers(0, 1_000_000)),
        )
        net, raw = generate(cfg)
        log = clean_trips(raw, net)
        plan = initial_bike_counts(log)
        simulate(log, plan, SimConfig(seed=i))  # never drives a stand negative

        stands_with_bikes = [s for s, b in enumerate(plan.b) if b > 0]
        victim = int(rng.choice(stands_with_bikes))
        reduced = list(plan.b)
        reduced[victim] -= 1
        with pytest.raises(InfeasiblePlanError):
            simulate(log, FleetPlan(reduced), SimConfig(seed=i))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 50 and elapsed < 5.0
    assert report(3, ok, f"{checked} logs feasible and tight, {elapsed:.2f}s (< 5 s)")


def test_criterion_4_replay_invariants_on_reference_fixture(
    reference_scenario, reference_fleet
):
    net, log = reference_scenario
    start = time.perf_counter()
    equipped = equipped_set(reference_fleet, [min(1, b) for b in reference_fleet.b])
    trajs = simulate(log, reference_fleet, SimConfig(seed=404, beta=0.0, equipped=equipped))
    unguided = simulate(log, reference_fleet, SimConfig(seed=404))
    bitwise_equal = trajs == unguided

    served = [trip_id for t in trajs for trip_id in t.served]
    served_once = sorted(served) == sorted(t.id for t in log.trips)

    by_id = {t.id: t for t in log.trips}
    continuous = True
    for traj in trajs:
        location = traj.home
        last_end = None
        for trip in (by_id[i] for i in traj.served):
            if trip.origin != location or (last_end is not None and trip.start_min < last_end):
                continuous = False
                break
            location, last_end = trip.dest, trip.end_min
    elapsed = time.perf_counter() - start
    ok = bitwise_equal and served_once and continuous and elapsed < 30.0
    assert report(
        4,
        ok,
        f"{len(log.trips)} trips served once={served_once}, continuous={continuous}, "
        f"beta0 bitwise={bitwise_equal}, {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_5_guided_selection_frequency():
    from velosense.network import Path
    from velosense.trips import Stand, Trip

    from trip_logs import trip_log

    path = Path((0,), (0, 1), (400.0,), 400.0)
    log = trip_log([Trip("t0", 0, 1, 3, path, 4)], [Stand(0, 0), Stand(1, 1)], (0, 30), 100.0)
    plan = FleetPlan([2, 0])
    hits = 0
    n = 10_000
    for seed in range(n):
        cfg = SimConfig(seed=seed, beta=0.5, equipped=frozenset({0}))
        trajs = simulate(log, plan, cfg)
        hits += bool(list(trajs)[0].served)
    freq = hits / n
    ok = abs(freq - 0.75) <= 0.02
    assert report(5, ok, f"equipped-selection frequency {freq:.4f} (0.75 +- 0.02)")


def test_criterion_6_binomial_linearity(reference_scenario, reference_fleet):
    _net, log = reference_scenario
    probe_stands = sorted(
        range(len(reference_fleet.b)), key=lambda s: -reference_fleet.b[s]
    )[:5]
    rows = linearity_probe(log, reference_fleet, probe_stands, runs=20, seed=606, min_mean=5.0)
    r2s = [r2 for _s, _e, _slope, r2, _n in rows]
    median_r2 = float(np.median(r2s))
    ok = len(r2s) > 0 and median_r2 >= 0.9
    assert report(
        6, ok, f"{len(r2s)} pairs with mean coverage >= 5, median R^2 {median_r2:.4f} (>= 0.9)"
    )


def test_criterion_7_method_ordering():
    spec = ExperimentSpec(
        source=REFERENCE_SYNTH,
        budgets=[10, 20, 40, 80, 160],
        deltas=[16.0],
        betas=[1.0],
        replications=20,
        seed=900,
        coverage_runs=20,
    )
    _rows, summary = run_pipeline(spec)
    means = {(s.method, s.budget): s.mean_phi_pct for s in summary}
    ordered = True
    gap_positive = True
    details = []
    for budget in spec.budgets:
        active = means[(METHOD_ACTIVE, budget)]
        optimized = means[(METHOD_OPTIMIZED, budget)]
        random_ = means[(METHOD_RANDOM, budget)]
        ordered &= active >= optimized >= random_
        gap_positive &= optimized - random_ > 0.0
        details.append(f"B{budget}: {active:.1f}/{optimized:.1f}/{random_:.1f}")
    ok = ordered and gap_positive
    assert report(
        7, ok, f"active/optimized/random means per budget: {'; '.join(details)}"
    )


def test_criterion_8_beta_diminishing_returns():
    betas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    spec = ExperimentSpec(
        source=REFERENCE_SYNTH,
        budgets=[40],
        deltas=[1.0],
        betas=betas,
        replications=20,
        seed=900,
        coverage_runs=20,
    )
    _rows, summary, _gains = beta_sweep(spec)
    cells = {s.beta: s for s in summary}
    non_decreasing = True
    for lo, hi in zip(betas, betas[1:]):
        slack = max(
            cells[lo].std_phi_pct / math.sqrt(cells[lo].reps),
            cells[hi].std_phi_pct / math.sqrt(cells[hi].reps),
        )
        non_decreasing &= cells[hi].mean_phi_pct >= cells[lo].mean_phi_pct - slack
    head_gain = cells[0.4].mean_phi_pct - cells[0.0].mean_phi_pct
    tail_gain = cells[1.0].mean_phi_pct - cells[0.6].mean_phi_pct
    ok = non_decreasing and tail_gain < head_gain
    assert report(
        8,
        ok,
        f"phi(beta) non-decreasing={non_decreasing}, gain 0->0.4 = {head_gain:.2f} "
        f"> gain 0.6->1.0 = {tail_gain:.2f}",
    )


def test_criterion_9_metric_properties(reference_scenario, reference_fleet):
    net, log = reference_scenario
    trajs = simulate(log, reference_fleet, SimConfig(seed=909))
    rng = np.random.default_rng(99)
    bikes = list(range(reference_fleet.num_bikes))

    in_range = True
    monotone = True
    for _ in range(100):
        base = frozenset(rng.choice(bikes, size=8, replace=False).tolist())
        superset = base | frozenset(rng.choice(bikes, size=8, replace=False).tolist())
        phi_base = score(net, log, trajs, base, 16.0)
        phi_super = score(net, log, trajs, superset, 16.0)
        in_range &= 0.0 <= phi_base <= 100.0 and 0.0 <= phi_super <= 100.0
        monotone &= phi_base <= phi_super + 1e-12

    equipped = equipped_set(reference_fleet, [min(1, b) for b in reference_fleet.b])
    refinement = [score(net, log, trajs, equipped, d) for d in (16.0, 8.0, 4.0, 1.0)]
    refinement_ok = all(a >= b for a, b in zip(refinement, refinement[1:]))

    everyone = frozenset(bikes)
    phi_all = score(net, log, trajs, everyone, 16.0)
    t0, t_end = log.horizon
    oracle = touched_length_fraction_pct(log, net.seg_length_m, t0, t_end)
    union_ok = phi_all == oracle

    ok = in_range and monotone and refinement_ok and union_ok
    assert report(
        9,
        ok,
        f"range ok={in_range}, superset monotone={monotone}, "
        f"refinement {['%.1f' % x for x in refinement]} non-increasing={refinement_ok}, "
        f"union oracle exact={union_ok}",
    )


REAL_TRIPS = os.environ.get("VELOSENSE_CITIBIKE_CSV")
REAL_NODES = os.environ.get("VELOSENSE_NODES_CSV")
REAL_EDGES = os.environ.get("VELOSENSE_EDGES_CSV")
HAVE_REAL_DATA = all(p and os.path.exists(p) for p in (REAL_TRIPS, REAL_NODES, REAL_EDGES))


@pytest.mark.skipif(
    not HAVE_REAL_DATA,
    reason="set VELOSENSE_CITIBIKE_CSV, VELOSENSE_NODES_CSV, VELOSENSE_EDGES_CSV to run",
)
def test_criterion_10_real_data_reproduction():
    from velosense.network import load_network

    with open(REAL_NODES, encoding="utf-8", newline="") as nf, open(
        REAL_EDGES, encoding="utf-8", newline=""
    ) as ef:
        net = load_network(nf, ef)
    with open(REAL_TRIPS, encoding="utf-8", newline="") as tf:
        raw, _report = parse_raw_trips(tf)
    log = clean_trips(raw, net)
    fleet = initial_bike_counts(log)

    stands_ok = log.num_stands == 646
    fleet_ok = abs(fleet.num_bikes - 6259) / 6259 <= 0.05

    matrix = estimate_probabilities(log, fleet, runs=20, seed=10)
    inst = build_instance(matrix, net, fleet, budget=100)
    plan = solve_greedy(inst)
    equipped = equipped_set(fleet, plan.n)
    phis = [
        score(net, log, simulate(log, fleet, SimConfig(seed=100 + rep, beta=1.0, equipped=equipped)),
              equipped, 16.0)
        for rep in range(5)
    ]
    phi100 = float(np.mean(phis))
    phi_ok = abs(phi100 - 70.0) <= 10.0

    spec = ExperimentSpec(
        source=FileSource(REAL_NODES, REAL_EDGES, REAL_TRIPS),
        budgets=[100],
        deltas=[1.0, 4.0, 8.0, 16.0],
        betas=[1.0],
        replications=5,
        seed=10,
    )
    targets = {1.0: 800, 4.0: 121, 8.0: 54, 16.0: 41}
    rows = sensor_requirement(spec, target_phi_pct=50.0)
    budget_ok = all(
        r.budget is not None and abs(r.budget - targets[r.delta_h]) / targets[r.delta_h] <= 0.25
        for r in rows
    )
    ok = stands_ok and fleet_ok and phi_ok and budget_ok
    assert report(
        10,
        ok,
        f"stands={log.num_stands} (646), fleet={fleet.num_bikes} (6259 +- 5%), "
        f"phi(100, 16h)={phi100:.1f} (70 +- 10), budgets={[(r.delta_h, r.budget) for r in rows]}",
    )
