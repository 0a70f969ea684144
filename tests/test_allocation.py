import hashlib
import io
import json
import tempfile
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from velosense.allocation import (
    build_instance,
    evaluate_allocation,
    export_lp,
    greedy_order,
    load_plan,
    random_allocation,
    save_plan,
    solve_exact,
    solve_greedy,
)
from velosense.coverage_model import estimate_probabilities
from velosense.errors import MalformedInputError
from velosense.fleet_sim import initial_bike_counts
from velosense.synth import SynthConfig, generate
from velosense.trips import clean_trips

from alloc_problems import make_problem, random_problem
from lp_parser import parse_lp
from oracles import (
    SparseAllocation,
    best_allocation_objective,
    column_dict,
    evaluate_sparse,
    greedy_order_full_width,
    solve_exact_sparse,
    solve_greedy_sparse,
)


def _written(plan, inst):
    """(N_e, y) of plan.n as save_plan writes them to alloc.json: N_e holds the
    candidates with nonzero coverage, y every candidate."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "alloc.json"
        save_plan(plan, inst, path, "ab" * 32)
        doc = json.loads(path.read_text())
    covered = set(doc["covered_segments"])
    return {int(seg): val for seg, val in doc["N_e"].items()}, {seg: seg in covered for seg in inst.candidates}


TWO_BY_TWO = dict(
    p_entries={(0, 0): 1.0, (1, 1): 1.0},
    lengths=[100.0, 50.0],
    caps=[1, 1],
    budget=1,
)


class TestBuildInstance:
    def test_big_m_is_threshold_plus_max_reach(self):
        inst, _ = make_problem({(0, 0): 0.5}, [120.0], [4], budget=2)
        assert inst.big_M == 3.0  # 1 + 0.5 * 4

    def test_zero_probability_segments_excluded(self):
        inst, _ = make_problem({(0, 0): 0.4}, [100.0, 200.0, 300.0], [2], budget=1)
        assert inst.candidates == [0]

    def test_all_zero_matrix_has_no_candidates(self):
        inst, _ = make_problem({}, [100.0], [2], budget=1)
        assert inst.candidates == []
        assert solve_exact(inst).objective_m == 0.0
        assert solve_greedy(inst).objective_m == 0.0

    def test_budget_clamped_with_warning(self):
        inst, _ = make_problem({(0, 0): 0.5}, [100.0], [2], budget=9)
        assert inst.budget == 2
        assert any("clamped" in w for w in inst.warnings)

    def test_budget_clamped_to_zero_when_no_capacity(self):
        inst, _ = make_problem({(0, 0): 0.5}, [100.0], [0, 0], budget=3)
        assert inst.budget == 0
        assert solve_exact(inst).objective_m == 0.0
        assert solve_greedy(inst).objective_m == 0.0
        assert random_allocation(inst, seed=1).objective_m == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_problem({(0, 0): 0.5}, [100.0], [2], budget=0)
        for K in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="K must be a finite number > 0"):
                make_problem({(0, 0): 0.5}, [100.0], [2], budget=1, K=K)

    def test_default_threshold_is_one(self):
        import inspect

        assert inspect.signature(build_instance).parameters["K"].default == 1.0


class TestEvaluateAllocation:
    def test_plan_invariants(self):
        inst, dense = make_problem(
            {(0, 0): 0.6, (0, 1): 0.3, (1, 1): 0.8}, [100.0, 70.0], [2, 3], budget=4
        )
        plan = evaluate_allocation(inst, [2, 2], "exact")
        assert sum(plan.n) <= inst.budget
        assert all(0 <= plan.n[s] <= inst.caps[s] for s in range(2))
        N_e, y = _written(plan, inst)
        for seg in inst.candidates:
            expected = sum(dense[s][seg] * plan.n[s] for s in range(2))
            assert N_e.get(seg, 0.0) == pytest.approx(expected)
            assert y[seg] == (expected >= inst.K - 1e-9)
        assert plan.objective_m == sum([100.0, 70.0][seg] for seg, covered in y.items() if covered)

    def test_rejects_bad_vectors(self):
        inst, _ = make_problem({(0, 0): 0.5}, [100.0], [2], budget=1)
        with pytest.raises(MalformedInputError):
            evaluate_allocation(inst, [3], "exact")
        with pytest.raises(MalformedInputError):
            evaluate_allocation(inst, [1, 1], "exact")


class TestSolveExact:
    def test_two_by_two_picks_longer_segment(self):
        inst, dense = make_problem(**TWO_BY_TWO)
        oracle = best_allocation_objective(dense, [100.0, 50.0], [1, 1], 1, 1.0)
        plan = solve_exact(inst)
        assert plan.objective_m == oracle == 100.0
        assert plan.n == [1, 0]
        assert plan.gap == 0.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            inst, dense, lengths, caps, budget = random_problem(rng)
            expected = best_allocation_objective(dense, lengths, caps, inst.budget, inst.K)
            assert solve_exact(inst).objective_m == expected

    def test_objective_monotone_in_budget(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst, dense, lengths, caps, _budget = random_problem(rng)
            objectives = []
            for budget in range(1, 6):
                nested, _ = make_problem(
                    {k: v for k, v in _dense_to_entries(dense).items()},
                    lengths,
                    caps,
                    budget,
                )
                objectives.append(solve_exact(nested).objective_m)
            assert objectives == sorted(objectives)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inst, dense, lengths, caps, budget = random_problem(rng)
            base = solve_exact(inst)
            scaled_inst, _ = make_problem(
                _dense_to_entries(dense), [4.0 * l for l in lengths], caps, budget
            )
            scaled = solve_exact(scaled_inst)
            assert scaled.objective_m == 4.0 * base.objective_m
            assert scaled.n == base.n
            assert _written(scaled, scaled_inst) == _written(base, inst)

    def test_y_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst, dense, lengths, caps, _budget = random_problem(rng)
            plan = solve_exact(inst)
            N_e, y = _written(plan, inst)
            assert y == {seg: N_e.get(seg, 0.0) >= inst.K - 1e-9 for seg in inst.candidates}
            ref = SparseAllocation(_dense_to_entries(dense), lengths, caps, inst.budget)
            assert (N_e, y) == evaluate_sparse(ref, plan.n)[2:4]

    def test_timeout_returns_feasible_plan_with_gap(self):
        entries = {(s, e): 0.21 for s in range(10) for e in range(8)}
        inst, _ = make_problem(entries, [100.0] * 8, [3] * 10, budget=12)
        plan = solve_exact(inst, time_limit_s=0.0)
        assert sum(plan.n) <= inst.budget
        assert plan.gap > 0.0

    @pytest.mark.parametrize("limit", [float("nan"), -1.0, -float("inf")])
    def test_time_limit_below_zero_or_nan_rejected(self, limit):
        inst, _ = make_problem({(0, 0): 1.0}, [100.0], [1], budget=1)
        with pytest.raises(ValueError, match=f"time limit must be a number of seconds >= 0, got {limit}"):
            solve_exact(inst, time_limit_s=limit)

    def test_infinite_time_limit_is_no_limit(self):
        inst, _ = make_problem({(0, 0): 1.0}, [100.0], [1], budget=1)
        plan = solve_exact(inst, time_limit_s=float("inf"))
        assert plan.n == [1] and plan.gap == 0.0


def _dense_to_entries(dense):
    return {
        (s, e): dense[s][e]
        for s in range(len(dense))
        for e in range(len(dense[0]))
        if dense[s][e] > 0
    }


class TestSolveGreedy:
    def test_single_stand_gets_capped_budget(self):
        inst, _ = make_problem({(0, 0): 0.5}, [100.0], [3], budget=5)
        plan = solve_greedy(inst)
        assert plan.n == [3]

    def test_two_by_two_matches_exact(self):
        inst, _ = make_problem(**TWO_BY_TWO)
        plan = solve_greedy(inst)
        assert plan.objective_m == 100.0
        assert plan.n == [1, 0]

    def test_never_beats_exact_and_stays_close(self):
        rng = np.random.default_rng(77)
        ratios = []
        for _ in range(40):
            inst, dense, lengths, caps, _budget = random_problem(rng)
            exact = solve_exact(inst).objective_m
            greedy = solve_greedy(inst).objective_m
            assert greedy <= exact + 1e-9
            if exact > 0:
                ratios.append(greedy / exact)
                assert greedy >= 0.5 * exact
        assert ratios, "corpus produced no instance with positive optimum"

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        inst, *_ = random_problem(rng)
        assert solve_greedy(inst).n == solve_greedy(inst).n

    def test_local_search_repairs_greedy_choice(self):
        # one sensor at stand 0 covers nothing alone; both sensors must pair
        # up at stand 1 to cross the threshold on the long segment
        entries = {(0, 0): 0.55, (1, 1): 0.5}
        inst, _ = make_problem(entries, [60.0, 100.0], [1, 2], budget=2)
        plan = solve_greedy(inst)
        exact = solve_exact(inst)
        assert plan.objective_m == exact.objective_m == 100.0

    def test_rounds_add_lengths_left_to_right(self):
        # stand 0 alone covers 9 segments, stand 1 one segment as long as their
        # left-to-right sum, so both tie on newly covered length and on progress
        # and the lower index wins; numpy's pairwise ndarray.sum adds the same
        # 9 lengths to a smaller float, which would hand the round to stand 1
        lengths = [0.12, 0.78, 0.58, 0.4, 0.81, 0.37, 0.51, 0.22, 0.46]
        total = list(accumulate(lengths))[-1]
        assert np.sum(lengths + [0.0]) < total
        entries = {**{(0, e): 1.0 for e in range(9)}, (1, 9): 1.0}
        inst, _ = make_problem(entries, lengths + [total], [1, 1], budget=1)
        assert greedy_order(inst) == [0]

    def test_order_for_a_smaller_budget_is_rejected(self):
        inst, _ = make_problem({(0, 0): 0.5, (1, 0): 0.3}, [100.0], [3, 3], budget=5)
        short = greedy_order(replace(inst, budget=3))
        assert len(short) == 3
        with pytest.raises(ValueError, match="3 picks for budget 5"):
            solve_greedy(inst, short)

    @pytest.mark.parametrize("entry", [-1, 2, 0.0, "0", None, True])
    def test_order_entry_that_is_not_a_stand_is_rejected(self, entry):
        inst, _ = make_problem({(0, 0): 0.5, (1, 0): 0.3}, [100.0], [3, 3], budget=2)
        with pytest.raises(ValueError, match="not a stand index"):
            solve_greedy(inst, [0, entry])

    def test_rounds_past_full_coverage_fill_open_stands_in_id_order(self):
        # stand 2 covers the one candidate in the first round; from then on
        # every open stand ties at 0.0 newly and 0.0 progress, so the smallest
        # open id takes each round, down to stand 3, which reaches no candidate
        inst, _ = make_problem({(0, 0): 0.5, (2, 0): 1.0}, [100.0], [2, 0, 3, 1], budget=6)
        order = greedy_order(inst)
        assert order == [2, 0, 0, 2, 2, 3]
        assert order == greedy_order_full_width(inst.P, inst.lengths, inst.caps, inst.budget, inst.K)
        assert greedy_order(replace(inst, budget=4)) == order[:4]
        assert solve_greedy(inst).n == inst.caps

    def test_order_that_filled_every_stand_is_valid(self):
        inst, _ = make_problem({(0, 0): 0.5, (1, 0): 0.3}, [100.0], [2, 1], budget=3)
        order = greedy_order(inst)
        assert sorted(order) == [0, 0, 1]
        plan = solve_greedy(replace(inst, budget=5), order)
        assert plan.n == [2, 1]


def _fields(plan, inst):
    """(n, objective_m, N_e, y, gap) of a plan, N_e and y as alloc.json records them."""
    return (plan.n, plan.objective_m, *_written(plan, inst), plan.gap)


class TestSparseOracle:
    """The dense solvers equal the dict-based references exactly: n, objective,
    N_e, y and gap, with no tolerance, because both add in the same order,
    candidates ascending."""

    def test_random_problems(self):
        rng = np.random.default_rng(4004)
        for _ in range(250):
            inst, dense, lengths, caps, _budget = random_problem(rng)
            ref = SparseAllocation(_dense_to_entries(dense), lengths, caps, inst.budget)
            assert _fields(solve_exact(inst), inst) == solve_exact_sparse(ref)
            assert _fields(solve_greedy(inst), inst) == solve_greedy_sparse(ref)
            n = random_allocation(inst, seed=int(rng.integers(0, 1000))).n
            assert _fields(evaluate_allocation(inst, n, "random"), inst) == evaluate_sparse(ref, n)

    def test_greedy_on_larger_instances_with_fractional_lengths(self):
        rng = np.random.default_rng(4005)
        for _ in range(20):
            entries, lengths, caps = _larger_problem(rng)
            inst, _ = make_problem(entries, lengths, caps, budget=int(rng.integers(1, 20)))
            ref = SparseAllocation(entries, lengths, caps, inst.budget)
            assert _fields(solve_greedy(inst), inst) == solve_greedy_sparse(ref)

    def test_greedy_float_tie(self, float_tie):
        inst, entries, lengths, caps = float_tie
        ref = SparseAllocation(entries, lengths, caps, inst.budget)
        assert _fields(solve_greedy(inst), inst) == solve_greedy_sparse(ref)


def _larger_problem(rng):
    """(entries, lengths, caps): 5-15 stands, 10-39 segments of fractional
    length, p on about 30 % of (stand, segment) pairs."""
    S, E = int(rng.integers(5, 16)), int(rng.integers(10, 40))
    caps = [int(rng.integers(0, 5)) for _ in range(S)]
    lengths = [float(rng.uniform(50.0, 400.0)) for _ in range(E)]
    entries = {
        (s, e): float(rng.uniform(0.02, 0.9))
        for s in range(S)
        for e in range(E)
        if rng.random() < 0.3
    }
    return entries, lengths, caps


def _dense_problem(rng):
    """(entries, lengths, caps): 150 stands with caps of 0 to 2, 40 segments,
    p on about 85 % of (stand, segment) pairs. Each segment scales its p, so
    the greedy covers segments a few at a time rather than all at once."""
    S, E = 150, 40
    caps = [int(c) for c in rng.choice([0, 1, 1, 1, 2], S)]
    lengths = [float(rng.uniform(50.0, 400.0)) for _ in range(E)]
    scale = rng.uniform(0.2, 3.0, E)
    entries = {
        (s, e): float(rng.uniform(0.0, 0.1) * scale[e])
        for s in range(S)
        for e in range(E)
        if rng.random() < 0.85
    }
    return entries, lengths, caps


@pytest.fixture(scope="module")
def float_tie():
    """(inst, entries, lengths, caps) of instance 2 of the benchmark's
    requirement workload at budget 14: two stands make equal progress up to
    the last bit, so a sum in another order breaks the tie the other way."""
    cfg = SynthConfig(grid_w=12, grid_h=12, block_m=200.0, stand_count=24, trips=2500, seed=2)
    net, raw = generate(cfg)
    log = clean_trips(raw, net)
    fleet = initial_bike_counts(log)
    matrix = estimate_probabilities(log, fleet, runs=4, seed=2)
    inst = build_instance(matrix, net, fleet, 14)
    return inst, column_dict(matrix.stand, matrix.segment, matrix.p), net.seg_length_m, fleet.b


def _check_shared_order(inst, entries, lengths, caps, budgets):
    """One greedy_order at the largest budget serves every budget: each
    budget's plan from it equals a fresh solve and the sparse reference, and
    each budget's own order is its prefix."""
    top = replace(inst, budget=max(budgets))
    order = greedy_order(top)
    assert order == greedy_order_full_width(
        top.P, top.lengths, top.caps, top.budget, top.K
    )
    for budget in budgets:
        at = replace(inst, budget=budget)
        assert greedy_order(at) == order[:budget]
        fresh = _fields(solve_greedy(at), at)
        assert _fields(solve_greedy(at, order), at) == fresh
        assert fresh == solve_greedy_sparse(SparseAllocation(entries, lengths, caps, budget))


class TestSharedGreedyOrder:
    def test_random_problems_every_budget(self):
        rng = np.random.default_rng(4006)
        checked = 0
        for _ in range(150):
            inst, dense, lengths, caps, _budget = random_problem(rng)
            if sum(caps):
                _check_shared_order(
                    inst, _dense_to_entries(dense), lengths, caps, range(1, sum(caps) + 1)
                )
                checked += 1
        assert checked > 100

    def test_larger_instances_every_budget(self):
        rng = np.random.default_rng(4007)
        for _ in range(20):
            entries, lengths, caps = _larger_problem(rng)
            if sum(caps):
                inst, _ = make_problem(entries, lengths, caps, budget=1)
                _check_shared_order(inst, entries, lengths, caps, range(1, sum(caps) + 1))

    def test_near_ties_every_budget(self):
        # a few decimal p values on segments of two lengths: sums tie or
        # differ in the last bit, and some candidates reach K exactly, so a
        # sum in another order or a covered column left in changes the order
        rng = np.random.default_rng(4008)
        for _ in range(150):
            S, E = int(rng.integers(2, 5)), int(rng.integers(9, 20))
            density = rng.choice([0.4, 0.8])
            entries = {
                (s, e): float(rng.choice([0.1, 0.2, 0.3, 0.7]))
                for s in range(S)
                for e in range(E)
                if rng.random() < density
            }
            lengths = [float(rng.choice([0.1, 0.2, 1.0])) for _ in range(E)]
            caps = [3] * S
            inst, _ = make_problem(entries, lengths, caps, budget=1)
            _check_shared_order(inst, entries, lengths, caps, range(1, sum(caps) + 1))

    def test_fixture_stride_of_budgets(self, small_scenario, small_fleet):
        net, log = small_scenario
        matrix = estimate_probabilities(log, small_fleet, runs=2, seed=0)
        total = sum(small_fleet.b)
        inst = build_instance(matrix, net, small_fleet, total)
        budgets = sorted({*range(1, total + 1, 3), total})
        entries = column_dict(matrix.stand, matrix.segment, matrix.p)
        _check_shared_order(inst, entries, net.seg_length_m, small_fleet.b, budgets)

    def test_float_tie_instance(self, float_tie):
        inst, entries, lengths, caps = float_tie
        total = sum(caps)
        budgets = sorted({*range(1, total + 1, 25), inst.budget, total})
        _check_shared_order(inst, entries, lengths, caps, budgets)

    def test_dense_instance_stride_of_budgets(self):
        entries, lengths, caps = _dense_problem(np.random.default_rng(4009))
        assert len(entries) >= 0.8 * len(caps) * len(lengths)
        inst, _ = make_problem(entries, lengths, caps, budget=1)
        total = sum(caps)
        _check_shared_order(inst, entries, lengths, caps, sorted({*range(1, total + 1, 4), total}))


class TestRandomAllocation:
    def test_single_stand_identical_to_greedy(self):
        inst, _ = make_problem({(0, 0): 0.5}, [100.0], [3], budget=5)
        assert random_allocation(inst, seed=1).n == solve_greedy(inst).n

    def test_seed_reproducible(self):
        rng = np.random.default_rng(5)
        inst, *_ = random_problem(rng)
        assert random_allocation(inst, seed=9).n == random_allocation(inst, seed=9).n

    def test_respects_caps_and_budget(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst, *_ = random_problem(rng)
            plan = random_allocation(inst, seed=int(rng.integers(0, 1000)))
            assert sum(plan.n) <= inst.budget
            assert all(0 <= plan.n[s] <= inst.caps[s] for s in range(inst.num_stands))

    def test_mean_objective_at_most_greedy(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            inst, *_ = random_problem(rng)
            greedy = solve_greedy(inst).objective_m
            mean = np.mean(
                [random_allocation(inst, seed=s).objective_m for s in range(200)]
            )
            assert mean <= greedy + 1e-9


class TestExportLP:
    def test_structure_of_minimal_instance(self):
        inst, _ = make_problem({(0, 0): 0.5}, [100.0], [4], budget=2)
        sink = io.BytesIO()
        export_lp(inst, sink)
        parsed = parse_lp(sink.getvalue().decode())
        assert parsed.generals == {"n_s0"}
        assert parsed.binaries == {"y_e0"}
        names = [name for name, *_ in parsed.constraints]
        assert names == ["cov_lb_e0", "cov_ub_e0", "budget"]
        assert parsed.bounds["n_s0"] == (0.0, 4.0)

    def test_round_trip_recovers_coefficients(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            inst, dense, lengths, _caps, _budget = random_problem(rng)
            sink = io.BytesIO()
            export_lp(inst, sink)
            parsed = parse_lp(sink.getvalue().decode())
            for seg in inst.candidates:
                lb = next(c for c in parsed.constraints if c[0] == f"cov_lb_e{seg}")
                ub = next(c for c in parsed.constraints if c[0] == f"cov_ub_e{seg}")
                for name, coefs, sense, rhs in (lb, ub):
                    assert coefs.pop(f"y_e{seg}") == -inst.big_M
                    assert coefs == {
                        f"n_s{s}": dense[s][seg] for s in range(inst.num_stands) if dense[s][seg] > 0
                    }
                assert lb[2] == ">=" and lb[3] == inst.K - inst.big_M
                assert ub[2] == "<=" and ub[3] == inst.K
            budget_row = next(c for c in parsed.constraints if c[0] == "budget")
            assert budget_row[1] == {f"n_s{s}": 1.0 for s in range(inst.num_stands)}
            assert budget_row[3] == inst.budget
            assert parsed.objective == {
                f"y_e{seg}": lengths[seg] for seg in inst.candidates
            }

    def test_external_solver_agrees_with_exact(self):
        pytest.importorskip("scipy")
        from lp_parser import solve_with_highs

        inst, _ = make_problem(**TWO_BY_TWO)
        sink = io.BytesIO()
        export_lp(inst, sink)
        objective, values = solve_with_highs(parse_lp(sink.getvalue().decode()))
        assert objective == pytest.approx(100.0, rel=1e-6)
        assert values["n_s0"] == pytest.approx(1.0)


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        entries = {(0, 0): 0.6, (1, 1): 0.8}
        inst, _ = make_problem(entries, [100.0, 70.0], [2, 3], budget=4)
        plan = solve_exact(inst)
        path = tmp_path / "alloc.json"
        save_plan(plan, inst, path, "ab" * 32)
        assert load_plan(path) == replace(plan, triplog_sha256="ab" * 32)
        doc = json.loads(path.read_text())
        _n, _objective, N_e, y, _gap = evaluate_sparse(SparseAllocation(entries, [100.0, 70.0], [2, 3], 4), plan.n)
        assert doc["N_e"] == {str(seg): val for seg, val in N_e.items()}
        assert doc["covered_segments"] == [seg for seg, covered in y.items() if covered]


class TestGolden:
    """alloc.json and model.lp are pinned byte for byte on one small synth
    chain (the 8x8, 8-stand scenario, p from 3 replays): the solvers and the
    exporter may change how they work, not what they write."""

    @pytest.fixture(scope="class")
    def instance_at(self, small_scenario, small_fleet):
        net, log = small_scenario
        matrix = estimate_probabilities(log, small_fleet, runs=3, seed=0)
        return lambda budget: build_instance(matrix, net, small_fleet, budget)

    @pytest.mark.parametrize(
        "solve, budget, digest",
        [
            (solve_greedy, 5, "1c8a9e4c6e0822e9effd5cbf686355de785e57e3268ee21d35b78aa6efab29e6"),
            (solve_exact, 5, "8b8406121b32e3cfd3511dad5ae3b7a7929b6e22444c36a17b4e5a61836b5c15"),
            (lambda inst: random_allocation(inst, seed=7), 5,
             "ea134792f3c73bbf554c8b7fa1e87d3f12f22a27a8f8ff20ed2f0e1a3afdf59c"),
            (solve_greedy, 1000, "1332334f00c45ea2d77107b454767882fddb246f526d3e7d62d70a33d4731d76"),
        ],
        ids=["greedy", "exact", "random", "greedy-clamped"],
    )
    def test_alloc_json(self, instance_at, tmp_path, solve, budget, digest):
        inst = instance_at(budget)
        assert inst.budget == min(budget, 49)  # the fleet has 49 bikes
        save_plan(solve(inst), inst, tmp_path / "alloc.json", "ab" * 32)
        assert hashlib.sha256((tmp_path / "alloc.json").read_bytes()).hexdigest() == digest

    def test_model_lp(self, instance_at):
        sink = io.BytesIO()
        export_lp(instance_at(5), sink)
        assert hashlib.sha256(sink.getvalue()).hexdigest() == (
            "b83a60daf8c9e4baf52a5d4a2557c52f4fc9a38e5f8720dd7660f1f151ff8ce3"
        )
