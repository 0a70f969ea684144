import csv
from dataclasses import astuple

import numpy as np
import pytest
from oracles import requirement_by_interval

from velosense.errors import ConfigInfeasibleError, MalformedInputError
from velosense.harness import (
    ALL_METHODS,
    METHOD_ACTIVE,
    METHOD_OPTIMIZED,
    METHOD_RANDOM,
    ExperimentSpec,
    FileSource,
    RequirementRow,
    ResultRow,
    SummaryRow,
    beta_sweep,
    load_spec,
    run_pipeline,
    sensor_requirement,
    write_rows,
)
from velosense.synth import SynthConfig


def small_spec(**overrides):
    args = dict(
        source=SynthConfig(8, 8, 300.0, stand_count=8, trips=400, seed=11),
        budgets=[3],
        deltas=[16.0],
        betas=[1.0],
        replications=2,
        seed=5,
        coverage_runs=2,
    )
    args.update(overrides)
    return ExperimentSpec(**args)


def recorded_replays(monkeypatch) -> list:
    """The config of every simulate call, through both modules that replay."""
    import velosense.coverage_model as coverage_model
    import velosense.harness as harness

    configs = []
    simulate = harness.simulate

    def recording(log, fleet, cfg):
        configs.append(cfg)
        return simulate(log, fleet, cfg)

    monkeypatch.setattr(harness, "simulate", recording)
    monkeypatch.setattr(coverage_model, "simulate", recording)
    return configs


class TestSpecValidation:
    def test_empty_sweeps_rejected(self):
        with pytest.raises(ValueError):
            small_spec(budgets=[])
        with pytest.raises(ValueError):
            small_spec(deltas=[])
        with pytest.raises(ValueError):
            small_spec(replications=0)
        with pytest.raises(ValueError):
            small_spec(methods=("nonsense",))
        with pytest.raises(ValueError, match="methods must be non-empty"):
            small_spec(methods=())
        with pytest.raises(ValueError, match="methods must not repeat"):
            small_spec(methods=(METHOD_OPTIMIZED, METHOD_OPTIMIZED))

    def test_load_spec_round_trip(self):
        doc = {
            "source": {"synth": {"grid_w": 8, "grid_h": 8, "block_m": 300.0,
                                  "stand_count": 8, "trips": 400, "seed": 11}},
            "budgets": [3, 5],
            "deltas": [16.0, 4.0],
            "betas": [0.0, 1.0],
            "replications": 4,
            "seed": 9,
        }
        spec = load_spec(doc)
        assert isinstance(spec.source, SynthConfig)
        assert spec.budgets == [3, 5]
        assert spec.replications == 4

    def test_load_spec_files_source(self):
        doc = {
            "source": {"files": {"nodes": "n.csv", "edges": "e.csv", "trips": "t.csv"}},
            "budgets": [1],
            "deltas": [16.0],
        }
        spec = load_spec(doc)
        assert isinstance(spec.source, FileSource)

    def test_load_spec_errors(self):
        with pytest.raises(MalformedInputError):
            load_spec({"budgets": [1], "deltas": [1.0]})
        with pytest.raises(MalformedInputError):
            load_spec({"source": {"nothing": {}}, "budgets": [1], "deltas": [1.0]})
        with pytest.raises(MalformedInputError):
            load_spec({"source": {"synth": {"grid_w": 4}}, "budgets": [1], "deltas": [1.0]})


class TestRunPipeline:
    def test_single_cell_row(self):
        rows, summary = run_pipeline(small_spec(budgets=[1], methods=(METHOD_OPTIMIZED,), replications=1))
        assert len(rows) == 1
        row = rows[0]
        assert row.method == METHOD_OPTIMIZED
        assert row.budget == 1 and row.beta == 0.0 and row.rep == 0
        assert 0.0 <= row.phi_pct <= 100.0
        assert len(summary) == 1
        assert summary[0].mean_phi_pct == row.phi_pct

    def test_full_grid_of_rows(self):
        spec = small_spec(budgets=[2, 4], deltas=[16.0, 4.0], replications=2)
        rows, summary = run_pipeline(spec)
        # random & optimized run at beta 0 only; active runs once per beta
        assert len(rows) == 2 * 2 * 2 * 3
        assert len(summary) == 2 * 2 * 3
        for row in rows:
            assert 0.0 <= row.phi_pct <= 100.0
        methods = [r.method for r in rows]
        assert methods == sorted(methods, key=ALL_METHODS.index)

    def test_deterministic(self):
        spec = small_spec()
        assert run_pipeline(spec) == run_pipeline(small_spec())

    def test_noactive_methods_share_trajectories(self):
        # same equipped set => identical scores between the two cached paths
        spec = small_spec(budgets=[2], methods=(METHOD_OPTIMIZED, METHOD_ACTIVE), betas=[0.0])
        rows, _ = run_pipeline(spec)
        optimized = {(r.rep): r.phi_pct for r in rows if r.method == METHOD_OPTIMIZED}
        active0 = {(r.rep): r.phi_pct for r in rows if r.method == METHOD_ACTIVE}
        assert optimized == active0

    def test_instance_is_built_once_and_each_budget_solved_once(self, monkeypatch):
        import velosense.harness as harness

        # 500 exceeds the fleet, so its plans are the fleet's
        spec = small_spec(budgets=[2, 500, 4], deltas=[16.0, 4.0])
        built, ordered, solved, drawn = [], [], [], []
        build_instance, greedy_order = harness.build_instance, harness.greedy_order
        solve_greedy, random_allocation = harness.solve_greedy, harness.random_allocation

        def counting_build(*args, **kwargs):
            built.append(args[3])
            return build_instance(*args, **kwargs)

        def counting_order(inst):
            ordered.append(inst.budget)
            return greedy_order(inst)

        def recording_greedy(inst, *args, **kwargs):
            plan = solve_greedy(inst, *args, **kwargs)
            solved.append((inst.budget, plan.n))
            return plan

        def recording_random(inst, seed):
            drawn.append(inst.budget)
            return random_allocation(inst, seed)

        monkeypatch.setattr(harness, "build_instance", counting_build)
        monkeypatch.setattr(harness, "greedy_order", counting_order)
        monkeypatch.setattr(harness, "solve_greedy", recording_greedy)
        monkeypatch.setattr(harness, "random_allocation", recording_random)
        run_pipeline(spec)
        data = harness.prepare(spec)
        total = sum(data.fleet.b)
        assert total < 500
        assert built == [total]  # once, at the whole fleet
        assert ordered == [total]
        assert [budget for budget, _n in solved] == [2, total, 4]
        assert drawn == [2, 2, total, total, 4, 4]  # one draw per replication
        matrix = harness.estimate_probabilities(data.log, data.fleet, runs=spec.coverage_runs, seed=spec.seed)
        for (budget, n), asked in zip(solved, spec.budgets):
            assert solve_greedy(build_instance(matrix, data.net, data.fleet, asked)).n == n

    def test_replays_are_coverage_runs_unguided_reps_and_each_guided_cell(self, monkeypatch):
        configs = recorded_replays(monkeypatch)
        spec = small_spec(budgets=[2, 4], betas=[0.5, 1.0])
        run_pipeline(spec)
        budgets, betas = len(spec.budgets), len(spec.betas)
        assert len(configs) == spec.coverage_runs + spec.replications + budgets * betas * spec.replications

    def test_greedy_rounds_run_once_at_the_whole_fleet(self, monkeypatch):
        import velosense.harness as harness

        ordered = []
        greedy_order = harness.greedy_order

        def counting_order(inst):
            ordered.append(inst.budget)
            return greedy_order(inst)

        monkeypatch.setattr(harness, "greedy_order", counting_order)
        spec = small_spec(budgets=[2, 4, 3])
        run_pipeline(spec)
        fleet_size = sum(harness.prepare(spec).fleet.b)
        assert fleet_size > 4
        assert ordered == [fleet_size]  # once, past the largest budget

    def test_random_only_sweep_runs_no_greedy(self, monkeypatch):
        import velosense.harness as harness

        def no_greedy(*args, **kwargs):
            raise AssertionError("greedy ran for a random-only sweep")

        monkeypatch.setattr(harness, "greedy_order", no_greedy)
        monkeypatch.setattr(harness, "solve_greedy", no_greedy)
        rows, _summary = run_pipeline(small_spec(budgets=[2, 4], methods=(METHOD_RANDOM,)))
        assert {r.method for r in rows} == {METHOD_RANDOM}

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
            run_pipeline(small_spec(budgets=[3, 0]))

    def test_infeasible_source_propagates(self):
        spec = small_spec(source=SynthConfig(2, 2, 100.0, stand_count=2, trips=3, seed=0))
        with pytest.raises(ConfigInfeasibleError):
            run_pipeline(spec)


class TestBetaSweep:
    def test_zero_beta_matches_optimized_noactive_bitwise(self):
        base = small_spec(methods=(METHOD_OPTIMIZED,))
        rows_opt, _ = run_pipeline(base)
        rows_sweep, _summary, gains = beta_sweep(small_spec(betas=[0.0, 1.0]))
        zero_rows = [r.phi_pct for r in rows_sweep if r.beta == 0.0]
        assert zero_rows == [r.phi_pct for r in rows_opt]
        assert len(gains) == 1
        assert gains[0].beta_from == 0.0 and gains[0].beta_to == 1.0

    def test_gains_computed_from_summary_means(self):
        rows, summary, gains = beta_sweep(small_spec(betas=[0.0, 0.5, 1.0]))
        means = {s.beta: s.mean_phi_pct for s in summary}
        by_step = {(g.beta_from, g.beta_to): g.gain_phi_pct for g in gains}
        assert by_step[(0.0, 0.5)] == pytest.approx(means[0.5] - means[0.0])
        assert by_step[(0.5, 1.0)] == pytest.approx(means[1.0] - means[0.5])


class TestSensorRequirement:
    def test_target_zero_needs_no_sensors(self):
        rows = sensor_requirement(small_spec(), target_phi_pct=0.0)
        assert rows[0].budget == 0
        assert rows[0].achieved_phi_pct == 0.0

    def test_unattainable_target_reported(self):
        rows = sensor_requirement(small_spec(), target_phi_pct=100.0)
        assert rows[0].budget is None
        assert rows[0].achieved_phi_pct < 100.0

    def test_matches_linear_scan(self):
        spec = small_spec(replications=2)
        target = 10.0
        rows = sensor_requirement(spec, target_phi_pct=target)
        found = rows[0].budget
        assert found is not None

        from velosense.allocation import build_instance, solve_greedy
        from velosense.coverage_model import estimate_probabilities
        from velosense.fleet_sim import equipped_set
        from velosense.harness import Evaluator

        ev = Evaluator(spec)
        data = ev.data
        matrix = estimate_probabilities(data.log, data.fleet, runs=spec.coverage_runs, seed=spec.seed)

        def mean_phi(budget):
            if budget == 0:
                return 0.0
            plan = solve_greedy(build_instance(matrix, data.net, data.fleet, budget))
            equipped = equipped_set(data.fleet, plan.n)
            return float(
                np.mean(
                    [
                        ev.phi(ev.trajectories(rep, spec.betas[0], equipped), equipped, 16.0)
                        for rep in range(spec.replications)
                    ]
                )
            )

        linear = next(b for b in range(sum(data.fleet.b) + 1) if mean_phi(b) >= target)
        assert found == linear

    def test_instance_is_built_once_and_plans_match_per_budget_instances(self, monkeypatch):
        import velosense.harness as harness

        spec = small_spec(deltas=[16.0, 4.0, 1.0])
        built, solved = [], []
        build_instance, solve_greedy = harness.build_instance, harness.solve_greedy

        def counting_build(*args, **kwargs):
            built.append(args[3])
            return build_instance(*args, **kwargs)

        def recording_greedy(inst, *args, **kwargs):
            plan = solve_greedy(inst, *args, **kwargs)
            solved.append((inst.budget, plan.n))
            return plan

        monkeypatch.setattr(harness, "build_instance", counting_build)
        monkeypatch.setattr(harness, "solve_greedy", recording_greedy)
        sensor_requirement(spec, target_phi_pct=10.0)
        data = harness.prepare(spec)
        assert built == [sum(data.fleet.b)]
        assert solved
        matrix = harness.estimate_probabilities(data.log, data.fleet, runs=spec.coverage_runs, seed=spec.seed)
        for budget, n in solved:
            assert solve_greedy(build_instance(matrix, data.net, data.fleet, budget)).n == n

    def test_each_budget_is_solved_once_across_intervals(self, monkeypatch):
        import velosense.harness as harness

        solved = []
        solve_greedy = harness.solve_greedy

        def counting_greedy(inst, *args, **kwargs):
            solved.append(inst.budget)
            return solve_greedy(inst, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_greedy", counting_greedy)
        rows = sensor_requirement(small_spec(deltas=[16.0, 4.0, 1.0]), target_phi_pct=10.0)
        assert [r.budget is not None for r in rows] == [True] * 3
        assert solved and len(solved) == len(set(solved))

    def test_unguided_search_replays_once_per_rep(self, monkeypatch):
        configs = recorded_replays(monkeypatch)
        spec = small_spec(betas=[0.0], deltas=[16.0, 4.0, 1.0])
        sensor_requirement(spec, target_phi_pct=10.0)
        assert len(configs) == spec.coverage_runs + spec.replications

    @pytest.mark.parametrize("beta", [0.0, 1.0], ids=["beta0", "beta1"])
    def test_search_replays_and_scores_each_probe_once(self, monkeypatch, beta):
        import velosense.harness as harness

        configs = recorded_replays(monkeypatch)
        events = []  # each replay asked for, then the scores taken from it
        trajectories, phi = harness.Evaluator.trajectories, harness.Evaluator.phi

        def recording_trajectories(self, rep, replay_beta, equipped):
            events.append(("replay", rep, equipped))
            return trajectories(self, rep, replay_beta, equipped)

        def recording_phi(self, trajs, equipped, delta_h):
            events.append(("score", delta_h, equipped))
            return phi(self, trajs, equipped, delta_h)

        monkeypatch.setattr(harness.Evaluator, "trajectories", recording_trajectories)
        monkeypatch.setattr(harness.Evaluator, "phi", recording_phi)
        spec = small_spec(betas=[beta], deltas=[16.0, 4.0, 1.0])
        target = 10.0
        sensor_requirement(spec, target_phi_pct=target)
        cells = []  # (interval, budget, rep) per score
        for kind, key, equipped in events:
            if kind == "replay":
                rep, replayed = key, equipped
            else:
                assert equipped == replayed
                cells.append((key, len(equipped), rep))  # a plan at budget <= fleet equips that many bikes
        assert len(cells) == len(set(cells))
        replays = configs[spec.coverage_runs:]

        _rows, scored = _oracle_search(spec, target)
        for delta_h in spec.deltas:
            assert sorted({budget for d, budget, _rep in cells if d == delta_h}) == scored[delta_h]
        assert len(cells) == spec.replications * sum(map(len, scored.values()))

        if beta == 0.0:
            assert len(replays) == spec.replications
        else:
            assert all(cfg.beta == beta for cfg in replays)
            assert len(replays) == len({(cfg.equipped, cfg.seed) for cfg in replays})
            assert len(replays) == len({(budget, rep) for _d, budget, rep in cells})
            assert len(replays) < len(cells)  # a replay serves several intervals

    @pytest.mark.parametrize("beta", [0.0, 1.0], ids=["beta0", "beta1"])
    @pytest.mark.parametrize(
        "target, case",
        [(10.0, "budget-one"), (32.8, "only-the-fleet"), (43.0, "some-unattainable")],
        ids=["budget-one", "only-the-fleet", "some-unattainable"],
    )
    def test_rows_equal_the_per_interval_search(self, beta, target, case):
        import velosense.harness as harness

        spec = small_spec(betas=[beta], deltas=[16.0, 4.0, 1.0])
        rows = sensor_requirement(spec, target_phi_pct=target)
        expected, _scored = _oracle_search(spec, target)
        assert [astuple(row) for row in rows] == expected
        budgets = [r.budget for r in rows]
        fleet_size = sum(harness.prepare(spec).fleet.b)
        if case == "budget-one":  # the search's last step is mid == 0, scored without a replay
            assert 1 in budgets
        elif case == "only-the-fleet":
            assert fleet_size in budgets and any(b is not None and b < fleet_size for b in budgets)
        else:
            assert None in budgets and any(b is not None for b in budgets)


def _oracle_search(spec, target):
    """The per-interval reference search, on the same plans and replays."""
    from velosense.harness import Evaluator

    ev = Evaluator(spec)
    beta = spec.betas[0]

    def mean_phi(budget, delta_h):
        equipped = ev.greedy(budget)
        phis = [
            ev.phi(ev.trajectories(rep, beta, equipped), equipped, delta_h)
            for rep in range(spec.replications)
        ]
        return float(np.mean(phis))

    return requirement_by_interval(spec.deltas, ev.inst.budget, target, mean_phi)


class TestWriters:
    def test_results_header_contract(self, tmp_path):
        rows, summary = run_pipeline(small_spec(budgets=[1], methods=(METHOD_RANDOM,), replications=1))
        results = tmp_path / "results.csv"
        summary_path = tmp_path / "summary.csv"
        write_rows(results, ResultRow, rows)
        write_rows(summary_path, SummaryRow, summary)
        with open(results) as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["method", "budget", "delta_h", "beta", "rep", "phi_pct"]
            data = list(reader)
        assert len(data) == 1
        assert data[0][0] == METHOD_RANDOM
        with open(summary_path) as fh:
            assert fh.readline().strip() == "method,budget,delta_h,beta,mean_phi_pct,std_phi_pct,reps"

    def test_row_fields_written_as_csv_writes_them(self, tmp_path):
        path = tmp_path / "sensor_requirement.csv"
        write_rows(path, RequirementRow, [RequirementRow(4.0, 50.0, None, 0.1 + 0.2, False)])
        # a float as its repr, None as an empty field, CRLF line ends
        assert path.read_bytes() == (
            b"delta_h,target_phi_pct,budget,achieved_phi_pct,monotone_ok\r\n4.0,50.0,,0.30000000000000004,False\r\n"
        )
