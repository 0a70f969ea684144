"""Tests of the benchmark itself: span arithmetic, rebinding, and checks."""

from __future__ import annotations

import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import (  # noqa: E402
    NullTracer,
    Patch,
    Span,
    Tracer,
    bindings,
    layer_metrics,
    public_functions,
    self_times,
)
from workloads import WORKLOADS, Checks, Taps  # noqa: E402

velosense = run.import_velosense()


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 6.0, 7.5, parent=2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.5, 1.5]


def test_clock_takes_out_the_probes_and_scales_by_their_mean():
    previous = signal.getsignal(signal.SIGALRM)
    with run.Clock() as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(clock.probes) >= 5
    assert clock.raw_s == pytest.approx(0.2 - clock.spent, abs=0.05)
    assert clock.reference_s == pytest.approx(
        clock.raw_s * run.PROBE_S / statistics.fmean(clock.probes)
    )
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_install_rebinds_every_import_site_and_uninstall_restores():
    functions = dict(public_functions(velosense))
    simulate = velosense.fleet_sim.simulate
    sites = {(mod.__name__, attr) for mod, attr in bindings(simulate)}
    assert {
        ("velosense", "simulate"),
        ("velosense.fleet_sim", "simulate"),
        ("velosense.coverage_model", "simulate"),
        ("velosense.harness", "simulate"),
    } <= sites

    tracer = Tracer()
    tracer.install(velosense)
    try:
        for name, func in functions.items():
            for mod, attr in bindings(func):
                assert getattr(mod, attr) is not func, f"{name} still bare at {mod.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for name, func in functions.items():
        for mod, attr in bindings(func):
            assert getattr(mod, attr) is func, f"{name} not restored at {mod.__name__}.{attr}"


def test_simulate_calls_equal_coverage_runs_plus_distinct_replays():
    harness = velosense.harness
    spec = harness.ExperimentSpec(
        source=velosense.SynthConfig(8, 8, 300.0, stand_count=8, trips=400, seed=11),
        budgets=[2, 4],
        deltas=[16, 4],
        betas=[0.5, 1.0],
        replications=2,
        coverage_runs=3,
    )
    tracer = Tracer()
    tracer.install(velosense)
    try:
        harness.run_pipeline(spec)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)

    unguided = spec.replications  # shared by every method and budget
    guided = len(spec.budgets) * len(spec.betas) * spec.replications
    assert metrics["fleet_sim.simulate.calls"] == spec.coverage_runs + unguided + guided
    assert metrics["allocation.solve_greedy.calls"] == len(spec.budgets)
    assert metrics["harness.prepare.s"] > 0
    # random and optimized ask for the unguided replay once per budget and rep;
    # only the first budget's requests need a simulate
    requests = len(spec.budgets) * spec.replications * (2 + len(spec.betas))
    assert metrics["harness.replay_reuse_ratio"] == pytest.approx(1 - (unguided + guided) / requests)


def test_checks_pass_on_correct_outputs_and_fail_on_a_perturbed_phi(tmp_path, monkeypatch):
    workload = WORKLOADS["sweep"]
    ref = run.load_references(workload.name)["0"]
    root = tmp_path / "in"
    workload.setup(velosense, 0, root)

    def failed_checks(out):
        checks = Checks()
        workload.fresh(out)
        with Patch() as patch:
            taps = Taps(velosense, patch)
            rcs = workload.job(velosense, 0, root, out, NullTracer())
            workload.check(velosense, 0, root, out, rcs, taps, ref, checks)
        assert checks.attempted > 0
        return checks.failed

    assert failed_checks(tmp_path / "clean") == 0

    phi = velosense.harness.Evaluator.phi
    monkeypatch.setattr(
        velosense.harness.Evaluator, "phi", lambda self, *args: phi(self, *args) + 5.0
    )
    assert failed_checks(tmp_path / "perturbed") > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
