"""The benchmark's workloads: synthetic inputs, one job each, and its checks.

Every input comes from ``velosense.synth`` under an instance seed and is
written to CSV during set-up, so each job starts from files the way a user
would. A job is one closed-loop request: it runs to completion before the
next one starts. Its outputs are checked outside the timed region against
references recorded at the seed commit (``references.json``).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

# Inputs repeat every POOL instance seeds, because correctness is checked
# against references recorded for exactly these. A run uses PER_RUN of them,
# so structural differences between instances average out inside a run.
POOL = 96
PER_RUN = 8

PHI_TARGET = 40.0
CLI_BUDGET = 40

SWEEP_SPEC = {
    "budgets": [10, 40, 160],
    "deltas": [16, 4, 1],
    "betas": [0.5, 1.0],
    "replications": 2,
    "coverage_runs": 4,
}
REQUIREMENT_SPEC = {
    "budgets": [1],  # unused by sensor_requirement, required by the config
    "deltas": [4, 1],
    "betas": [0.0],
    "replications": 3,
    "coverage_runs": 4,
}


def instance_seeds(seed: int) -> list[int]:
    return [(seed * PER_RUN + k) % POOL for k in range(PER_RUN)]


class Checks:
    """Counts checks attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def near(self, value: float, ref: list[float], what: str) -> bool:
        """value lies within ref = [reference, tolerance]."""
        return self.expect(
            abs(value - ref[0]) <= ref[1],
            f"{what}: {value!r} is not within {ref[1]:.3f} of reference {ref[0]!r}",
        )


class Taps:
    """Keeps results the checks need but no artifact holds.

    Records the prepared data of ``harness.prepare``, every greedy plan with
    its budget and capacities, and the first replay. The wrappers do no work
    besides storing references, so untraced timings are unaffected.
    """

    def __init__(self, velosense, patch):
        self.reset()
        patch.wrap_function(velosense.harness.prepare, self._tap("prepared"))
        patch.wrap_function(velosense.allocation.solve_greedy, self._tap_greedy)
        patch.wrap_function(velosense.fleet_sim.simulate, self._tap("replay"))

    def reset(self) -> None:
        self.prepared = None
        self.replay = None
        self.greedy: list[tuple[int, list[int], list[int]]] = []

    def _tap(self, slot):
        def make(inner):
            @functools.wraps(inner)
            def tapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                if getattr(self, slot) is None:
                    setattr(self, slot, result)
                return result

            return tapped

        return make

    def _tap_greedy(self, inner):
        @functools.wraps(inner)
        def tapped(inst, *args, **kwargs):
            plan = inner(inst, *args, **kwargs)
            self.greedy.append((inst.budget, list(inst.caps), list(plan.n)))
            return plan

        return tapped


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def path_hash(log) -> str:
    return _sha(";".join(f"{t.id}:{','.join(map(str, t.path.nodes))}" for t in log.trips))


def served_hash(trajectories) -> str:
    return _sha(";".join(f"{t.bike}:{','.join(t.served)}" for t in trajectories))


def check_log(checks: Checks, log, b: list[int], ref: dict) -> None:
    """Deterministic outputs must equal the reference exactly."""
    checks.expect(len(log.trips) == ref["trips"], f"{len(log.trips)} trips kept, expected {ref['trips']}")
    checks.expect([s.node for s in log.stands] == ref["stands"], "stand nodes differ")
    checks.expect(list(b) == ref["b"], "fleet b differs")
    checks.expect(path_hash(log) == ref["paths"], "routed paths differ")


def check_plan(checks: Checks, budget: int, caps: list[int], n: list[int]) -> None:
    checks.expect(
        sum(n) <= budget and all(0 <= x <= c for x, c in zip(n, caps)) and len(n) == len(caps),
        f"greedy n at budget {budget} breaks the budget or a cap",
    )


def check_phi(checks: Checks, phi: float, what: str) -> None:
    checks.expect(0.0 <= phi <= 100.0 and math.isfinite(phi), f"{what}: phi {phi!r} outside [0, 100]")


def quiet(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_inputs(velosense, cfg, root: Path) -> None:
    net, raw = velosense.synth.generate(cfg)
    velosense.synth.write_network_csv(net, root / "nodes.csv", root / "edges.csv")
    velosense.synth.write_trips_csv(raw, root / "trips.csv")


def artifact_mb(out: Path) -> float:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file()) / 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    block_m: float
    stands: int
    trips: int

    def synth_config(self, velosense, seed: int):
        return velosense.synth.SynthConfig(
            grid_w=self.grid,
            grid_h=self.grid,
            block_m=self.block_m,
            stand_count=self.stands,
            trips=self.trips,
            seed=seed,
        )

    def setup(self, velosense, seed: int, root: Path) -> None:
        """Synthesize the instance and write it as CSV (this is set-up time)."""
        root.mkdir(parents=True, exist_ok=True)
        _write_inputs(velosense, self.synth_config(velosense, seed), root)

    def job(self, velosense, seed: int, root: Path, out: Path, tracer) -> list[int]:
        """Run one request; returns the exit code of each CLI call made."""
        raise NotImplementedError

    def check(self, velosense, seed, root, out, rcs, taps, ref, checks) -> dict:
        """Check the job's outputs; returns its result fingerprint."""
        raise NotImplementedError

    @staticmethod
    def fresh(out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)


class CliChain(Workload):
    def steps(self, seed: int, root: Path, out: Path) -> list[list[str]]:
        net = [f"--nodes={root / 'nodes.csv'}", f"--edges={root / 'edges.csv'}"]
        log = [f"--triplog={out / 'triplog.json'}"]
        probs = [f"--probs={out / 'probs.csv'}", f"--probs-meta={out / 'probs.meta.json'}"]
        common = [f"--out-dir={out}", f"--seed={seed}"]
        budget = ["--budget", str(CLI_BUDGET)]
        return [
            ["ingest", *net, f"--trips={root / 'trips.csv'}", *common],
            ["fleet", *log, *common],
            ["probs", *log, "--runs", "2", *common],
            ["allocate", *net, *log, *probs, *budget, *common],
            ["simulate", *log, f"--alloc={out / 'alloc.json'}", "--beta", "1", *common],
            ["score", f"--traj={out / 'traj.json'}", *log, *net, "--delta", "1", *common],
            ["export-lp", *net, *log, *probs, *budget, f"--out={out / 'model.lp'}", *common],
        ]

    def job(self, velosense, seed, root, out, tracer):
        rcs = []
        for argv in self.steps(seed, root, out):
            with tracer.span(f"cli.{argv[0]}"):
                rc = quiet(velosense.cli, argv)
            rcs.append(rc)
            if rc != 0:
                break
        return rcs

    def observe(self, velosense, out: Path) -> dict:
        log = velosense.trips.load_triplog(out / "triplog.json")
        with open(out / "fleet.json", encoding="utf-8") as fh:
            b = json.load(fh)["b"]
        with open(out / "score.json", encoding="utf-8") as fh:
            phi = json.load(fh)["phi_pct"]
        plan = velosense.allocation.load_plan(out / "alloc.json")
        trajectories, _meta = velosense.fleet_sim.load_trajectories(out / "traj.json")
        return {"log": log, "b": b, "phi": phi, "n": plan.n, "served": served_hash(trajectories)}

    def check(self, velosense, seed, root, out, rcs, taps, ref, checks):
        for i, argv in enumerate(self.steps(seed, root, out)):
            rc = rcs[i] if i < len(rcs) else None
            checks.expect(rc == 0, f"cli {argv[0]} returned {rc}")
        seen = self.observe(velosense, out)
        check_log(checks, seen["log"], seen["b"], ref)
        check_plan(checks, CLI_BUDGET, seen["b"], seen["n"])
        check_phi(checks, seen["phi"], "score")
        checks.near(seen["phi"], ref["phi"], "score phi")
        return {"greedy_n": {str(CLI_BUDGET): seen["n"]}, "phi": seen["phi"], "served": seen["served"]}


class Experiment(Workload):
    """``velosense experiment`` in process, with a files source."""

    mode = ""
    spec = {}

    def config(self, seed: int, root: Path, **overrides) -> dict:
        files = {name: str(root / f"{name}.csv") for name in ("nodes", "edges", "trips")}
        return {"source": {"files": files}, "seed": seed, **self.spec, **overrides}

    def setup(self, velosense, seed, root):
        super().setup(velosense, seed, root)
        with open(root / "config.json", "w", encoding="utf-8") as fh:
            json.dump(self.config(seed, root), fh)

    def argv(self, root: Path, out: Path, config: Path) -> list[str]:
        return ["experiment", "--mode", self.mode, f"--config={config}", f"--out-dir={out}"]

    def job(self, velosense, seed, root, out, tracer):
        with tracer.span("cli.experiment"):
            return [quiet(velosense.cli, self.argv(root, out, root / "config.json"))]

    def check_common(self, checks: Checks, rcs, taps, ref) -> dict:
        checks.expect(rcs == [0], f"cli experiment returned {rcs}")
        data = taps.prepared
        if checks.expect(data is not None, "harness.prepare never ran"):
            check_log(checks, data.log, data.fleet.b, ref)
        for budget, caps, n in taps.greedy:
            check_plan(checks, budget, caps, n)
        return {
            "greedy_n": {str(budget): n for budget, _caps, n in taps.greedy},
            "served": served_hash(taps.replay) if taps.replay is not None else None,
        }


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cell_key(row: dict) -> str:
    return "|".join(
        [row["method"], str(int(row["budget"])), repr(float(row["delta_h"])), repr(float(row["beta"]))]
    )


class Sweep(Experiment):
    mode = "pipeline"
    spec = SWEEP_SPEC

    def check(self, velosense, seed, root, out, rcs, taps, ref, checks):
        fingerprint = self.check_common(checks, rcs, taps, ref)
        for row in read_csv(out / "results.csv"):
            check_phi(checks, float(row["phi_pct"]), cell_key(row))
        cells = {}
        for row in read_csv(out / "summary.csv"):
            key = cell_key(row)
            cells[key] = float(row["mean_phi_pct"])
            if checks.expect(key in ref["cells"], f"unexpected cell {key}"):
                checks.near(cells[key], ref["cells"][key], key)
        checks.expect(len(cells) == len(ref["cells"]), f"{len(cells)} cells, expected {len(ref['cells'])}")
        return {**fingerprint, "phi": cells}


class Requirement(Experiment):
    mode = "sensor-requirement"
    spec = REQUIREMENT_SPEC

    def argv(self, root, out, config):
        return super().argv(root, out, config) + ["--target-phi", repr(PHI_TARGET)]

    def check(self, velosense, seed, root, out, rcs, taps, ref, checks):
        fingerprint = self.check_common(checks, rcs, taps, ref)
        rows = read_csv(out / "sensor_requirement.csv")
        fleet = sum(ref["b"])
        budgets, phis, monotone = {}, {}, {}
        for row in rows:
            delta = repr(float(row["delta_h"]))
            phis[delta] = float(row["achieved_phi_pct"])
            monotone[delta] = row["monotone_ok"] == "True"
            check_phi(checks, phis[delta], f"delta {delta}")
            if not checks.expect(row["budget"] != "", f"delta {delta}: target unattainable"):
                continue
            budgets[delta] = int(row["budget"])
            checks.expect(
                phis[delta] >= PHI_TARGET and budgets[delta] <= fleet,
                f"delta {delta}: budget {budgets[delta]} of {fleet} reaches only {phis[delta]!r}",
            )
            if checks.expect(delta in ref["budgets"], f"unexpected delta {delta}"):
                checks.near(budgets[delta], ref["budgets"][delta], f"delta {delta} budget")
        checks.expect(len(rows) == len(ref["budgets"]), f"{len(rows)} interval rows, expected {len(ref['budgets'])}")
        return {**fingerprint, "budget": budgets, "phi": phis, "monotone_ok": monotone}


# Sizes keep one job near two seconds on 2 CPUs, so a 40 s run passes over
# all PER_RUN instances at least once. Each workload loads other layers (see
# the "why" entries in BENCHMARK.json): cli-chain routing and artifact I/O,
# sweep replay and phi scoring, requirement greedy allocation.
WORKLOADS = {
    w.name: w
    for w in (
        CliChain(
            "cli-chain",
            grid=16,
            block_m=150.0,
            stands=30,
            trips=4000,
        ),
        Sweep(
            "sweep",
            grid=12,
            block_m=200.0,
            stands=20,
            trips=3000,
        ),
        Requirement(
            "requirement",
            grid=12,
            block_m=200.0,
            stands=24,
            trips=2500,
        ),
    )
}
