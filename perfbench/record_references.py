"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_references.py [--workload NAME ...]

Run from the root of a checkout whose outputs are known good; it rewrites
the named workloads' entries in perfbench/references.json for every instance
seed of the pool.

Deterministic outputs (trips kept, stand nodes, fleet b, routed paths) are
recorded exactly. Each phi and required budget is recorded with a tolerance:
wide enough for a legitimate change of the replay RNG protocol, which draws
other replays, and far narrower than a wrongly computed score.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, WORK, import_velosense
from spans import NullTracer, Patch
from workloads import POOL, WORKLOADS, Taps, quiet, cell_key, path_hash, read_csv

# A tolerance on phi spans Z standard deviations of the difference between
# the recorded value and an independent redraw, and never less than PHI_FLOOR
# percentage points. The standard deviation comes from REDRAWS reruns of the
# stochastic steps under other seeds, which is what a change of the RNG
# protocol amounts to: other replays, other visit probabilities, and so
# possibly another greedy allocation. The floor covers cells whose few draws
# happen to agree, since one segment moves phi by a fraction of a point.
Z = 5.0
PHI_FLOOR = 2.0
REDRAWS = 5
# Share of the budget, and least number of sensors, a required budget may move.
BUDGET_SHARE = 0.3
BUDGET_FLOOR = 3


def run_cli(velosense, argv: list[str]) -> None:
    rc = quiet(velosense.cli, argv)
    if rc != 0:
        raise RuntimeError(f"velosense {' '.join(argv)} exited {rc}")


def exact(log, b) -> dict:
    return {
        "trips": len(log.trips),
        "stands": [s.node for s in log.stands],
        "b": list(b),
        "paths": path_hash(log),
    }


def redraw_seeds(seed: int) -> list[int]:
    return [seed + 1000 * k for k in range(1, REDRAWS + 1)]


def phi_tolerance(draws: list[float]) -> list[float]:
    """[reference, tolerance] for the first of several draws of one phi."""
    return [draws[0], max(PHI_FLOOR, Z * statistics.stdev(draws) * math.sqrt(2.0))]


def record_cli_chain(velosense, wl, seed, root, out) -> dict:
    seen = wl.observe(velosense, out)
    draws = [seen["phi"]]
    for other in redraw_seeds(seed):
        redraw = out / f"redraw-{other}"
        redraw.mkdir()
        # ingest and fleet are deterministic; rerun the stochastic steps on their triplog
        shutil.copy(out / "triplog.json", redraw / "triplog.json")
        for argv in wl.steps(other, root, redraw)[2:6]:
            run_cli(velosense, argv)
        with open(redraw / "score.json", encoding="utf-8") as fh:
            draws.append(json.load(fh)["phi_pct"])
    return {**exact(seen["log"], seen["b"]), "phi": phi_tolerance(draws)}


def summary_means(out: Path) -> dict[str, float]:
    return {cell_key(row): float(row["mean_phi_pct"]) for row in read_csv(out / "summary.csv")}


def record_sweep(velosense, wl, seed, root, out, taps) -> dict:
    ref = exact(taps.prepared.log, taps.prepared.fleet.b)
    draws = {key: [mean] for key, mean in summary_means(out).items()}
    for other in redraw_seeds(seed):
        redraw = out / f"redraw-{other}"
        config = out / f"redraw-{other}.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(wl.config(other, root), fh)
        run_cli(velosense, wl.argv(root, redraw, config))
        for key, mean in summary_means(redraw).items():
            draws[key].append(mean)
    ref["cells"] = {key: phi_tolerance(values) for key, values in draws.items()}
    return ref


def record_requirement(velosense, wl, seed, root, out, taps) -> dict:
    ref = exact(taps.prepared.log, taps.prepared.fleet.b)
    ref["budgets"] = {}
    for row in read_csv(out / "sensor_requirement.csv"):
        budget = int(row["budget"])
        tolerance = max(BUDGET_FLOOR, math.ceil(BUDGET_SHARE * budget))
        ref["budgets"][repr(float(row["delta_h"]))] = [budget, tolerance]
    return ref


def record(velosense, wl, seed: int, work: Path) -> dict:
    root = work / f"in-{seed}"
    out = work / "out"
    wl.setup(velosense, seed, root)
    wl.fresh(out)
    with Patch() as patch:
        taps = Taps(velosense, patch)
        rcs = wl.job(velosense, seed, root, out, NullTracer())
        if any(rc != 0 for rc in rcs):
            raise RuntimeError(f"{wl.name} instance {seed}: exit codes {rcs}")
        if wl.name == "cli-chain":
            return record_cli_chain(velosense, wl, seed, root, out)
        if wl.name == "sweep":
            return record_sweep(velosense, wl, seed, root, out, taps)
        return record_requirement(velosense, wl, seed, root, out, taps)


def write_references(refs: dict) -> None:
    """One line per instance, so a re-recording diffs by instance."""
    blocks = []
    for name in sorted(refs):
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(ref, sort_keys=True)}"
            for seed, ref in sorted(refs[name].items(), key=lambda kv: int(kv[0]))
        )
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    velosense = import_velosense()
    refs = {}
    if REFERENCES.exists():
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK))
        try:
            refs[name] = {str(seed): record(velosense, wl, seed, work) for seed in range(POOL)}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        write_references(refs)
        print(f"recorded {name} for {POOL} instance seeds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
