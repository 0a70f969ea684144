"""Print every benchmark metric by name and unit, for each workload.

    python3 perfbench/report.py [--json FILE]

Runs perfbench/run.py once per seed in SEEDS untraced, for BENCHMARK.json's
run_seconds and in a fresh process each time, and once traced on the first
seed. The HOLDOUT seed, kept out of the seeds a change is tuned on, is run
once untraced so later claims can be checked on inputs nobody tuned against.
For each end-to-end metric it prints the median over the seeds with its
quartiles and spread (quartile distance over median); then the error rate of
the checks, and every per-layer metric of the traced run. --json also writes the summary, with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from run import THREAD_VARS  # noqa: E402  (importing run fixes the thread settings)
from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(10))
HOLDOUT = 10


def run_seconds() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def report(workload: str, seconds: int) -> dict:
    runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
    traced = run_once(workload, SEEDS[0], seconds, 1)
    held = run_once(workload, HOLDOUT, seconds, 0)
    everything = runs + [traced, held]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    end_to_end = {
        name: {"unit": m["unit"], **spread([r["metrics"][name]["value"] for r in runs])}
        for name, m in runs[0]["metrics"].items()
    }
    print(f"== {workload} (seeds {SEEDS[0]}..{SEEDS[-1]}, {seconds} s per run)")
    for name, m in end_to_end.items():
        print(
            f"{name:42s} {m['median']:12.4f} {m['unit']:6s}"
            f" q1 {m['q1']:.4f} q3 {m['q3']:.4f} spread {m['spread']:.3f}"
        )
    for name, m in held["metrics"].items():
        print(f"{name:42s} {m['value']:12.4f} {m['unit']:6s} holdout seed {HOLDOUT}")
    print(f"{'error_rate':42s} {failed / attempted:12.4f} ratio  ({failed} of {attempted} checks failed)")
    print(f"-- traced, seed {SEEDS[0]}")
    for name, m in traced["metrics"].items():
        print(f"{name:42s} {m['value']:12.4f} {m['unit']}")
    return {
        "seeds": SEEDS,
        "end_to_end": end_to_end,
        "checks": {"attempted": attempted, "failed": failed, "error_rate": failed / attempted},
        "holdout": {
            "seed": HOLDOUT,
            "end_to_end": {name: m["value"] for name, m in held["metrics"].items()},
        },
        "traced_seed": SEEDS[0],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    seconds = run_seconds()
    summary = {
        "machine": machine(),
        "seconds": seconds,
        "workloads": {name: report(name, seconds) for name in WORKLOADS},
    }
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
