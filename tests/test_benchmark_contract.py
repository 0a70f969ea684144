"""The fixed benchmark (perfbench/) keeps running against this package.

Its checks and traced probes read the results of simulate and
load_trajectories (per-bike views, trip views and their paths), so an API
change that breaks them shows up here as failed checks rather than only in a
benchmark run. Its probe of metrics.coverage_counts installs on no function:
the package has none by that name, since score and Evaluator.phi count
through event_cells and count_cells.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cli-chain", "sweep", "requirement"])
def test_traced_run_fails_no_check(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr
