"""Run one velosense benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout, in one process with no threads. Set-up
synthesizes PER_RUN instances from the seed and writes them as CSV; then a
closed loop with a single caller runs one job after another until the time
is up, checking each job's outputs outside the timed region.

--trace 0 reports the end-to-end metrics: the job wall time (each
instance's median, averaged over the instances, so that every instance
weighs the same however often it ran), the median set-up time of an
instance (set-up repeats after every job), the peak RSS of this fresh
process at the end of its first job (before the checks, which load
artifacts again), and the median bytes a job writes. The loop makes at
least one pass over the instances.

Both times are in reference seconds: seconds on a host as fast as the one
PROBE_S was measured on (see Clock). Raw medians go to stderr.

--trace 1 alternates untraced and traced jobs on the same instance and
reports the per-layer metrics of the traced ones, plus traced wall time and
tracing overhead (traced minus untraced wall time).

The last stdout line is the result: correct, attempted and failed checks,
and the metrics. The line before it holds the result fingerprints.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so a vectorised change cannot win by taking
# more cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS, NullTracer, Patch, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checks, Taps, artifact_mb, instance_seeds  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}

# On a shared host the same job runs up to 1.6 times slower for a few
# seconds at a time, in user CPU time as much as in wall time. So while a
# job or a set-up runs, a timer interrupts it every SAMPLE_EVERY_S to time
# probe(), a fixed loop that calls nothing of velosense. Its work is timed in
# reference seconds: its own time (the probes' taken out) scaled by PROBE_S
# over the mean probe time. A change to velosense moves that time as it
# moves the raw time; the host's slow spells cancel.
SAMPLE_EVERY_S = 0.02
# probe() took about this long on a 2-CPU KVM guest (Xeon, 2.1 GHz).
PROBE_S = 0.0003


def probe() -> None:
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i


class Clock:
    """Times the work in its with-block in raw and in reference seconds.

    Without probing (traced runs, whose spans the probes would stretch) it
    gives only the raw time.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe()
        taken = time.perf_counter() - start
        self.probes.append(taken)
        self.spent += taken

    def __enter__(self) -> "Clock":
        self.probes: list[float] = []
        self.spent = 0.0
        if self.probing:
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.probing:
            # a probe already due runs before the handler is put back
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)
        self.raw_s = time.perf_counter() - self.start - self.spent
        if self.probing:
            if not self.probes:  # work shorter than one interval
                self._sample()
            self.reference_s = self.raw_s * PROBE_S / statistics.fmean(self.probes)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_velosense():
    """The package under test, from the checkout's sources."""
    if not (SRC / "velosense" / "__init__.py").is_file():
        raise FileNotFoundError(f"velosense sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import velosense
    import velosense.cli  # not imported by the package itself

    return velosense


def load_references(workload: str) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def measure(velosense, workload, refs: dict, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, run the closed loop, check every job; returns (result, fingerprints)."""
    seeds = instance_seeds(seed)
    setup_s, raw_setup_s = [], []

    def setup(s: int) -> None:
        with Clock() as clock:
            workload.setup(velosense, s, work / f"in-{s}")
        setup_s.append(clock.reference_s)
        raw_setup_s.append(clock.raw_s)

    checks = Checks()
    tracer = Tracer() if trace else NullTracer()
    job_walls: dict[int, float] = {}  # job number -> wall time, for jobs whose checks ran
    walls: dict[int, list[float]] = {}  # instance seed -> untraced wall times, reference s
    raw_walls: list[float] = []
    written, layers = [], []
    peak_rss_mb = None
    fingerprints: dict[str, dict] = {}
    out = work / "out"
    with Patch() as patch:
        taps = Taps(velosense, patch)
        deadline = time.perf_counter() + seconds
        job = 0
        while job < (2 if trace else len(seeds)) or time.perf_counter() < deadline:
            traced = trace and job % 2 == 1
            s = seeds[(job // 2 if trace else job) % len(seeds)]
            root = work / f"in-{s}"
            if not root.exists():
                # set up lazily, so that only one instance precedes the
                # first job and the peak RSS read after it
                setup(s)
            job += 1
            workload.fresh(out)
            taps.reset()
            tracer.reset()
            try:
                if traced:
                    tracer.install(velosense)
                try:
                    with Clock(probing=not trace) as clock:
                        rcs = workload.job(velosense, s, root, out, tracer)
                finally:
                    if traced:
                        tracer.uninstall()
                    elif peak_rss_mb is None:
                        # before the checks, which load artifacts again
                        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                wall = clock.raw_s
                fingerprint = workload.check(velosense, s, root, out, rcs, taps, refs[str(s)], checks)
            except Exception:  # a job that raises is a failed operation; keep measuring
                traceback.print_exc()
                checks.expect(False, f"instance {s}: job raised")
                continue
            first = fingerprints.setdefault(str(s), fingerprint)
            checks.expect(fingerprint == first, f"instance {s}: outputs differ between jobs")
            job_walls[job - 1] = wall
            if traced:
                layers.append(layer_metrics(tracer))
            elif not trace:
                walls.setdefault(s, []).append(clock.reference_s)
                raw_walls.append(wall)
                written.append(artifact_mb(out))
                # set-up samples spread over the run, like the jobs, so that
                # their median sees the same mix of machine load
                setup(s)

    if trace:
        metrics = {
            name: statistics.median(sample[name] for sample in layers) if layers else 0.0
            for name in LAYER_METRICS
            if not name.startswith("trace.")
        }
        # each traced job follows an untraced one on the same instance
        traced_walls = [wall for job, wall in job_walls.items() if job % 2]
        overheads = [wall - job_walls[job - 1] for job, wall in job_walls.items() if job % 2 and job - 1 in job_walls]
        metrics["trace.wall_s"] = statistics.median(traced_walls) if traced_walls else 0.0
        metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
        units = LAYER_METRICS
    else:
        metrics = {
            "wall_s": statistics.mean(map(statistics.median, walls.values())) if walls else 0.0,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb or 0.0,
            "artifact_mb": statistics.median(written) if written else 0.0,
        }
        units = END_TO_END
    for message in checks.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{workload.name}: {job} jobs, {len(seeds)} instances {seeds}", file=sys.stderr)
    if raw_walls:
        print(
            f"raw medians: job {statistics.median(raw_walls):.4f} s,"
            f" set-up {statistics.median(raw_setup_s):.4f} s",
            file=sys.stderr,
        )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, fingerprints


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        velosense = import_velosense()
        refs = load_references(args.workload)
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        result, fingerprints = measure(
            velosense, workload, refs, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"fingerprints": fingerprints}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
