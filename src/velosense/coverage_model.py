"""Visit-probability estimation by Monte Carlo over unguided replays.

Coverage of a segment by the bikes homed at one stand behaves like a
binomial count, so the mean coverage over repeated replays divided by the
stand's bike count estimates the per-bike visit expectation p[stand, segment].
A bike can cross the same segment several times in a day, so values above 1
are legal; downstream optimization consumes them as expectations.

p comes from one call, `estimate_probabilities`: `mean_coverage` tallies
the replays into three aligned columns (stand, segment, n_bar), sorted by
(stand, segment) and unique, and p is n_bar divided by the stand's bike
count. A matrix keeps those columns from the tally to probs.csv.

Every traversal event is attributed to the bike's home stand (where it was
deployed at the start of the horizon), the only label that stays stable once
bikes migrate between stands.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import MalformedInputError, int_range, malformed_fields, read_artifact, write_json, write_table
from .fleet_sim import FleetPlan, SimConfig, simulate
from .trips import TripLog

COVERAGE_FORMAT = "velosense-coverage-v1"

DEFAULT_RUNS = 20

PROBS_HEADER = ["stand_id", "segment_id", "p"]
PROBS_DTYPE = np.dtype([("stand", np.int64), ("segment", np.int64), ("p", np.float64)])


@dataclass(eq=False)
class CoverageMatrix:
    """Per-bike visit expectations p[stand, segment]; absent pairs are 0."""

    stand: np.ndarray  # int64
    segment: np.ndarray  # int64
    p: np.ndarray  # float64
    runs: int
    seed: int
    stand_nodes: list[int]
    triplog_sha256: str | None = None  # of the triplog file it was estimated on


def _tally(log: TripLog, plan: FleetPlan, runs: int, seed: int, label: np.ndarray) -> np.ndarray:
    """Traversals per (label[bike], segment), summed over `runs` unguided
    replays seeded seed+1 .. seed+runs. Bikes labelled -1 are not counted."""
    trip, segment, _minute = log.events
    num_segments = 1 + int(segment.max(initial=-1))
    num_labels = 1 + int(label.max(initial=-1))
    totals = np.zeros(num_labels * num_segments, dtype=np.int64)
    for tau in range(1, runs + 1):
        owner = label[simulate(log, plan, SimConfig(seed=seed + tau)).bike_of_trip][trip]
        keep = owner >= 0
        totals += np.bincount(owner[keep] * num_segments + segment[keep], minlength=len(totals))
    return totals.reshape(num_labels, num_segments)


def mean_coverage(
    log: TripLog, plan: FleetPlan, runs: int = DEFAULT_RUNS, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean traversals per (home stand, segment) over `runs` unguided replays
    seeded seed+1 .. seed+runs, as (stand, segment, n_bar) columns; absent
    pairs are 0."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    totals = _tally(log, plan, runs, seed, plan.home_stands())
    stand, segment = np.nonzero(totals)  # row-major: sorted by (stand, segment)
    return stand, segment, totals[stand, segment] / runs


def estimate_probabilities(
    log: TripLog, plan: FleetPlan, runs: int = DEFAULT_RUNS, seed: int = 0
) -> CoverageMatrix:
    """Binomial-mean slope: p = mean coverage / bikes deployed at the stand.

    A stand with no bikes homes none, so every stand that has coverage has b > 0."""
    stand, segment, n_bar = mean_coverage(log, plan, runs, seed)
    p = n_bar / np.asarray(plan.b, dtype=np.int64)[stand]
    return CoverageMatrix(stand, segment, p, runs, seed, [s.node for s in log.stands])


def linearity_probe(
    log: TripLog,
    plan: FleetPlan,
    stands: list[int],
    runs: int = DEFAULT_RUNS,
    seed: int = 0,
    min_mean: float = 5.0,
) -> list[tuple[int, int, float, float, int]]:
    """Refit mean coverage against the number of tracked bikes per stand.

    For each probed stand, tracked subsets are the first n bikes of the
    stand's fleet for n = 1..b_s; the per-subset mean coverage of a segment
    over the replicated runs is regressed through the origin against n.
    Returns (stand, segment, slope, r_squared, points) for every pair whose
    full-fleet mean coverage reaches `min_mean`. Checks that coverage grows
    linearly with deployment, the premise the allocation model rests on.
    """
    unknown = [stand for stand in stands if not 0 <= stand < len(plan.b)]
    if unknown:
        raise MalformedInputError(f"unknown stand {unknown[0]}")
    probe = sorted(set(stands))
    tracked = [bike for stand, bikes in enumerate(plan.bikes) if stand in probe for bike in bikes]
    label = np.full(plan.num_bikes, -1, dtype=np.int64)
    label[tracked] = np.arange(len(tracked))  # probed bikes, stand by stand, in fleet order

    totals = _tally(log, plan, runs, seed, label)

    results = []
    offset = 0
    for stand in probe:
        b = plan.b[stand]
        per_bike = totals[offset : offset + b]
        offset += b
        if b < 2:
            continue
        for seg in np.flatnonzero(per_bike.any(axis=0)).tolist():
            # ys[n - 1]: mean coverage of the first n tracked bikes
            ys = list(accumulate(count / runs for count in per_bike[:, seg].tolist()))
            if ys[-1] < min_mean:
                continue
            xs = list(range(1, b + 1))
            sxx = sum(x * x for x in xs)
            sxy = sum(x * y for x, y in zip(xs, ys))
            slope = sxy / sxx
            ss_res = sum((y - slope * x) ** 2 for x, y in zip(xs, ys))
            ss_tot = sum(y * y for y in ys)
            r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
            results.append((stand, seg, slope, r2, b))
    return results


def save_matrix(matrix: CoverageMatrix, csv_path, meta_path) -> None:
    """Delimited probabilities plus a JSON sidecar with the estimation protocol."""
    rows = zip(matrix.stand.tolist(), matrix.segment.tolist(), map(repr, matrix.p.tolist()))
    write_table(csv_path, PROBS_HEADER, rows)
    write_json(
        meta_path,
        {
            "format": COVERAGE_FORMAT,
            "runs": matrix.runs,
            "seed": matrix.seed,
            "stand_nodes": matrix.stand_nodes,
            "triplog_sha256": matrix.triplog_sha256,
        },
    )


def load_matrix(csv_path, meta_path) -> CoverageMatrix:
    """Read a matrix `save_matrix` wrote: rows of exactly three fields, ASCII decimal
    ids >= 0, each p finite and >= 0, no (stand, segment) twice; fields may be quoted
    and blank lines are skipped. The columns come back sorted by key. A row np.loadtxt
    cannot read is named by `_first_bad_row`."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        if next(csv.reader(fh), None) != PROBS_HEADER:
            raise MalformedInputError(f"{csv_path}: coverage file must have header stand_id,segment_id,p")
    with malformed_fields(csv_path):
        try:
            rows = _read_probs(csv_path)
        except (ValueError, Warning) as exc:
            where = _first_bad_row(csv_path)
            if where is None:
                raise
            raise MalformedInputError(f"{csv_path}: {where}") from exc
    stand = int_range(rows["stand"], csv_path, "stand_id")
    segment = int_range(rows["segment"], csv_path, "segment_id")
    p = rows["p"]
    bad = ~((p >= 0.0) & (p < np.inf))  # NaN fails both
    if bad.any():
        i = int(np.argmax(bad))
        key = (int(stand[i]), int(segment[i]))
        raise MalformedInputError(
            f"{csv_path}: p = {p[i]} for (stand, segment) {key} is not a finite number >= 0"
        )
    order = np.lexsort((segment, stand))
    stand, segment, p = stand[order], segment[order], p[order]
    twice = (stand[1:] == stand[:-1]) & (segment[1:] == segment[:-1])
    if twice.any():
        i = int(np.argmax(twice))
        key = (int(stand[i]), int(segment[i]))
        raise MalformedInputError(f"{csv_path}: (stand, segment) {key} is listed twice")
    with read_artifact(meta_path, COVERAGE_FORMAT, "probs") as meta:
        protocol = (meta["runs"], meta["seed"], list(meta["stand_nodes"]))
        return CoverageMatrix(stand, segment, p, *protocol, meta.get("triplog_sha256"))


def _read_probs(csv_path, dtype=PROBS_DTYPE, **options) -> np.ndarray:
    """The rows of a probs.csv after its header, in one np.loadtxt pass; `options`
    go to np.loadtxt. A warning while reading is raised as an error."""
    with warnings.catch_warnings():
        # numpy < 2 reads "1.5" into an int column by way of float, with a DeprecationWarning
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)  # under max_rows
        return np.loadtxt(
            csv_path, dtype=dtype, comments=None, delimiter=",", skiprows=1, encoding="utf-8",
            quotechar='"', ndmin=1, **options,
        )


def _first_bad_row(csv_path) -> str | None:
    """Where a probs.csv that `_read_probs` rejects goes wrong, as `row N ...`: row N
    is the Nth non-blank row after the header, as trip files number their rows.
    The row is the first that np.loadtxt rejects, found by halving its max_rows,
    so the two readers agree on it; None if no row is to blame."""

    def rejects(rows, **options) -> bool:
        try:
            _read_probs(csv_path, max_rows=rows, **options)
        except (ValueError, Warning):
            return True
        return False

    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    good, bad = 0, len(rows)  # np.loadtxt reads the first `good` rows and rejects the first `bad`
    if not (bad and rejects(bad)):
        return None
    while bad - good > 1:
        half = (good + bad) // 2
        good, bad = (good, half) if rejects(half) else (half, bad)
    fields = rows[bad - 1]
    if len(fields) != len(PROBS_HEADER):
        return f"row {bad} has {len(fields)} fields, not {len(PROBS_HEADER)}"
    for column, name in enumerate(PROBS_HEADER):
        if rejects(bad, usecols=column, dtype=PROBS_DTYPE[column]):
            return f"row {bad}: {name} {fields[column]!r} does not convert to {PROBS_DTYPE[column]}"
    return None
