"""End-to-end experiment runner.

Composes the pipeline (ingest or synthesize, clean, size the fleet, estimate
visit probabilities, allocate sensors, replay, score) over sweeps of sensor
budget, sensing interval, and guidance acceptance, with replications.

Every mode starts from one study (`Evaluator`): the data prepared, p
estimated and the allocation instance built once, and one greedy plan per
budget. Unguided replays do not depend on which bikes carry sensors, so one
beta=0 replay per replication serves every method, budget and interval;
guided replays are not kept. The sensing interval enters only at scoring
time: a pipeline run scores each replay at every interval, a requirement
search at the intervals whose search probes the replay's budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .allocation import MilpInstance, build_instance, greedy_order, random_allocation, solve_greedy
from .coverage_model import estimate_probabilities
from .errors import ConfigInfeasibleError, MalformedInputError, write_table
from .fleet_sim import FleetPlan, Replay, SimConfig, check_beta, initial_bike_counts, simulate
from .metrics import IntervalGrid, count_cells, event_cells, interval_minutes, sensing_score
from .network import RoadNetwork, load_network_files
from .synth import SynthConfig, generate
from .trips import TripLog, clean_trips, parse_raw_trips

METHOD_RANDOM = "random-noactive"
METHOD_OPTIMIZED = "optimized-noactive"
METHOD_ACTIVE = "optimized-active"
ALL_METHODS = (METHOD_RANDOM, METHOD_OPTIMIZED, METHOD_ACTIVE)

_SIM_SEED_OFFSET = 100_000
_RAND_ALLOC_SEED_OFFSET = 200_000


@dataclass(frozen=True)
class FileSource:
    nodes: str
    edges: str
    trips: str

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not str:  # open() would read an int as a file descriptor
                raise TypeError(f"{name} must be a string, got {value!r}")


@dataclass
class ExperimentSpec:
    source: FileSource | SynthConfig
    deltas: list[float]
    budgets: list[int] | None = None  # a pipeline or beta sweep needs them; sensor_requirement does not
    betas: list[float] = field(default_factory=lambda: [1.0])
    methods: tuple[str, ...] = ALL_METHODS
    replications: int = 20
    seed: int = 0
    coverage_runs: int = 20

    def __post_init__(self):
        if self.budgets == [] or not self.deltas or not self.betas or not self.methods:
            raise ValueError("budgets, deltas, betas, and methods must be non-empty")
        budgets = self.budgets or []
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.coverage_runs < 1:
            raise ValueError(f"coverage_runs must be >= 1, got {self.coverage_runs}")
        bad = [b for b in budgets if b < 1]
        if bad:
            raise ValueError(f"budget must be >= 1, got {bad[0]}")
        for beta in self.betas:
            check_beta(beta)
        for delta_h in self.deltas:
            interval_minutes(delta_h)
        sweeps = {"budgets": budgets, "deltas": self.deltas, "betas": self.betas, "methods": self.methods}
        for name, values in sweeps.items():
            if len(set(values)) < len(values):  # by value: 4 and 4.0 repeat
                raise ValueError(f"{name} must not repeat, got {list(values)}")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {ALL_METHODS}")


@dataclass(frozen=True)
class ResultRow:
    method: str
    budget: int
    delta_h: float
    beta: float
    rep: int
    phi_pct: float


@dataclass(frozen=True)
class SummaryRow:
    method: str
    budget: int
    delta_h: float
    beta: float
    mean_phi_pct: float
    std_phi_pct: float
    reps: int


@dataclass
class PreparedData:
    net: RoadNetwork
    log: TripLog
    fleet: FleetPlan


def prepare(spec: ExperimentSpec) -> PreparedData:
    if isinstance(spec.source, SynthConfig):
        net, raw = generate(spec.source)
    else:
        net = load_network_files(spec.source.nodes, spec.source.edges)
        with open(spec.source.trips, encoding="utf-8", newline="") as tf:
            raw, _report = parse_raw_trips(tf)
    log = clean_trips(raw, net)
    if not log.ids:
        raise ConfigInfeasibleError("no trips survive cleaning; nothing to simulate")
    return PreparedData(net, log, initial_bike_counts(log))


class Evaluator:
    """One study, shared by every mode: the prepared data, the allocation
    instance at the whole fleet, one greedy plan's sensor counts per budget
    (SimConfig.sensors), and replays scored at requested intervals.

    A budget's greedy rounds are a prefix of the fleet's, so they run once,
    at the first greedy request. Only unguided replays (beta == 0) are kept,
    one per replication: they ignore the sensors, so each serves every
    method, budget and interval.
    """

    def __init__(self, spec: ExperimentSpec):
        self.data = data = prepare(spec)
        self.seed = spec.seed
        matrix = estimate_probabilities(data.log, data.fleet, runs=spec.coverage_runs, seed=spec.seed)
        self.inst = build_instance(matrix, data.net, data.fleet, sum(data.fleet.b))
        self._greedy: dict[int, tuple[int, ...]] = {}
        self._unguided: dict[int, Replay] = {}
        self._cells: dict[float, tuple[IntervalGrid, np.ndarray]] = {}  # per interval: grid, event_cells

    def at(self, budget: int) -> MilpInstance:
        return replace(self.inst, budget=min(budget, self.inst.budget))

    @cached_property
    def _order(self) -> list[int]:
        return greedy_order(self.inst)

    def greedy(self, budget: int) -> tuple[int, ...]:
        if budget not in self._greedy:
            self._greedy[budget] = tuple(solve_greedy(self.at(budget), self._order).n)
        return self._greedy[budget]

    def trajectories(self, rep: int, beta: float, sensors: tuple[int, ...]) -> Replay:
        seed = self.seed + _SIM_SEED_OFFSET + rep
        if beta != 0.0:
            return simulate(self.data.log, self.data.fleet, SimConfig(seed, beta, sensors))
        if rep not in self._unguided:
            self._unguided[rep] = simulate(self.data.log, self.data.fleet, SimConfig(seed))
        return self._unguided[rep]

    def phi(self, trajs: Replay, sensors: tuple[int, ...], delta_h: float) -> float:
        """The sensing score of a replay of this study's log. Every replay
        covers the log's events, so their cells are found once per interval."""
        log = self.data.log
        if trajs.trip_ids is not log.ids:
            raise ValueError("phi scores only replays of the study's own log")
        num_segments = self.data.net.num_segments
        if delta_h not in self._cells:
            grid = IntervalGrid(*log.horizon, delta_h)
            self._cells[delta_h] = grid, event_cells(log.events, grid, num_segments)
        grid, cells = self._cells[delta_h]
        counts = count_cells(cells, log.events.trip, trajs.rode(sensors), (num_segments, grid.n_intervals))
        return sensing_score(counts, self.data.net.seg_length_m, grid)


def run_pipeline(spec: ExperimentSpec) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Execute the full pipeline over the spec's sweeps.

    Returns per-replication rows in deterministic order plus mean/stdev
    summaries per (method, budget, interval, beta) cell.
    """
    if spec.budgets is None:
        raise MalformedInputError("the experiment config needs 'budgets' for a pipeline or beta sweep")
    ev = Evaluator(spec)
    rows: list[ResultRow] = []
    for budget in spec.budgets:
        for method in spec.methods:
            for beta in spec.betas if method == METHOD_ACTIVE else [0.0]:
                for rep in range(spec.replications):
                    if method == METHOD_RANDOM:
                        alloc = random_allocation(ev.at(budget), spec.seed + _RAND_ALLOC_SEED_OFFSET + rep)
                        sensors = tuple(alloc.n)
                    else:
                        sensors = ev.greedy(budget)
                    trajs = ev.trajectories(rep, beta, sensors)
                    rows.extend(
                        ResultRow(method, budget, delta_h, beta, rep, ev.phi(trajs, sensors, delta_h))
                        for delta_h in spec.deltas
                    )
    rows.sort(key=lambda r: (ALL_METHODS.index(r.method), r.budget, r.delta_h, r.beta, r.rep))
    return rows, summarize(rows)


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.method, r.budget, r.delta_h, r.beta), []).append(r.phi_pct)
    out = []
    for (method, budget, delta_h, beta), phis in sorted(
        groups.items(), key=lambda kv: (ALL_METHODS.index(kv[0][0]),) + kv[0][1:]
    ):
        arr = np.asarray(phis)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out.append(SummaryRow(method, budget, delta_h, beta, float(arr.mean()), std, len(arr)))
    return out


@dataclass(frozen=True)
class BetaGain:
    budget: int
    delta_h: float
    beta_from: float
    beta_to: float
    gain_phi_pct: float


def beta_sweep(spec: ExperimentSpec) -> tuple[list[ResultRow], list[SummaryRow], list[BetaGain]]:
    """Sweep guidance acceptance with optimized allocation; report the mean
    score gain of each beta step."""
    betas = sorted(spec.betas)
    rows, summary = run_pipeline(replace(spec, betas=betas, methods=(METHOD_ACTIVE,)))
    means = {(s.budget, s.delta_h, s.beta): s.mean_phi_pct for s in summary}
    gains = [
        BetaGain(budget, delta_h, lo, hi, means[(budget, delta_h, hi)] - means[(budget, delta_h, lo)])
        for budget in spec.budgets
        for delta_h in spec.deltas
        for lo, hi in zip(betas, betas[1:])
    ]
    return rows, summary, gains


@dataclass(frozen=True)
class RequirementRow:
    delta_h: float
    target_phi_pct: float
    budget: int | None  # None when the target is unattainable at full capacity
    achieved_phi_pct: float
    monotone_ok: bool


def requirement_beta(spec: ExperimentSpec) -> float:
    """The one beta a sensor-requirement search schedules with."""
    if len(spec.betas) != 1:
        raise MalformedInputError(f"sensor-requirement takes one beta, got {spec.betas}")
    return spec.betas[0]


def sensor_requirement(spec: ExperimentSpec, target_phi_pct: float) -> list[RequirementRow]:
    """Smallest budget whose mean score reaches the target, per interval.

    Binary search over the budget using greedy allocation; assumes the mean
    score is non-decreasing in budget and reports whether the points actually
    evaluated were monotone. Schedules with the spec's one beta and ignores
    its budgets and methods.

    Each interval's search is a bisect_left over budgets 0 .. fleet - 1; they
    descend the bisect tree together, so each (budget, rep) is replayed once.
    """
    if not math.isfinite(target_phi_pct):
        raise ValueError(f"target phi must be a finite percentage, got {target_phi_pct}")
    beta = requirement_beta(spec)
    ev = Evaluator(spec)
    if target_phi_pct <= 0.0:
        return [RequirementRow(delta_h, target_phi_pct, 0, 0.0, True) for delta_h in spec.deltas]
    means = {delta_h: {0: 0.0} for delta_h in spec.deltas}  # budget -> mean score; no sensors score 0

    def score(budget: int, deltas: list[float]) -> None:
        sensors = ev.greedy(budget)
        phis = []  # per replication, one score per interval
        for rep in range(spec.replications):
            trajs = ev.trajectories(rep, beta, sensors)
            phis.append([ev.phi(trajs, sensors, delta_h) for delta_h in deltas])
            del trajs  # one guided replay alive at a time
        for delta_h, column in zip(deltas, zip(*phis)):
            means[delta_h][budget] = float(np.mean(column))

    def search(lo: int, hi: int, deltas: list[float]) -> None:
        if not deltas or lo == hi:
            return
        mid = (lo + hi) // 2
        if mid > 0:
            score(mid, deltas)
        reach = [delta_h for delta_h in deltas if means[delta_h][mid] >= target_phi_pct]
        search(lo, mid, reach)
        search(mid + 1, hi, [delta_h for delta_h in deltas if delta_h not in reach])

    fleet_size = ev.inst.budget
    score(fleet_size, spec.deltas)
    search(0, fleet_size, [delta_h for delta_h, at in means.items() if at[fleet_size] >= target_phi_pct])
    out = []
    for delta_h, evaluated in means.items():
        # bisect_left ends at the smallest probed budget reaching the target (never 0)
        points = sorted(evaluated.items())
        found = next((budget for budget, phi in points if phi >= target_phi_pct), None)
        monotone = all(a[1] <= b[1] + 1e-9 for a, b in zip(points, points[1:]))
        out.append(RequirementRow(delta_h, target_phi_pct, found, evaluated[found or fleet_size], monotone))
    return out


def write_rows(path, row_type, rows) -> None:
    """An experiment table: a header of the row dataclass's field names, then
    each row's fields in order (csv writes a float as its repr, None as "")."""
    names = [f.name for f in fields(row_type)]
    write_table(path, names, map(attrgetter(*names), rows))


def _integer(value, name: str) -> int:
    """A JSON integer; a float, a string or a bool is not one."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _integers(values, name: str) -> list[int]:
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise TypeError(f"{name} must be a list of integers, got {values!r}")
    return list(values)


def _numbers(values, name: str) -> list[float]:
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise TypeError(f"{name} must be a list of numbers, got {values!r}")
    return [float(v) for v in values]


# JSON key -> parser for every ExperimentSpec field besides the source; an
# absent key takes the dataclass default
_SPEC_FIELDS = {
    "budgets": _integers,
    "deltas": _numbers,
    "betas": _numbers,
    "methods": lambda values, _name: tuple(values),
    "replications": _integer,
    "seed": _integer,
    "coverage_runs": _integer,
}


def load_spec(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from its JSON mirror."""
    if not isinstance(doc, dict):
        raise MalformedInputError("experiment config must be a JSON object")
    if "source" not in doc:
        raise MalformedInputError("experiment config needs a 'source' entry")
    src = doc["source"]
    try:
        if "synth" in src:
            source = SynthConfig(**src["synth"])
        elif "files" in src:
            source = FileSource(**src["files"])
        else:
            raise MalformedInputError("source must contain either 'synth' or 'files'")
        given = {key: parse(doc[key], key) for key, parse in _SPEC_FIELDS.items() if key in doc}
        return ExperimentSpec(source=source, **given)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"bad experiment config: {exc}") from exc
