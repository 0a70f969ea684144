"""Out-of-program tracing of velosense's public functions.

The package imports names with ``from .x import y``, so one function can be
bound in several module namespaces (``simulate`` lives in ``fleet_sim`` and
is also bound in ``coverage_model`` and ``harness``). Wrapping must rebind
every one of those sites, or calls through the other bindings go unseen.

Spans record name, start, end and parent and stay in memory. A span's self
time is its duration minus the part of it that its children cover; calls are
single-threaded, so children never overlap and their durations add up.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "network",
    "trips",
    "fleet_sim",
    "coverage_model",
    "allocation",
    "metrics",
    "harness",
    "cli",
)

# Public methods traced besides module-level functions.
METHODS = (
    ("harness", "Evaluator", "trajectories"),
    ("harness", "Evaluator", "phi"),
)

# Called once per routed trip per replay (millions of times at full scale):
# counted, but no span is kept for them.
COUNT_ONLY = frozenset({"trips.traversal_times"})


def bindings(func) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in the velosense package bound to func,
    directly or through wrappers that expose it as ``__wrapped__``."""
    sites = []
    for name, mod in list(sys.modules.items()):
        if name != "velosense" and not name.startswith("velosense."):
            continue
        for attr, value in list(vars(mod).items()):
            inner = value
            while inner is not func and hasattr(inner, "__wrapped__"):
                inner = inner.__wrapped__
            if inner is func:
                sites.append((mod, attr))
    return sites


class Patch:
    """Rebinds functions at every import site and restores them on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap_function(self, func, make_wrapper) -> None:
        for ns, attr in bindings(func):
            current = getattr(ns, attr)
            self._undo.append((ns, attr, current))
            setattr(ns, attr, make_wrapper(current))

    def wrap_method(self, cls, attr, make_wrapper) -> None:
        current = cls.__dict__[attr]
        self._undo.append((cls, attr, current))
        setattr(cls, attr, make_wrapper(current))

    def restore(self) -> None:
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def public_functions(velosense) -> list[tuple[str, object]]:
    """(layer.name, function) for every public function a layer defines."""
    out = []
    for layer in LAYERS:
        mod = getattr(velosense, layer)
        for name, value in vars(mod).items():
            func = inspect.unwrap(value) if callable(value) else value
            if (
                not name.startswith("_")
                and inspect.isfunction(func)
                and func.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{name}", func))
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# Per-function probes: attributes worth keeping on a span, taken from the
# call's arguments and result after the call returns.
def _probe_shortest_path(args, kwargs, result):
    return {"dest": _arg(args, kwargs, 2, "dest")}


def _probe_simulate(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    log = _arg(args, kwargs, 0, "log")
    return {"guided": cfg.beta > 0.0, "trips": len(log.trips)}


def _probe_saved(index, name):
    def probe(args, kwargs, result):
        return {"mb": _file_mb(_arg(args, kwargs, index, name))}

    return probe


def _probe_export_lp(args, kwargs, result):
    return {"mb": _arg(args, kwargs, 1, "sink").tell() / 1e6}


def _probe_estimate(args, kwargs, result):
    return {"nnz": len(result.p)}


def _probe_solve_greedy(args, kwargs, result):
    return {"budget": _arg(args, kwargs, 0, "inst").budget}


def _probe_coverage_counts(args, kwargs, result):
    trajectories = _arg(args, kwargs, 0, "trajectories")
    equipped = _arg(args, kwargs, 1, "equipped")
    return {"events": sum(len(t.events) for t in trajectories if t.bike in equipped)}


PROBES = {
    "network.shortest_path": _probe_shortest_path,
    "fleet_sim.simulate": _probe_simulate,
    "trips.save_triplog": _probe_saved(1, "path"),
    "fleet_sim.save_trajectories": _probe_saved(2, "path"),
    "allocation.export_lp": _probe_export_lp,
    "coverage_model.estimate_probabilities": _probe_estimate,
    "allocation.solve_greedy": _probe_solve_greedy,
    "metrics.coverage_counts": _probe_coverage_counts,
}


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patch = Patch()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Records a span opened by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _wrapper(self, name: str, inner):
        probe = PROBES.get(name)
        tracer = self
        if name in COUNT_ONLY:

            @functools.wraps(inner)
            def counted(*args, **kwargs):
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return inner(*args, **kwargs)

            return counted

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                span = tracer._close(index)
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced

    def install(self, velosense) -> None:
        for name, func in public_functions(velosense):
            self._patch.wrap_function(func, functools.partial(self._wrapper, name))
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(velosense, layer), cls_name)
            self._patch.wrap_method(
                cls, attr, functools.partial(self._wrapper, f"{layer}.{cls_name}.{attr}")
            )

    def uninstall(self) -> None:
        self._patch.restore()


class NullTracer:
    """Stands in for Tracer in untraced runs: benchmark spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def reset(self) -> None:
        pass


CLI_STEPS = ("ingest", "fleet", "probs", "allocate", "simulate", "score", "export-lp")
CLI_COMMANDS = CLI_STEPS + ("experiment",)

# name -> unit, in report order. Every workload reports all of them; a layer a
# workload bypasses reads 0.
LAYER_METRICS = {
    "network.shortest_path.calls": "count",
    "network.shortest_path.s": "s",
    "trips.routes_per_dest": "ratio",
    "trips.parse_raw_trips.s": "s",
    "trips.clean_trips.s": "s",
    "trips.save_triplog.s": "s",
    "trips.load_triplog.s": "s",
    "trips.load_triplog.calls": "count",
    "trips.triplog_mb": "MB",
    "trips.traversal_times.calls": "count",
    "fleet_sim.simulate.calls": "count",
    "fleet_sim.simulate.guided.s": "s",
    "fleet_sim.simulate.unguided.s": "s",
    "fleet_sim.trips_per_s": "1/s",
    "fleet_sim.initial_bike_counts.calls": "count",
    "fleet_sim.save_trajectories.s": "s",
    "fleet_sim.load_trajectories.s": "s",
    "fleet_sim.traj_mb": "MB",
    "coverage_model.mean_coverage.s": "s",
    "coverage_model.nnz": "count",
    "coverage_model.save_matrix.s": "s",
    "coverage_model.load_matrix.s": "s",
    "allocation.build_instance.s": "s",
    "allocation.build_instance.calls": "count",
    "allocation.solve_greedy.s": "s",
    "allocation.solve_greedy.calls": "count",
    "allocation.solve_greedy.distinct_ratio": "ratio",
    "allocation.export_lp.s": "s",
    "allocation.lp_mb": "MB",
    "metrics.coverage_counts.s": "s",
    "metrics.coverage_counts.calls": "count",
    "metrics.events_counted": "count",
    "metrics.sensing_score.s": "s",
    "metrics.hourly_diagnostics.s": "s",
    "harness.prepare.s": "s",
    "harness.Evaluator.phi.s": "s",
    "harness.replay_reuse_ratio": "ratio",
    **{f"cli.{command}.s": "s" for command in CLI_COMMANDS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its spans and counts.

    ``trace.*`` entries are filled in by the caller, which also knows the
    untraced wall time.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_total(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def attr_values(name, key):
        return [spans[i].attrs[key] for i in by_name.get(name, ())]

    sim = by_name.get("fleet_sim.simulate", [])
    guided = [i for i in sim if spans[i].attrs["guided"]]
    unguided = [i for i in sim if not spans[i].attrs["guided"]]
    sim_s = sum(spans[i].duration for i in sim)
    sim_trips = sum(spans[i].attrs["trips"] for i in sim)

    replays = set(by_name.get("harness.Evaluator.trajectories", ()))
    replayed = {spans[i].parent for i in sim} & replays
    budgets = attr_values("allocation.solve_greedy", "budget")

    out = {
        "network.shortest_path.calls": calls("network.shortest_path"),
        "network.shortest_path.s": total("network.shortest_path"),
        "trips.routes_per_dest": _ratio(
            calls("network.shortest_path"),
            len(set(attr_values("network.shortest_path", "dest"))),
        ),
        "trips.parse_raw_trips.s": total("trips.parse_raw_trips"),
        "trips.clean_trips.s": self_total("trips.clean_trips"),
        "trips.save_triplog.s": total("trips.save_triplog"),
        "trips.load_triplog.s": total("trips.load_triplog"),
        "trips.load_triplog.calls": calls("trips.load_triplog"),
        "trips.triplog_mb": sum(attr_values("trips.save_triplog", "mb")),
        "trips.traversal_times.calls": tracer.counts.get("trips.traversal_times", 0),
        "fleet_sim.simulate.calls": len(sim),
        "fleet_sim.simulate.guided.s": sum(spans[i].duration for i in guided),
        "fleet_sim.simulate.unguided.s": sum(spans[i].duration for i in unguided),
        "fleet_sim.trips_per_s": _ratio(sim_trips, sim_s),
        "fleet_sim.initial_bike_counts.calls": calls("fleet_sim.initial_bike_counts"),
        "fleet_sim.save_trajectories.s": total("fleet_sim.save_trajectories"),
        "fleet_sim.load_trajectories.s": total("fleet_sim.load_trajectories"),
        "fleet_sim.traj_mb": sum(attr_values("fleet_sim.save_trajectories", "mb")),
        "coverage_model.mean_coverage.s": self_total("coverage_model.mean_coverage"),
        "coverage_model.nnz": max(
            attr_values("coverage_model.estimate_probabilities", "nnz"), default=0
        ),
        "coverage_model.save_matrix.s": total("coverage_model.save_matrix"),
        "coverage_model.load_matrix.s": total("coverage_model.load_matrix"),
        "allocation.build_instance.s": total("allocation.build_instance"),
        "allocation.build_instance.calls": calls("allocation.build_instance"),
        "allocation.solve_greedy.s": total("allocation.solve_greedy"),
        "allocation.solve_greedy.calls": len(budgets),
        "allocation.solve_greedy.distinct_ratio": _ratio(len(set(budgets)), len(budgets)),
        "allocation.export_lp.s": total("allocation.export_lp"),
        "allocation.lp_mb": sum(attr_values("allocation.export_lp", "mb")),
        "metrics.coverage_counts.s": total("metrics.coverage_counts"),
        "metrics.coverage_counts.calls": calls("metrics.coverage_counts"),
        "metrics.events_counted": sum(attr_values("metrics.coverage_counts", "events")),
        "metrics.sensing_score.s": total("metrics.sensing_score"),
        "metrics.hourly_diagnostics.s": total("metrics.hourly_diagnostics"),
        "harness.prepare.s": total("harness.prepare"),
        "harness.Evaluator.phi.s": self_total("harness.Evaluator.phi"),
        "harness.replay_reuse_ratio": _ratio(len(replays) - len(replayed), len(replays)),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = total(f"cli.{command}")
    return out
