"""Fleet sizing and trip replay.

Two pieces: derive the minimal per-stand initial bike counts that keep every
stand's balance non-negative over the horizon, then replay the trip log once
in row (service) order, assigning physical bikes to trips. Replay optionally
biases bike selection toward sensor-equipped bikes (guided selection accepted
with probability beta). A replay is the bike of each trip over the log's
event table (see Replay); per-bike trajectories are views built on demand.

RNG stream discipline, per trip in log order: one uniform draw for the
guidance-acceptance test, then one bounded draw indexing into the chosen
idle pool. Both draws happen for every trip regardless of branch, so a
beta=0 run consumes the same stream as an unguided run and reproduces it
bit for bit under the same seed. Generator: numpy PCG64.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import InfeasiblePlanError, MalformedInputError, read_artifact, write_json
from .trips import TripEvents, TripLog

TRAJ_FORMAT = "velosense-traj-v1"
GENERATOR_NAME = "numpy-pcg64"


@dataclass
class FleetPlan:
    """Initial bike count per stand. Bike ids are dense and stand-contiguous:
    stand s owns ids sum(b[:s]) to sum(b[:s+1]) - 1."""

    b: list[int]

    @property
    def num_bikes(self) -> int:
        return sum(self.b)

    @property
    def bikes(self) -> list[list[int]]:
        """bikes[stand] is the ascending ids of the stand's bikes."""
        bounds = [0, *accumulate(self.b)]
        return [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

    def home_stands(self) -> np.ndarray:
        """home_stands()[bike] is the stand the bike starts the day at."""
        return np.repeat(np.arange(len(self.b), dtype=np.int64), self.b)


@dataclass
class BikeTrajectory:
    """One bike's day, as a view of a Replay."""

    bike: int
    home: int
    served: list[str]  # trip ids in service order
    events: list[tuple[int, int]]  # (segment, enter minute)


@dataclass(frozen=True, eq=False)
class Replay:
    """Which bike served each trip, over an event table of the trips.

    Trip rows are in service order. Counting reads the per-event arrays
    (event_bike, events.segment, events.minute); iterating, indexing and
    comparing go through per-bike BikeTrajectory views, built on first use.
    Two replays are equal when their views are.
    """

    bike_of_trip: np.ndarray  # int64 per trip row
    homes: np.ndarray  # int64 per bike: home stand
    trip_ids: list[str]  # per trip row
    events: TripEvents

    @classmethod
    def from_views(cls, views) -> "Replay":
        """The replay whose views are `views`, bikes 0..n-1 in order.

        A view does not say which of its trips each event belongs to, so a
        bike's events are filed under its first trip; counts read only the bike.
        """
        homes, trip_ids, bike_of_trip, event_trip, pairs = [], [], [], [], []
        for bike, view in enumerate(views):
            if view.bike != bike:
                raise MalformedInputError(f"bike {view.bike} listed in position {bike}")
            if view.events and not view.served:
                raise MalformedInputError(f"bike {bike} has events but serves no trip")
            event_trip += [len(trip_ids)] * len(view.events)
            pairs += view.events
            homes.append(view.home)
            trip_ids += view.served
            bike_of_trip += [bike] * len(view.served)
        segment, minute = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
        events = TripEvents(np.array(event_trip, dtype=np.int64), segment, minute)
        return cls(np.array(bike_of_trip, dtype=np.int64), np.array(homes, dtype=np.int64), trip_ids, events)

    @cached_property
    def event_bike(self) -> np.ndarray:
        """The bike of every event."""
        return self.bike_of_trip[self.events.trip]

    @cached_property
    def _views(self) -> list[BikeTrajectory]:
        served: list[list[str]] = [[] for _ in self.homes]
        events: list[list[tuple[int, int]]] = [[] for _ in self.homes]
        for trip_id, bike in zip(self.trip_ids, self.bike_of_trip.tolist()):
            served[bike].append(trip_id)
        for bike, seg, minute in zip(
            self.event_bike.tolist(), self.events.segment.tolist(), self.events.minute.tolist()
        ):
            events[bike].append((seg, minute))
        return [
            BikeTrajectory(bike, home, served[bike], events[bike])
            for bike, home in enumerate(self.homes.tolist())
        ]

    def __len__(self) -> int:
        return len(self.homes)

    def __iter__(self):
        return iter(self._views)

    def __getitem__(self, bike: int) -> BikeTrajectory:
        return self._views[bike]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Replay):
            return NotImplemented
        return self._views == other._views


@dataclass(frozen=True)
class SimConfig:
    seed: int
    beta: float = 0.0
    equipped: frozenset[int] = frozenset()

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


def initial_bike_counts(log: TripLog) -> FleetPlan:
    """Minimal initial bikes per stand so replay never drives a stand negative.

    Replays the net flow at each stand starting from zero; the deployment is
    the depth of the worst deficit. Within a minute arrivals count before
    departures, so a bike returned at t can leave again at t.
    """
    t0, t_end = log.horizon
    width = t_end - t0 + 1
    flow = np.zeros((log.num_stands, width), dtype=np.int64)
    for trip in log.trips:
        flow[trip.origin, trip.start_min - t0] -= 1
        if trip.end_min <= t_end:  # returns after the horizon never help
            flow[trip.dest, trip.end_min - t0] += 1
    balance = np.cumsum(flow, axis=1)
    b = np.maximum(0, -balance.min(axis=1)) if width > 0 else np.zeros(log.num_stands, int)
    return FleetPlan([int(x) for x in b])


def simulate(log: TripLog, plan: FleetPlan, cfg: SimConfig) -> Replay:
    """Replay the log row by row, recording the bike that serves each trip.

    Before a trip is served, every trip that has ended by its start minute
    returns its bike to its destination stand (trips last at least a minute,
    so only served trips have ended). A trip is served by a uniformly chosen
    idle bike at its origin stand, preferring an idle equipped bike when the
    guidance draw falls below cfg.beta and one is available. With beta=0 or
    no equipped bikes this is plain unguided replay.
    """
    if len(plan.b) != log.num_stands:
        raise MalformedInputError(f"plan covers {len(plan.b)} stands, log has {log.num_stands}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    equipped = frozenset(cfg.equipped)

    idle = plan.bikes
    ends = [trip.end_min for trip in log.trips]
    returns = deque(sorted(range(len(ends)), key=ends.__getitem__))  # stable: ties in row order

    bike_of_trip = [0] * len(log.trips)
    for i, trip in enumerate(log.trips):
        while returns and ends[returns[0]] <= trip.start_min:
            done = returns.popleft()
            if done >= i:
                raise MalformedInputError(f"trip {log.trips[done].id} lasts less than a minute")
            insort(idle[log.trips[done].dest], bike_of_trip[done])
        u = rng.random()
        pool = idle[trip.origin]
        if not pool:
            raise InfeasiblePlanError(
                f"no idle bike at stand {trip.origin} at minute {trip.start_min} "
                f"for trip {trip.id}"
            )
        if u < cfg.beta:
            equipped_pool = [b for b in pool if b in equipped]
            chosen_pool = equipped_pool if equipped_pool else pool
        else:
            chosen_pool = pool
        bike = chosen_pool[int(rng.integers(0, len(chosen_pool)))]
        pool.remove(bike)
        bike_of_trip[i] = bike

    return Replay(
        np.array(bike_of_trip, dtype=np.int64),
        plan.home_stands(),
        [trip.id for trip in log.trips],
        log.events,
    )


def equipped_set(plan: FleetPlan, sensors_per_stand) -> frozenset[int]:
    """Equip the first n_s bikes of each stand, given one count n_s in 0..b_s per stand."""
    if len(sensors_per_stand) != len(plan.b):
        raise MalformedInputError(f"{len(sensors_per_stand)} sensor counts for {len(plan.b)} stands")
    out = []
    for stand, (n, bikes) in enumerate(zip(sensors_per_stand, plan.bikes)):
        if not 0 <= n <= len(bikes):
            raise MalformedInputError(f"stand {stand}: {n} sensors for {len(bikes)} bikes")
        out.extend(bikes[: int(n)])
    return frozenset(out)


FLEET_FORMAT = "velosense-fleet-v1"


def save_fleet(plan: FleetPlan, path) -> None:
    write_json(path, {"format": FLEET_FORMAT, "b": plan.b})


def save_trajectories(trajectories: Replay, cfg: SimConfig, path, triplog_sha256: str) -> None:
    doc = {
        "format": TRAJ_FORMAT,
        "metadata": {
            "seed": cfg.seed,
            "beta": cfg.beta,
            "generator": GENERATOR_NAME,
            "equipped": sorted(cfg.equipped),
            "triplog_sha256": triplog_sha256,
        },
        "bikes": [
            {
                "bike": t.bike,
                "home": t.home,
                "served": t.served,
                "events": t.events,
            }
            for t in trajectories
        ],
    }
    write_json(path, doc)


def load_trajectories(path) -> tuple[Replay, dict]:
    with read_artifact(path, TRAJ_FORMAT, "simulate") as doc:
        views = (BikeTrajectory(t["bike"], t["home"], t["served"], t["events"]) for t in doc["bikes"])
        return Replay.from_views(views), doc["metadata"]
