"""Fleet sizing and trip replay.

Two pieces read the log's service schedule: the minimal per-stand initial
bike counts, which a plan must reach for replay to run, and the replay of the
trip log once in row (service) order, assigning physical bikes to trips. Replay
optionally biases bike selection toward sensor-equipped bikes (guided selection
accepted with probability beta). A replay is the bike of each trip over the
log's event table (see Replay), and `traj.json` stores those columns; per-bike
trajectories are views built only when a replay is iterated.

RNG stream, per trip in log order, from one numpy PCG64 seeded with the
replay's seed: first a guidance draw, one whole 64-bit word whose top 53 bits
over 2**53 are tested against beta; then a pick draw indexing the chosen idle
pool, a Lemire bounded draw on 32 bits (redrawn on rejection): the high half
of a word an earlier pick left over, else the low half of a fresh word, whose
high half is then left over. A pool of one bike takes no bits. These are the
draws numpy's Generator.random() and Generator.integers(0, n) make; replay
computes them from the bit generator's words drawn in bulk (see _Draws).
Every trip takes its guidance draw whatever beta is, and a pick depends only
on the size of the pool it indexes. With beta=0 the guidance test never
passes, so every pick indexes the whole idle pool, exactly as an unguided
run's picks do: the two consume the same stream and are bit-identical under
the same seed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .errors import (
    InfeasiblePlanError, MalformedInputError, int_column, read_artifact, str_column, write_json,
)
from .trips import TripEvents, TripLog

TRAJ_FORMAT = "velosense-traj-v2"
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

    Trip rows are in service order, and the event table is grouped by trip row.
    Counting reads the per-event arrays (event_bike, events.segment,
    events.minute); iterating yields per-bike BikeTrajectory views, built on
    first use. Two replays are equal when their columns are.
    """

    bike_of_trip: np.ndarray  # int64 per trip row
    homes: np.ndarray  # int64 per bike: home stand
    trip_ids: list[str]  # per trip row
    events: TripEvents

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Replay):
            return NotImplemented
        mine = (self.bike_of_trip, self.homes, *self.events)
        theirs = (other.bike_of_trip, other.homes, *other.events)
        return self.trip_ids == other.trip_ids and all(map(np.array_equal, mine, theirs))


def check_beta(beta: float) -> None:
    """Raise ValueError unless beta, the chance a rider takes the guided bike, is in [0, 1]."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")


@dataclass(frozen=True)
class SimConfig:
    seed: int
    beta: float = 0.0
    equipped: frozenset[int] = frozenset()

    def __post_init__(self):
        check_beta(self.beta)


def initial_bike_counts(log: TripLog) -> FleetPlan:
    """Minimal initial bikes per stand so replay never drives a stand negative:
    a row finds b[origin] + net + 1 idle bikes at its origin (TripLog.schedule)."""
    b = np.zeros(log.num_stands, dtype=np.int64)
    np.maximum.at(b, log.origin, -log.schedule.net)
    return FleetPlan(b.tolist())


_CHUNK = 4096  # words per numpy call
_LOW32 = 0xFFFFFFFF


class _Draws:
    """The draws `Generator(PCG64(seed))` makes for `random()` and
    `integers(0, n)`, computed from the bit generator's 64-bit words drawn in
    chunks, so a replay calls numpy once per chunk rather than twice per trip.

    `random()` takes a whole word: its top 53 bits over 2**53. `integers(n)`
    for 1 < n < 2**32 is Lemire's bounded draw on 32-bit halves with its
    rejection loop: the low half of a fresh word first, the high half kept for
    the next 32-bit draw, whatever `random()` takes in between. With n = 1 it
    takes no bits.
    """

    def __init__(self, seed: int):
        bitgen = np.random.PCG64(seed)
        chunks = iter(lambda: bitgen.random_raw(_CHUNK).tolist(), None)
        self._word = chain.from_iterable(chunks).__next__
        self._half = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _LOW32
        self._half = None
        return half

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _LOW32 < n:  # only then can the draw be rejected
            threshold = (1 << 32) % n
            while m & _LOW32 < threshold:
                m = self._uint32() * n
        return m >> 32


def simulate(log: TripLog, plan: FleetPlan, cfg: SimConfig) -> Replay:
    """Replay the log row by row, recording the bike that serves each trip.

    Before a trip is served, every trip that has ended by its start minute
    returns its bike to its destination stand. A trip is served by a uniformly
    chosen idle bike at its origin stand, preferring an idle equipped bike when
    the guidance draw falls below cfg.beta and one is available. With beta=0 or
    no equipped bikes this is plain unguided replay. Idle counts do not depend
    on the choices (TripLog.schedule), so an infeasible plan fails before any draw.
    """
    if len(plan.b) != log.num_stands:
        raise MalformedInputError(f"plan covers {len(plan.b)} stands, log has {log.num_stands}")
    schedule = log.schedule
    instant = schedule.returns[log.duration_min[schedule.returns] < 1]  # back before it leaves
    if len(instant):
        raise MalformedInputError(f"trip {log.ids[instant[0]]} lasts less than a minute")
    short = np.flatnonzero(np.asarray(plan.b, dtype=np.int64)[log.origin] + schedule.net < 0)
    if len(short):
        i = short[0]
        raise InfeasiblePlanError(f"no idle bike at stand {log.origin[i]} at minute "
                                  f"{log.start_min[i]} for trip {log.ids[i]}")
    draws = _Draws(cfg.seed)
    guidance, pick = draws.random, draws.integers
    beta = cfg.beta
    equipped = frozenset(cfg.equipped)

    idle = plan.bikes  # per stand, ascending
    idle_equipped = [sorted(equipped.intersection(pool)) for pool in idle]
    returns, dest = schedule.returns.tolist(), log.dest.tolist()

    bike_of_trip = [0] * len(dest)
    r = 0
    for i, (origin, returned_by_start) in enumerate(zip(log.origin.tolist(), schedule.returned.tolist())):
        while r < returned_by_start:
            done = returns[r]
            r += 1
            bike = bike_of_trip[done]
            insort(idle[dest[done]], bike)
            if bike in equipped:
                insort(idle_equipped[dest[done]], bike)
        u = guidance()
        pool = idle[origin]
        equipped_pool = idle_equipped[origin]
        if u < beta and equipped_pool:
            k = pick(len(equipped_pool))
            bike = equipped_pool[k]
            del equipped_pool[k]
            del pool[bisect_left(pool, bike)]
        else:
            k = pick(len(pool))
            bike = pool[k]
            del pool[k]
            if bike in equipped:
                del equipped_pool[bisect_left(equipped_pool, bike)]
        bike_of_trip[i] = bike

    return Replay(np.array(bike_of_trip, dtype=np.int64), plan.home_stands(), log.ids, log.events)


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


def save_trajectories(replay: Replay, cfg: SimConfig, path, triplog_sha256: str) -> None:
    """Write a velosense-traj-v2 file: the metadata, then the replay's columns,
    with the event table as per-trip event counts over its segment and minute."""
    doc = {
        "format": TRAJ_FORMAT,
        "metadata": {
            "seed": cfg.seed,
            "beta": cfg.beta,
            "generator": GENERATOR_NAME,
            "equipped": sorted(cfg.equipped),
            "triplog_sha256": triplog_sha256,
        },
        "homes": replay.homes.tolist(),
        "trip_ids": replay.trip_ids,
        "bike_of_trip": replay.bike_of_trip.tolist(),
        "events_per_trip": np.bincount(replay.events.trip, minlength=len(replay.trip_ids)).tolist(),
        "segment": replay.events.segment.tolist(),
        "minute": replay.events.minute.tolist(),
    }
    write_json(path, doc)


def load_trajectories(path) -> tuple[Replay, dict]:
    """Read a velosense-traj-v2 file into the Replay it was written from, and its
    metadata, whose `equipped` holds distinct bikes of the replay. Any other
    format, v1 included, is rejected: `simulate` writes v2."""
    with read_artifact(path, TRAJ_FORMAT, "simulate") as doc:
        meta = doc["metadata"]
        homes = int_column(doc["homes"], path, "homes")
        equipped = int_column(meta["equipped"], path, "metadata.equipped", hi=len(homes))
        if len(np.unique(equipped)) < len(equipped):
            raise MalformedInputError(f"{path}: metadata.equipped lists a bike twice")
        trip_ids = str_column(doc["trip_ids"], path, "trip_ids")
        bike_of_trip = int_column(doc["bike_of_trip"], path, "bike_of_trip", hi=len(homes))
        per_trip = int_column(doc["events_per_trip"], path, "events_per_trip")
        segment = int_column(doc["segment"], path, "segment")
        minute = int_column(doc["minute"], path, "minute")
        if not len(trip_ids) == len(bike_of_trip) == len(per_trip):
            raise MalformedInputError(
                f"{path}: {len(trip_ids)} trip_ids, {len(bike_of_trip)} bike_of_trip "
                f"and {len(per_trip)} events_per_trip"
            )
        if not int(per_trip.sum()) == len(segment) == len(minute):
            raise MalformedInputError(
                f"{path}: events_per_trip sums to {int(per_trip.sum())}, "
                f"over {len(segment)} segments and {len(minute)} minutes"
            )
        trip = np.repeat(np.arange(len(per_trip), dtype=np.int64), per_trip)
        return Replay(bike_of_trip, homes, trip_ids, TripEvents(trip, segment, minute)), meta
