"""Fleet sizing and trip replay.

Two pieces read the log's service schedule: the minimal per-stand initial
bike counts, which a plan must reach for replay to run, and the replay of the
trip log once in row (service) order, assigning physical bikes to trips. Replay
optionally biases bike selection toward sensor-equipped bikes (guided selection
accepted with probability beta). A replay is only the bike of each trip (see
Replay), and `traj.json` stores that column; the events a replay covers are
the log's. Per-bike trajectories are views built only when a replay is
iterated. `check_replay` refuses a replay that no run of the log's minimal
fleet could give.

RNG stream, per trip in log order, from one numpy PCG64 seeded with the
replay's seed: first a guidance draw, one whole 64-bit word whose top 53 bits
over 2**53 are tested against beta; then a pick draw indexing the chosen idle
pool, a Lemire bounded draw on 32 bits (redrawn on rejection): the high half
of a word an earlier pick left over, else the low half of a fresh word, whose
high half is then left over. A pool of one bike takes no bits. These are the
draws numpy's Generator.random() and Generator.integers(0, n) make; replay
computes them from the bit generator's raw words. Every trip takes its
guidance draw whatever beta is, and a pick depends only on the size of the
pool it indexes. With beta=0 the guidance test never passes, so every pick
indexes the whole idle pool, exactly as an unguided run's picks do: the two
consume the same stream and are bit-identical under the same seed.

Replay takes one of three paths; two read the stream in one numpy pass. An
unguided replay (beta=0 or no equipped bike) knows every row's pool size
before it starts (TripLog.schedule). At beta=1 a row rides an equipped bike
exactly when one is idle at its origin: the guidance word's top 53 bits over
2**53 are always below 1, so no draw decides it. A draw-free scan of the
schedule with one idle-equipped counter per stand (_equipped_rows) then gives
every row's pool, equipped or unequipped, and its size; every row still spends
its guidance word, so the words read are the inline loop's. Both take all
their picks in one pass (_unguided_picks), and one row loop moves the bikes
(_bikes_from_picks). A pick over n bikes is rejected with a chance below
n / 2**32, a few times in 10**5 replays of a few thousand trips; the pass
then draws every row inline instead. At 0 < beta < 1 a row's pool hangs on
its guidance draw and on earlier picks, so that replay reads each row's
words inline (_guided_bikes). All three finish a rejected draw with _redraw.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np
from numpy.random import PCG64

from .errors import (
    InfeasiblePlanError, MalformedInputError, int_column, read_artifact, str_column, write_json,
)
from .trips import TripLog

TRAJ_FORMAT = "velosense-traj-v3"
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


@dataclass(frozen=True, eq=False)
class Replay:
    """Which bike served each trip of a log, its rows in service order.

    Counting selects the log's events by their trip's rode flag (rode);
    iterating yields per-bike BikeTrajectory views, built on first use. Two
    replays are equal when their columns are.
    """

    bike_of_trip: np.ndarray  # int64 per trip row
    homes: np.ndarray  # int64 per bike: home stand
    trip_ids: list[str]  # per trip row

    def rode(self, equipped: frozenset[int] | set[int]) -> np.ndarray:
        """Whether each trip row rode one of the equipped bikes."""
        is_equipped = np.zeros(len(self.homes), dtype=bool)
        is_equipped[np.fromiter(equipped, dtype=np.int64, count=len(equipped))] = True
        return is_equipped[self.bike_of_trip]

    @cached_property
    def _views(self) -> list[BikeTrajectory]:
        served: list[list[str]] = [[] for _ in self.homes]
        for trip_id, bike in zip(self.trip_ids, self.bike_of_trip.tolist()):
            served[bike].append(trip_id)
        return [BikeTrajectory(bike, home, served[bike]) for bike, home in enumerate(self.homes.tolist())]

    def __len__(self) -> int:
        return len(self.homes)

    def __iter__(self):
        return iter(self._views)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Replay):
            return NotImplemented
        mine, theirs = (self.bike_of_trip, self.homes), (other.bike_of_trip, other.homes)
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


_CHUNK = 4096  # words an inline draw takes from numpy at a time
_LOW32 = 0xFFFFFFFF


def _word_stream(bitgen, words=()):
    """An iterator over `words`, then over bitgen's next raw words, as ints."""
    return chain(words, chain.from_iterable(iter(lambda: bitgen.random_raw(_CHUNK).tolist(), None)))


def _redraw(m: int, n: int, half: int | None, next_word) -> tuple[int, int | None]:
    """Finish Lemire's bounded draw over n from its first product m (32 bits
    times n): while m's low half is below 2**32 % n, redraw 32 bits, the
    pending high half `half` if there is one, else the low half of
    next_word(), whose high half is then pending. Returns the pick and the
    pending half."""
    threshold = (1 << 32) % n
    while m & _LOW32 < threshold:
        if half is None:
            word = next_word()
            m, half = (word & _LOW32) * n, word >> 32
        else:
            m, half = half * n, None
    return m >> 32, half


def _unguided_picks(seed: int, sizes: np.ndarray) -> np.ndarray:
    """The pick of every row of a replay whose pool sizes are known before it
    starts, an index into a pool of sizes[row] bikes, from the words of
    PCG64(seed).

    Pool sizes do not depend on the picks, so until a draw is rejected every
    word's use is known: each row skips its guidance word, and each pool of
    two or more bikes takes the high half an earlier pick left over, else the
    low half of a fresh word. One pass lays every row out and draws them all.
    A rejected draw (a chance below n / 2**32 per pick) moves every word after
    it, so then the pass's picks are dropped and every row is drawn inline,
    from the words the pass took and then on."""
    sizes = np.asarray(sizes, dtype=np.uint64)
    bitgen = PCG64(seed)
    drawing = np.flatnonzero(sizes > 1)
    fresh = drawing[::2]  # the rows whose pick takes a fresh word
    words = bitgen.random_raw(len(sizes) + len(fresh))
    # a fresh word follows the guidance words up to its row's and the fresh words before it
    word = words[fresh + 1 + np.arange(len(fresh))]
    u = np.empty(len(drawing), dtype=np.uint64)
    u[::2] = word & _LOW32
    u[1::2] = (word >> 32)[: len(drawing) // 2]
    m = u * sizes[drawing]
    picks = np.zeros(len(sizes), dtype=np.int64)
    if not (m & _LOW32 < np.uint64(1 << 32) % sizes[drawing]).any():
        picks[drawing] = m >> 32
        return picks
    next_word, half = _word_stream(bitgen, words.tolist()).__next__, None
    for row, n in enumerate(sizes.tolist()):
        next_word()
        if n > 1:
            if half is None:
                word = next_word()
                m, half = (word & _LOW32) * n, word >> 32
            else:
                m, half = half * n, None
            picks[row], half = _redraw(m, n, half, next_word)
    return picks


def _bikes_from_picks(
    log: TripLog, idle: list[list[int]], take_from: np.ndarray, return_to: np.ndarray, picks: np.ndarray
) -> list[int]:
    """The bike of each row when row i takes bike picks[i] of the ascending
    pool idle[take_from[i]], and its bike goes back to idle[return_to[i]] once
    its trip has ended."""
    schedule = log.schedule
    returns, return_to = schedule.returns.tolist(), return_to.tolist()
    bike_of_trip = [0] * len(return_to)
    r = 0
    for i, (pool, returned_by_start, k) in enumerate(
        zip(take_from.tolist(), schedule.returned.tolist(), picks.tolist())
    ):
        while r < returned_by_start:
            done = returns[r]
            r += 1
            insort(idle[return_to[done]], bike_of_trip[done])
        bike_of_trip[i] = idle[pool].pop(k)
    return bike_of_trip


def _pool_sizes(log: TripLog, plan: FleetPlan) -> np.ndarray:
    """Each row's idle pool size, b[origin] + net + 1 (TripLog.schedule)."""
    return np.asarray(plan.b, dtype=np.int64)[log.origin] + log.schedule.net + 1


def _equipped_rows(log: TripLog, plan: FleetPlan, equipped: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row rides an equipped bike at beta=1, and the size of the
    pool it picks from. A row takes an equipped bike exactly when one is idle
    at its origin, and its pool is then the idle equipped bikes there;
    otherwise its pool is the stand's whole idle pool, which holds none. So
    one idle-equipped counter per stand, moved at departures and, in
    schedule.returns order, at the returns of trips that rode one, decides
    every row without a draw."""
    schedule = log.schedule
    idle = [sum(bike in equipped for bike in bikes) for bikes in plan.bikes]
    returns, dest = schedule.returns.tolist(), log.dest.tolist()
    rode = [False] * len(dest)
    equipped_sizes = [0] * len(dest)
    r = 0
    for i, (origin, returned_by_start) in enumerate(zip(log.origin.tolist(), schedule.returned.tolist())):
        while r < returned_by_start:
            done = returns[r]
            r += 1
            if rode[done]:
                idle[dest[done]] += 1
        n = idle[origin]
        if n:
            rode[i], equipped_sizes[i], idle[origin] = True, n, n - 1
    rode = np.array(rode, dtype=bool)
    return rode, np.where(rode, equipped_sizes, _pool_sizes(log, plan))


def _guided_bikes(log: TripLog, plan: FleetPlan, cfg: SimConfig) -> list[int]:
    """The bike of each row when guidance may steer picks to equipped bikes.
    Which pool a row picks from depends on earlier picks, so each row reads its
    guidance word and pick inline."""
    schedule = log.schedule
    is_equipped = [bike in cfg.equipped for bike in range(plan.num_bikes)]
    idle = plan.bikes  # per stand, ascending
    idle_equipped = [[bike for bike in pool if is_equipped[bike]] for pool in idle]
    returns, dest = schedule.returns.tolist(), log.dest.tolist()
    bitgen = PCG64(cfg.seed)
    next_word = _word_stream(bitgen).__next__
    scaled_beta = cfg.beta * 2.0**53  # word >> 11 < scaled_beta exactly when (word >> 11) * 2**-53 < beta
    half = None

    bike_of_trip = [0] * len(dest)
    r = 0
    for i, (origin, returned_by_start) in enumerate(zip(log.origin.tolist(), schedule.returned.tolist())):
        while r < returned_by_start:
            done = returns[r]
            r += 1
            bike = bike_of_trip[done]
            insort(idle[dest[done]], bike)
            if is_equipped[bike]:
                insort(idle_equipped[dest[done]], bike)
        pool, equipped_pool = idle[origin], idle_equipped[origin]
        if next_word() >> 11 < scaled_beta and equipped_pool:
            chosen, guided = equipped_pool, True
        else:
            chosen, guided = pool, False
        n = len(chosen)
        if n == 1:
            k = 0
        else:
            if half is None:
                word = next_word()
                m, half = (word & _LOW32) * n, word >> 32
            else:
                m, half = half * n, None
            if m & _LOW32 < n:  # only then can the draw be rejected
                k, half = _redraw(m, n, half, next_word)
            else:
                k = m >> 32
        bike = chosen.pop(k)
        if guided:
            del pool[bisect_left(pool, bike)]
        elif is_equipped[bike]:
            del equipped_pool[bisect_left(equipped_pool, bike)]
        bike_of_trip[i] = bike
    return bike_of_trip


def simulate(log: TripLog, plan: FleetPlan, cfg: SimConfig) -> Replay:
    """Replay the log row by row, recording the bike that serves each trip.

    Before a trip is served, every trip that has ended by its start minute
    returns its bike to its destination stand. A trip is served by a uniformly
    chosen idle bike at its origin stand, preferring an idle equipped bike when
    the guidance draw falls below cfg.beta and one is available. Idle counts do
    not depend on the choices (TripLog.schedule), so an infeasible plan fails
    before any draw.

    Three paths give the same bikes as the inline loop would. With beta=0 or no
    equipped bikes this is plain unguided replay, and every pool size is known
    up front. At beta=1 the guidance test always passes, so a row takes an
    equipped bike exactly when one is idle at its origin; a draw-free scan
    (_equipped_rows) gives each row's pool, 2 per stand (equipped, then
    unequipped), and its size. Both take every pick in one pass and move bikes
    in one row loop. At 0 < beta < 1 the loop draws inline (_guided_bikes).
    """
    if len(plan.b) != log.num_stands:
        raise MalformedInputError(f"plan covers {len(plan.b)} stands, log has {log.num_stands}")
    sizes = _pool_sizes(log, plan)
    short = np.flatnonzero(sizes < 1)
    if len(short):
        i = short[0]
        raise InfeasiblePlanError(f"no idle bike at stand {log.origin[i]} at minute "
                                  f"{log.start_min[i]} for trip {log.ids[i]}")
    if cfg.beta == 0 or not cfg.equipped:
        picks = _unguided_picks(cfg.seed, sizes)
        bike_of_trip = _bikes_from_picks(log, plan.bikes, log.origin, log.dest, picks)
    elif cfg.beta == 1:
        rode, chosen_sizes = _equipped_rows(log, plan, cfg.equipped)
        pools = [[bike for bike in bikes if bike in cfg.equipped] for bikes in plan.bikes]
        pools += [[bike for bike in bikes if bike not in cfg.equipped] for bikes in plan.bikes]
        unequipped = log.num_stands * ~rode  # pool s + S holds stand s's unequipped bikes
        picks = _unguided_picks(cfg.seed, chosen_sizes)
        bike_of_trip = _bikes_from_picks(log, pools, log.origin + unequipped, log.dest + unequipped, picks)
    else:
        bike_of_trip = _guided_bikes(log, plan, cfg)
    return Replay(np.array(bike_of_trip, dtype=np.int64), plan.home_stands(), log.ids)


def check_replay(log: TripLog, replay: Replay, equipped: frozenset[int], beta: float) -> None:
    """Raise MalformedInputError unless `replay`, at `beta` with the distinct
    bikes `equipped`, is one a run of `log` on its minimal fleet could give:
    its rows are the log's trips, its homes are that fleet's, each bike's
    first ride leaves its home, each later ride leaves the stand where the
    bike's ride before it ended, no earlier than that ride ended, `equipped`
    is the first n_s bikes of each stand s (equipped_set), and at beta=1 the
    rows that rode them are the scan's (_equipped_rows). At 0 < beta < 1 only
    a re-run could tie `equipped` to the rows."""
    if replay.trip_ids != log.ids:
        raise MalformedInputError("trip_ids are not the log's trips; re-run `velosense simulate`")
    fleet = initial_bike_counts(log)
    homes = fleet.home_stands()
    if not np.array_equal(replay.homes, homes):
        raise MalformedInputError(f"homes are not those of the log's minimal fleet of {len(homes)} bikes")
    order = np.argsort(replay.bike_of_trip, kind="stable")  # each bike's rows in service order
    bike, before = replay.bike_of_trip[order], np.roll(order, 1)  # the row before, if the bike's
    first = np.diff(bike, prepend=-1) != 0  # bike ids are >= 0
    at = np.where(first, homes[bike], log.dest[before])  # where and from when the bike waits
    ready = np.where(first, log.horizon[0], log.start_min[before] + log.duration_min[before])
    wrong = np.flatnonzero((log.origin[order] != at) | (log.start_min[order] < ready))
    if len(wrong):
        i = wrong[order[wrong].argmin()]  # the first in service order
        row = order[i]
        raise MalformedInputError(
            f"bike_of_trip puts trip {log.ids[row]}, which leaves stand {log.origin[row]} at minute "
            f"{log.start_min[row]}, on bike {bike[i]}, which waits at stand {at[i]} from minute {ready[i]}"
        )
    per_stand = np.bincount(homes[sorted(equipped)], minlength=len(fleet.b)).tolist()
    if equipped != equipped_set(fleet, per_stand):
        raise MalformedInputError("metadata.equipped is not the first bikes of each stand, as a plan equips them")
    if beta == 1 and not np.array_equal(replay.rode(equipped), _equipped_rows(log, fleet, equipped)[0]):
        raise MalformedInputError("metadata.equipped is not the set of bikes the beta=1 replay guided riders to")


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
    """Write a velosense-traj-v3 file: the metadata, then the replay's columns."""
    doc = {
        "format": TRAJ_FORMAT,
        "metadata": {
            "seed": cfg.seed,
            "beta": cfg.beta,
            "generator": GENERATOR_NAME,
            "equipped": sorted(cfg.equipped),
            "triplog_sha256": triplog_sha256,
        },
        "homes": replay.homes,
        "trip_ids": replay.trip_ids,
        "bike_of_trip": replay.bike_of_trip,
    }
    write_json(path, doc)


def load_trajectories(path) -> tuple[Replay, dict]:
    """Read a velosense-traj-v3 file into the Replay it was written from, and its
    metadata, whose `beta` is in [0, 1], whose `seed` and `generator` can re-run it
    (an int >= 0 and GENERATOR_NAME) and whose `equipped` holds distinct bikes of
    the replay. Any other format, v2 and v1 included, is rejected: `simulate`
    writes v3."""
    with read_artifact(path, TRAJ_FORMAT, "simulate") as doc:
        meta = doc["metadata"]
        check_beta(meta["beta"])
        seed, generator = meta.get("seed"), meta.get("generator")
        if type(seed) is not int or seed < 0:  # a bool is no seed
            raise MalformedInputError(f"{path}: metadata.seed must be an integer >= 0, got {seed!r}")
        if generator != GENERATOR_NAME:
            raise MalformedInputError(f"{path}: metadata.generator must be {GENERATOR_NAME!r}, got {generator!r}")
        homes = int_column(doc["homes"], path, "homes")
        equipped = int_column(meta["equipped"], path, "metadata.equipped", hi=len(homes))
        if (np.diff(np.sort(equipped)) == 0).any():  # a plain np.unique imports numpy.ma
            raise MalformedInputError(f"{path}: metadata.equipped lists a bike twice")
        trip_ids = str_column(doc["trip_ids"], path, "trip_ids")
        bike_of_trip = int_column(doc["bike_of_trip"], path, "bike_of_trip", hi=len(homes))
        if len(trip_ids) != len(bike_of_trip):
            raise MalformedInputError(f"{path}: {len(trip_ids)} trip_ids, {len(bike_of_trip)} bike_of_trip")
        return Replay(bike_of_trip, homes, trip_ids), meta
