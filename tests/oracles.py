"""Independent reference implementations the tests check production code against.

Everything here is deliberately brute-force and self-contained: path
enumeration instead of Dijkstra, full allocation enumeration instead of
branch and bound, direct set unions instead of interval scoring. Keep these
free of calls into the production modules they are used to verify.
"""

import csv
import heapq
import itertools
import json
import math
from bisect import bisect_left, insort
from collections import Counter
from datetime import datetime

import numpy as np

from velosense.network import Path, nearest_node, route_pairs


def all_simple_paths(adjacency, origin, dest):
    """Yield (node_list, distance) for every simple path via DFS.

    `adjacency` maps node -> list of (neighbor, length).
    """
    stack = [(origin, [origin], 0.0)]
    while stack:
        node, path, dist = stack.pop()
        if node == dest:
            yield path, dist
            continue
        for neighbor, length in adjacency[node]:
            if neighbor not in path:
                stack.append((neighbor, path + [neighbor], dist + length))


def brute_shortest_distance(adjacency, origin, dest):
    """Minimum simple-path distance, or None when unreachable."""
    if origin == dest:
        return 0.0
    best = None
    for _path, dist in all_simple_paths(adjacency, origin, dest):
        if best is None or dist < best:
            best = dist
    return best


def adjacency_with_lengths(net):
    """Plain adjacency map (node -> [(neighbor, length)]) from a network."""
    return {
        node: [(v, float(net.seg_length_m[seg])) for v, seg in net.adjacency[node]]
        for node in range(net.num_nodes)
    }


def enumerate_sensor_vectors(caps, budget):
    """Every integer vector with 0 <= n_s <= caps[s] and sum <= budget."""
    ranges = [range(c + 1) for c in caps]
    for vec in itertools.product(*ranges):
        if sum(vec) <= budget:
            yield vec


def allocation_objective(p_dense, lengths, K, n, eps=1e-9):
    """Length of segments whose expected coverage reaches K under vector n."""
    num_segments = len(lengths)
    total = 0.0
    for e in range(num_segments):
        coverage = sum(p_dense[s][e] * n[s] for s in range(len(n)))
        if coverage >= K - eps:
            total += lengths[e]
    return total


def best_allocation_objective(p_dense, lengths, caps, budget, K, eps=1e-9):
    """Exhaustive maximum of the coverage objective."""
    best = 0.0
    for vec in enumerate_sensor_vectors(caps, budget):
        obj = allocation_objective(p_dense, lengths, K, vec, eps)
        if obj > best:
            best = obj
    return best


def touched_length_fraction_pct(log, lengths, t0, t_end):
    """Share of total length on segments any trip enters within the horizon.

    Recomputes segment entry minutes from first principles (cumulative
    distance at constant speed, floored to the minute).
    """
    covered = set()
    for trip in log.trips:
        cum = 0.0
        for seg, seg_len in zip(trip.path.segments, trip.path.seg_lengths_m):
            enter = trip.start_min + math.floor(cum / log.speed_m_per_min)
            if t0 <= enter <= t_end:
                covered.add(seg)
            cum += seg_len
    total = float(sum(lengths))
    return 100.0 * sum(float(lengths[seg]) for seg in covered) / total


def rank_correlation(xs, ys):
    """Spearman rho computed from scratch (average ranks for ties)."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return cov / (vx * vy)


def _timestamp_or_none(text):
    text = text.strip()
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%m/%d/%Y %H:%M"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


def parse_trips_by_dict(source):
    """A trip file read row by row through csv.DictReader, with a timestamp parse
    per row: the reference for trips.parse_raw_trips. Returns one (id, start
    time, start lat, start lon, end lat, end lon) tuple per kept row and the
    report's counts, or raises ValueError on missing columns."""
    reader = csv.DictReader(source)
    fields = reader.fieldnames or []
    required = ("started_at", "start_lat", "start_lng", "end_lat", "end_lng")
    if any(c not in fields for c in required):
        raise ValueError("trip file is missing columns")
    has_ride_id = "ride_id" in fields
    report = {"rows_read": 0, "kept": 0, "missing_coords": 0, "bad_timestamp": 0}
    trips = []
    for row_no, row in enumerate(reader, start=1):
        report["rows_read"] += 1
        try:
            coords = [float(row[c]) for c in ("start_lat", "start_lng", "end_lat", "end_lng")]
            if not all(math.isfinite(c) for c in coords):
                raise ValueError
        except (TypeError, ValueError):
            report["missing_coords"] += 1
            continue
        started = _timestamp_or_none(row["started_at"] or "")
        if started is None:
            report["bad_timestamp"] += 1
            continue
        trip_id = row["ride_id"] if has_ride_id and row["ride_id"] else f"row-{row_no}"
        trips.append((trip_id, started, *coords))
        report["kept"] += 1
    return trips, report


def clean_trips_by_row(raw, net, speed_kmh=13.0, min_km=0.5, max_km=5.0, window=(360, 1320)):
    """Rides cleaned row by row, the way trips.clean_trips cleaned them before it
    worked in columns: the reference for its columns, path table, stands and drop
    counts. Snapping and routing are the network's (nearest_node, route_pairs).

    `raw` holds parse_raw_trips' columns. Returns the log's trip columns as lists
    ("ids", "origin", "dest", "start_min", "duration_min", "path"), its path table
    ("paths"), its stand nodes by stand id ("stand_nodes") and "drop_counts".
    """
    t0, t_end = window
    speed_m_per_min = speed_kmh * 1000.0 / 60.0
    min_m, max_m = min_km * 1000.0, max_km * 1000.0
    rides = list(zip(raw.id, raw.start, raw.coords.tolist()))

    day = min((start.date() for _id, start, _xy in rides), default=None)
    same_day = [ride for ride in rides if ride[1].date() == day]
    drops = {
        "other_day": len(rides) - len(same_day),
        "window": 0,
        "too_short": 0,
        "too_long": 0,
        "unreachable": 0,
    }

    snap = {}
    for _id, _start, (s_lat, s_lon, e_lat, e_lon) in same_day:
        for coord in ((s_lat, s_lon), (e_lat, e_lon)):
            if coord not in snap:
                snap[coord] = nearest_node(net, coord[0], coord[1])
    stand_nodes = sorted(set(snap.values()))
    stand_of_node = {node: i for i, node in enumerate(stand_nodes)}

    in_window = []  # (start minute, trip id, (origin node, dest node)) per trip
    for trip_id, start, (s_lat, s_lon, e_lat, e_lon) in same_day:
        start_min = start.hour * 60 + start.minute
        if not t0 <= start_min <= t_end:
            drops["window"] += 1
            continue
        in_window.append((start_min, trip_id, (snap[(s_lat, s_lon)], snap[(e_lat, e_lon)])))

    paths = route_pairs(net, dict.fromkeys(pair for _start, _id, pair in in_window))
    in_window.sort(key=lambda row: row[0])  # service order; stable: ties keep input order
    table = []  # each kept pair's path once, in order of first use
    fate = {}  # drop reason, or (origin, dest, duration, path index)
    kept = []  # one (id, origin, dest, start_min, duration_min, path index) per kept trip
    for start_min, trip_id, pair in in_window:
        if pair not in fate:
            path = paths.get(pair)
            if path is None:
                fate[pair] = "unreachable"
            elif path.distance_m < min_m:
                fate[pair] = "too_short"
            elif path.distance_m > max_m:
                fate[pair] = "too_long"
            else:
                duration = max(1, math.ceil(path.distance_m / speed_m_per_min))
                fate[pair] = (stand_of_node[pair[0]], stand_of_node[pair[1]], duration, len(table))
                table.append(path)
        outcome = fate[pair]
        if isinstance(outcome, str):
            drops[outcome] += 1
            continue
        o_stand, d_stand, duration, path_idx = outcome
        kept.append((trip_id, o_stand, d_stand, start_min, duration, path_idx))

    names = ("ids", "origin", "dest", "start_min", "duration_min", "path")
    columns = dict(zip(names, map(list, zip(*kept)))) if kept else dict.fromkeys(names, [])
    return {**columns, "paths": table, "stand_nodes": stand_nodes, "drop_counts": drops}


def traversal_times(trip, speed_m_per_min):
    """(segment, enter minute) for each segment on the trip's path, trip by trip:
    the reference for a log's event table.

    A segment's timestamp is the minute the bike enters it: start time plus
    the cumulative distance before the segment at constant speed, floored.
    """
    events = []
    cum = 0.0
    for seg, length in zip(trip.path.segments, trip.path.seg_lengths_m):
        events.append((seg, trip.start_min + int(cum // speed_m_per_min)))
        cum += length
    return events


def per_bike_assembly(trips, trip_events, bike_of_trip, homes):
    """(bike, home, served ids, events) per bike, assembled bike by bike.

    Trips go to their bike in service order (start minute, then log order),
    each contributing its `trip_events` entry, the way a replay's per-bike
    lists were built before replays became an assignment vector.
    """
    served = {bike: [] for bike in range(len(homes))}
    for i in sorted(range(len(trips)), key=lambda i: (trips[i].start_min, i)):
        served[int(bike_of_trip[i])].append(i)
    return [
        (
            bike,
            int(homes[bike]),
            [trips[i].id for i in rows],
            [event for i in rows for event in trip_events[i]],
        )
        for bike, rows in served.items()
    ]


def initial_bike_counts_by_trip(log):
    """Minimal initial bikes per stand, from a net flow grid filled one trip at a
    time: each departure takes a bike at its start minute, and each return
    inside the horizon gives one back at its end minute."""
    t0, t_end = log.horizon
    width = t_end - t0 + 1
    flow = np.zeros((log.num_stands, width), dtype=np.int64)
    for trip in log.trips:
        flow[trip.origin, trip.start_min - t0] -= 1
        if trip.end_min <= t_end:
            flow[trip.dest, trip.end_min - t0] += 1
    balance = np.cumsum(flow, axis=1)
    b = np.maximum(0, -balance.min(axis=1)) if width > 0 else np.zeros(log.num_stands, int)
    return [int(x) for x in b]


def idle_before_departure(log, b):
    """Idle bikes at each row's origin just before its trip leaves, from stands
    holding b bikes at the start, walking the rows in order with one count per
    stand. A trip's bike is back at its destination from its end minute on, so
    it can leave again that minute; a count may go negative when b is short."""
    idle = [int(count) for count in b]
    under_way = []  # heap of (end minute, destination)
    out = []
    columns = (log.origin, log.dest, log.start_min, log.duration_min)
    for origin, dest, start, duration in zip(*(column.tolist() for column in columns)):
        while under_way and under_way[0][0] <= start:
            idle[heapq.heappop(under_way)[1]] += 1
        out.append(idle[origin])
        idle[origin] -= 1
        heapq.heappush(under_way, (start + duration, dest))
    return out


def simulate_by_minute(log, b, cfg):
    """(bike_of_trip, homes) of a replay that walks every minute of the horizon.

    The replay as it was before it walked the log's rows once: each minute
    releases the bikes booked to return then, then serves that minute's
    trips in log order, each with one numpy Generator.random() call for the
    guidance test and one Generator.integers(0, n) call for the pick. Stand s
    owns bike ids sum(b[:s]) .. sum(b[:s+1]) - 1, numbered stand by stand.
    """
    bikes, next_id = [], 0
    for count in b:
        bikes.append(list(range(next_id, next_id + int(count))))
        next_id += int(count)
    homes = [stand for stand, ids in enumerate(bikes) for _bike in ids]

    t0, t_end = log.horizon
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    equipped = frozenset(cfg.equipped)

    idle = [sorted(ids) for ids in bikes]
    returns = {}
    trips_at = {}
    for i, trip in enumerate(log.trips):
        trips_at.setdefault(trip.start_min, []).append(i)

    bike_of_trip = [0] * len(log.trips)
    for minute in range(t0, t_end + 1):
        for bike, stand in returns.pop(minute, ()):
            insort(idle[stand], bike)
        for i in trips_at.get(minute, ()):
            trip = log.trips[i]
            u = rng.random()
            pool = idle[trip.origin]
            if not pool:
                raise AssertionError(f"no idle bike at stand {trip.origin} at minute {minute}")
            if u < cfg.beta:
                equipped_pool = [b for b in pool if b in equipped]
                chosen_pool = equipped_pool if equipped_pool else pool
            else:
                chosen_pool = pool
            bike = chosen_pool[int(rng.integers(0, len(chosen_pool)))]
            pool.remove(bike)
            bike_of_trip[i] = bike
            returns.setdefault(trip.end_min, []).append((bike, trip.dest))
    return bike_of_trip, homes


def coverage_counts_loop(trajectories, equipped, t0, t_end, delta_min, num_segments):
    """Equipped entries per (segment, interval), one event at a time.

    `trajectories` holds (bike, events) pairs. Events outside [t0, t_end]
    are dropped; an event at t_end joins the last interval.
    """
    n_intervals = (t_end - t0) // delta_min
    counts = [[0] * n_intervals for _ in range(num_segments)]
    for bike, events in trajectories:
        if bike not in equipped:
            continue
        for seg, minute in events:
            if not t0 <= minute <= t_end:
                continue
            interval = n_intervals - 1 if minute == t_end else (minute - t0) // delta_min
            counts[seg][interval] += 1
    return counts


def counter_tally(runs_of_trajectories, label):
    """Counter of traversals per (label(bike, home), segment) over every run,
    each run a list of (bike, home, events); bikes labelled None are skipped."""
    totals = Counter()
    for trajectories in runs_of_trajectories:
        for bike, home, events in trajectories:
            key = label(bike, home)
            if key is not None:
                totals.update((key, seg) for seg, _minute in events)
    return totals


def mean_coverage_counter(runs_of_trajectories):
    """Mean traversals per (home stand, segment), keys in sorted order."""
    runs = len(runs_of_trajectories)
    totals = counter_tally(runs_of_trajectories, lambda bike, home: home)
    return {key: count / runs for key, count in sorted(totals.items())}


def linearity_probe_counter(runs_of_trajectories, stand_bikes, stands, min_mean):
    """Through-origin refit of mean coverage against tracked bikes per stand,
    from a Counter tally; `stand_bikes[s]` lists stand s's bikes in fleet order."""
    runs = len(runs_of_trajectories)
    bike_rank = {}
    for stand in set(stands):
        for rank, bike in enumerate(stand_bikes[stand]):
            bike_rank[bike] = (stand, rank)
    totals = counter_tally(runs_of_trajectories, lambda bike, home: bike_rank.get(bike))
    results = []
    for stand in sorted(set(stands)):
        b = len(stand_bikes[stand])
        if b < 2:
            continue
        for seg in sorted({seg for ((s, _r), seg) in totals if s == stand}):
            ys, acc = [], 0.0
            for r in range(b):
                acc += totals[((stand, r), seg)] / runs
                ys.append(acc)
            if ys[-1] < min_mean:
                continue
            xs = list(range(1, b + 1))
            slope = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
            ss_res = sum((y - slope * x) ** 2 for x, y in zip(xs, ys))
            ss_tot = sum(y * y for y in ys)
            results.append((stand, seg, slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0, b))
    return results


def column_dict(stand, segment, values):
    """{(stand, segment): value} of three aligned columns, in column order."""
    return dict(zip(zip(stand.tolist(), segment.tolist()), values.tolist()))


def dict_columns(entries):
    """(stand, segment, value) columns of a {(stand, segment): value} dict, sorted by key."""
    keys = sorted(entries)
    stand, segment = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    return stand, segment, np.array([entries[key] for key in keys], dtype=np.float64)


class SparseAllocation:
    """An allocation instance as per-stand and per-segment lists of (id, p),
    the dict-based layout the dense solvers are checked against.

    `p_entries` maps (stand, segment) to p; entries with p <= 0 are dropped.
    `budget` must already be clamped to the total capacity.
    """

    def __init__(self, p_entries, lengths, caps, budget, K=1.0):
        self.cols = [[] for _ in caps]  # per stand: (segment, p), segment-sorted
        self.rows = {}  # per candidate segment: (stand, p), stand-sorted
        for (stand, seg), p in sorted(p_entries.items()):
            if p <= 0:
                continue
            self.cols[stand].append((seg, p))
            self.rows.setdefault(seg, []).append((stand, p))
        self.candidates = sorted(self.rows)
        self.lengths = lengths
        self.caps = list(caps)
        self.budget = budget
        self.K = K


def evaluate_sparse(inst, n, gap=0.0, eps=1e-9):
    """(n, objective_m, N_e, y, gap) of a sensor vector, accumulated in dicts."""
    N_e = {}
    for stand, count in enumerate(n):
        if count == 0:
            continue
        for seg, p in inst.cols[stand]:
            N_e[seg] = N_e.get(seg, 0.0) + p * count
    y = {seg: N_e.get(seg, 0.0) >= inst.K - eps for seg in inst.candidates}
    objective = float(sum(inst.lengths[seg] for seg, covered in y.items() if covered))
    return list(n), objective, N_e, y, gap


def solve_exact_sparse(inst, eps=1e-9):
    """Depth-first branch and bound over dicts, without a time limit; the
    same node order, bound and incumbent rule as allocation.solve_exact."""
    S = len(inst.caps)
    threshold = inst.K - eps
    suffix = [dict() for _ in range(S + 1)]
    for i in range(S - 1, -1, -1):
        acc = dict(suffix[i + 1])
        for seg, p in inst.cols[i]:
            acc[seg] = acc.get(seg, 0.0) + p * inst.caps[i]
        suffix[i] = acc

    best_n = [0] * S
    best_obj = 0.0
    cover = {seg: 0.0 for seg in inst.candidates}
    n = [0] * S

    def leaf_objective():
        acc = {seg: 0.0 for seg in inst.candidates}
        for stand in range(S):
            count = n[stand]
            if count:
                for seg, p in inst.cols[stand]:
                    acc[seg] += p * count
        return float(sum(inst.lengths[seg] for seg, val in acc.items() if val >= threshold))

    def bound(i, rem):
        cur = 0.0
        potential = 0.0
        ahead = suffix[i]
        for seg, val in cover.items():
            if val >= threshold:
                cur += inst.lengths[seg]
            elif rem > 0 and val + ahead.get(seg, 0.0) >= threshold:
                potential += inst.lengths[seg]
        return cur + potential

    def dfs(i, rem):
        nonlocal best_obj, best_n
        if i == S or rem == 0:
            obj = leaf_objective()
            if obj > best_obj:
                best_obj = obj
                best_n = list(n)
            return
        if bound(i, rem) <= best_obj:
            return
        for count in range(min(inst.caps[i], rem), -1, -1):
            n[i] = count
            if count:
                for seg, p in inst.cols[i]:
                    cover[seg] += p * count
            dfs(i + 1, rem - count)
            if count:
                for seg, p in inst.cols[i]:
                    cover[seg] -= p * count
            n[i] = 0

    dfs(0, inst.budget)
    return evaluate_sparse(inst, best_n, eps=eps)


def greedy_order_full_width(P, lengths, caps, budget, K=1.0, eps=1e-9):
    """The stand each marginal-gain round picks, scoring every candidate
    column in every round, covered or not, with covered ones masked to 0.0.

    `P` is [stand, candidate] and `lengths` the candidates' lengths. Sums run
    left to right (np.cumsum), the order allocation.greedy_order keeps.
    """
    caps = np.asarray(caps)
    threshold = K - eps
    n = np.zeros(len(caps), dtype=np.int64)
    cover = np.zeros(P.shape[1])

    def row_sums(x):
        return np.cumsum(x, axis=1)[:, -1] if x.shape[1] else np.zeros(x.shape[0])

    order = []
    for _ in range(budget):
        open_stands = n < caps
        if not open_stands.any():
            break
        uncovered = cover < threshold
        newly = row_sums(np.where(uncovered & (cover + P >= threshold), lengths, 0.0))
        progress = row_sums(np.where(uncovered, lengths * np.minimum(P, K - cover), 0.0))
        newly = np.where(open_stands, newly, -np.inf)
        choice = int(np.argmax(np.where(newly == newly.max(), progress, -np.inf)))
        order.append(choice)
        n[choice] += 1
        cover += P[choice]
    return order


def solve_greedy_sparse(inst, eps=1e-9):
    """Marginal-gain greedy then first-improvement pairwise swaps, one stand
    and one segment at a time; the rules of allocation.solve_greedy."""
    S = len(inst.caps)
    threshold = inst.K - eps
    n = [0] * S
    cover = {seg: 0.0 for seg in inst.candidates}

    def gains(stand):
        newly = 0.0
        progress = 0.0
        for seg, p in inst.cols[stand]:
            val = cover[seg]
            if val >= threshold:
                continue
            if val + p >= threshold:
                newly += inst.lengths[seg]
            progress += inst.lengths[seg] * min(p, inst.K - val)
        return newly, progress

    for _ in range(inst.budget):
        choice = None
        choice_key = None
        for stand in range(S):
            if n[stand] >= inst.caps[stand]:
                continue
            newly, progress = gains(stand)
            key = (-newly, -progress, stand)
            if choice_key is None or key < choice_key:
                choice_key = key
                choice = stand
        if choice is None:
            break
        n[choice] += 1
        for seg, p in inst.cols[choice]:
            cover[seg] += p

    def swap_delta(src, dst):
        touched = {seg: -p for seg, p in inst.cols[src]}
        for seg, p in inst.cols[dst]:
            touched[seg] = touched.get(seg, 0.0) + p
        delta = 0.0
        for seg in sorted(touched):
            change = touched[seg]
            before = cover[seg] >= threshold
            after = cover[seg] + change >= threshold
            if before != after:
                delta += inst.lengths[seg] if after else -inst.lengths[seg]
        return delta

    improved = True
    while improved:
        improved = False
        for src in range(S):
            if n[src] == 0:
                continue
            for dst in range(S):
                if dst == src or n[dst] >= inst.caps[dst]:
                    continue
                if swap_delta(src, dst) > eps:
                    n[src] -= 1
                    n[dst] += 1
                    for seg, p in inst.cols[src]:
                        cover[seg] -= p
                    for seg, p in inst.cols[dst]:
                        cover[seg] += p
                    improved = True
                    break
            if improved:
                break

    return evaluate_sparse(inst, n, eps=eps)


def requirement_by_interval(deltas, fleet_size, target_phi_pct, mean_phi):
    """The sensor-requirement search one interval at a time, each with its own
    memo and its own bisect_left over budgets 0 .. fleet_size - 1.

    `mean_phi(budget, delta_h)` is the mean score of the budget's plan at one
    interval; the target is positive. Returns the rows as (delta_h, target,
    budget or None, achieved, monotone_ok) tuples, and per interval the
    budgets the search scored.
    """
    rows, scored = [], {}
    for delta_h in deltas:
        memo = {0: 0.0}  # no sensors score 0

        def score(budget):
            if budget not in memo:
                memo[budget] = mean_phi(budget, delta_h)
            return memo[budget]

        top = score(fleet_size)
        if top < target_phi_pct:
            rows.append((delta_h, target_phi_pct, None, top, True))
        else:
            found = bisect_left(range(fleet_size), True, key=lambda budget: score(budget) >= target_phi_pct)
            evaluated = sorted(memo.items())
            monotone = all(a[1] <= b[1] + 1e-9 for a, b in zip(evaluated, evaluated[1:]))
            rows.append((delta_h, target_phi_pct, found, memo[found], monotone))
        scored[delta_h] = sorted(budget for budget in memo if budget > 0)
    return rows, scored


# SHA-256 of the velosense-triplog-v4 file of each fixture, as the v4 writer wrote it
TRIPLOG_V4_SHA256 = {
    "reference-fixture": "9974936a232d2d0bccd13e74c16b5c10834386f0badddcab48e95005cc260b4a",
    "seed-5-chain": "4d5b469972176adcd4ee01d4530a33e47e47630bc15c87e992bcc338708f6b4e",
}


def save_triplog_v4(log, path):
    """Write `log` as a velosense-triplog-v4 file, as the v4 writer did: the path
    table as flat columns (nodes and entry lengths included) and every trip
    column, stands and duration included, encoded by one compact `json.dumps`.
    The reference a file in the current format must load back to."""
    table = log.path_table
    doc = {
        "format": "velosense-triplog-v4",
        "network_sha256": log.network_sha256,
        "horizon": log.horizon,
        "speed_m_per_min": log.speed_m_per_min,
        "drop_counts": log.drop_counts,
        "stands": [{"stand": s.id, "node": s.node} for s in log.stands],
        "paths": {
            "count": table.count.tolist(),
            "segments": table.segments.tolist(),
            "nodes": log.path_nodes.tolist(),
            "seg_lengths_m": log.entry_length_m.tolist(),
            "distance_m": log.path_distance_m.tolist(),
        },
        "trips": {
            "id": log.ids,
            "origin": log.origin.tolist(),
            "dest": log.dest.tolist(),
            "start_min": log.start_min.tolist(),
            "duration_min": log.duration_min.tolist(),
            "path": log.path.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))


def paths_of_triplog_v4(doc):
    """The path table of a decoded v4 document, one Path per path: `count` segments
    and lengths each, and one node more."""
    table, paths, first = doc["paths"], [], 0
    for i, (count, distance) in enumerate(zip(table["count"], table["distance_m"])):
        end = first + count
        nodes = tuple(table["nodes"][first + i : end + i + 1])
        lengths = tuple(table["seg_lengths_m"][first:end])
        paths.append(Path(tuple(table["segments"][first:end]), nodes, lengths, distance))
        first = end
    return paths


def random_allocation_by_rescan(caps, budget, seed):
    """Sensor counts of the uniform random baseline as it first drew them: for each
    sensor, list the stands with spare capacity in ascending order and draw one."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = [0] * len(caps)
    for _ in range(budget):
        open_stands = [s for s in range(len(caps)) if n[s] < caps[s]]
        if not open_stands:
            break
        n[open_stands[int(rng.integers(0, len(open_stands)))]] += 1
    return n
