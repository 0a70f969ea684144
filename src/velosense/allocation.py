"""Sensor-to-stand allocation.

Maximizes the total length of road segments whose expected coverage
N_e = sum_s p[s,e] * n_s reaches a threshold K, subject to a sensor budget
and per-stand capacities. Ships three solvers plus an LP-file exporter:

- solve_exact: depth-first branch and bound, provably optimal at test scale;
- solve_greedy: marginal-gain greedy plus pairwise-swap local search, for
  city-scale instances. Its rounds (greedy_order) do not depend on the
  budget, so a sweep runs them once at its largest budget and each budget's
  plan takes a prefix of that order before its own swap phase;
- random_allocation: the uniform baseline.

The instance holds p as one dense float64 array P[stand, candidate], where
the candidates are the segments some stand reaches, in ascending id order,
and the candidates' lengths aligned with its columns. Every solver and the
exporter read them. A plan is its sensor counts and objective; the coverage
alloc.json records is derived from the counts when the file is written.

A segment counts as covered when N_e >= K - 1e-9; the epsilon keeps the
threshold test stable when p values are float sums. Every sum whose value
feeds a comparison, a tie-break or an artifact adds its terms left to right:
over stands from stand 0, over candidates in ascending order, every greedy
score and swap delta included. Hence np.cumsum
(sequential) rather than ndarray.sum or @, whose pairwise or blocked order
differs in the last bit and flips real greedy ties.

The greedy computes only the entries that can change a pick: its rounds
stop scoring once every candidate is covered, and its rounds and swaps read
only the open stands and the candidates that can flip. Every term they drop
is exactly 0.0, because float rounding is monotone (a <= b implies
fl(c + a) <= fl(c + b)), and adding 0.0 leaves a sequential sum unchanged,
so its plans equal those of the full-width arrays to the last bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .coverage_model import CoverageMatrix
from .errors import MalformedInputError, int_column, read_artifact, write_json
from .fleet_sim import FleetPlan
from .network import RoadNetwork

ALLOC_FORMAT = "velosense-alloc-v1"

COVER_EPS = 1e-9


@dataclass
class MilpInstance:
    P: np.ndarray  # float64 [stand, candidate]: p of stand on segment candidates[j]
    lengths: np.ndarray  # meters, of segment candidates[j]
    caps: list[int]
    budget: int
    K: float
    big_M: float
    candidates: list[int]  # segments with a nonzero p column, ascending

    @property
    def num_stands(self) -> int:
        return len(self.caps)


@dataclass
class AllocationPlan:
    n: list[int]
    objective_m: float
    solver: str
    gap: float = 0.0
    triplog_sha256: str | None = None  # of the triplog it was solved for, as alloc.json records it


def _ordered_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along `axis`, adding its terms in index order from index 0."""
    if x.shape[axis] == 0:
        return x.sum(axis=axis)  # zeros: an empty sum has no order
    return np.take(np.cumsum(x, axis=axis), -1, axis=axis)


def _covered_length(lengths: np.ndarray, covered: np.ndarray) -> float:
    return float(_ordered_sum(lengths[covered], axis=0))


def _coverage(P: np.ndarray, n) -> np.ndarray:
    """N_e of every candidate under sensor vector n: P[s] * n_s, added stand by stand."""
    return _ordered_sum(P * np.asarray(n, dtype=np.float64)[:, None], axis=0)


def build_instance(
    matrix: CoverageMatrix,
    net: RoadNetwork,
    plan: FleetPlan,
    budget: int,
    K: float = 1.0,
) -> MilpInstance:
    """Assemble the allocation problem from estimated probabilities.

    big_M is the tightest uniform bound, K + max_e sum_s p[s,e]*b_s.
    Segments no stand ever reaches are excluded up front; they can never
    meet a positive threshold. A budget above the total fleet size is
    clamped to it rather than rejected, so capacity sweeps can over-provision
    harmlessly; `velosense allocate` warns when it clamps.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not 0 < K < math.inf:
        raise ValueError(f"K must be a finite number > 0, got {K}")
    num_stands = len(plan.b)
    budget = min(budget, sum(plan.b))

    stand, seg, p = matrix.stand, matrix.segment, matrix.p
    outside = (stand < 0) | (stand >= num_stands) | (seg < 0) | (seg >= net.num_segments)
    if outside.any():
        bad_stand, bad_seg = min(zip(stand[outside].tolist(), seg[outside].tolist()))
        raise MalformedInputError(
            f"probability for stand {bad_stand}, segment {bad_seg} is outside "
            f"{num_stands} stands x {net.num_segments} segments"
        )
    keep = p > 0
    candidates = np.flatnonzero(np.bincount(seg[keep], minlength=net.num_segments))
    P = np.zeros((num_stands, len(candidates)))
    P[stand[keep], np.searchsorted(candidates, seg[keep])] = p[keep]

    caps = [int(x) for x in plan.b]
    with np.errstate(over="ignore"):
        big_M = float(K + _coverage(P, caps).max(initial=0.0))
    if not math.isfinite(big_M):
        raise MalformedInputError("the big-M bound K + max_e sum_s p[s,e]*b_s overflows float64")
    return MilpInstance(
        P=P,
        lengths=np.asarray(net.seg_length_m, dtype=np.float64)[candidates],
        caps=caps,
        budget=int(budget),
        K=float(K),
        big_M=big_M,
        candidates=candidates.tolist(),
    )


def evaluate_allocation(inst: MilpInstance, n, solver: str, gap: float = 0.0) -> AllocationPlan:
    """The plan of a sensor vector: its counts and the length they cover."""
    n = [int(x) for x in n]
    if len(n) != inst.num_stands:
        raise MalformedInputError(f"expected {inst.num_stands} stand counts, got {len(n)}")
    for stand, count in enumerate(n):
        if not 0 <= count <= inst.caps[stand]:
            raise MalformedInputError(
                f"stand {stand}: count {count} outside 0..{inst.caps[stand]}"
            )
    if sum(n) > inst.budget:
        raise MalformedInputError(f"{sum(n)} sensors exceed budget {inst.budget}")
    covered = _coverage(inst.P, n) >= inst.K - COVER_EPS
    return AllocationPlan(n, _covered_length(inst.lengths, covered), solver, gap)


def solve_exact(inst: MilpInstance, time_limit_s: float = 60.0) -> AllocationPlan:
    """Depth-first branch and bound over integer sensor vectors.

    The node bound adds, on top of the lengths already covered, every
    still-uncovered segment that could reach K if the remaining stands
    contributed at full capacity. That over-promises (capacity is shared),
    so the bound is admissible and pruning is safe. Intended for small
    instances; on timeout the incumbent is returned with a nonzero gap. A
    time limit of inf means none.
    """
    if not time_limit_s >= 0.0:  # NaN fails too
        raise ValueError(f"time limit must be a number of seconds >= 0, got {time_limit_s}")
    S = inst.num_stands
    P = inst.P
    lengths = inst.lengths
    threshold = inst.K - COVER_EPS
    # suffix[i] = coverage attainable by stands i.. at full capacity, added
    # from the last stand down; suffix[S] = 0
    full = P * np.asarray(inst.caps, dtype=np.float64)[:, None]
    suffix = np.zeros((S + 1, len(inst.candidates)))
    suffix[:S] = np.cumsum(full[::-1], axis=0)[::-1]

    deadline = time.monotonic() + time_limit_s
    best_n = [0] * S
    best_obj = 0.0
    timed_out = False

    # incrementally maintained; used for bounds only (cancellation can leave
    # float residue, so leaves recompute their coverage from scratch)
    cover = np.zeros(len(inst.candidates))
    n = [0] * S

    def bound(i: int, rem: int) -> float:
        covered = cover >= threshold
        potential = ~covered & (cover + suffix[i] >= threshold) & (rem > 0)
        return _covered_length(lengths, covered) + _covered_length(lengths, potential)

    def dfs(i: int, rem: int) -> None:
        nonlocal best_obj, best_n, timed_out, cover
        if timed_out or time.monotonic() > deadline:
            timed_out = True
            return
        if i == S or rem == 0:
            obj = _covered_length(lengths, _coverage(P, n) >= threshold)
            if obj > best_obj:
                best_obj = obj
                best_n = list(n)
            return
        if bound(i, rem) <= best_obj:
            return
        hi = min(inst.caps[i], rem)
        for count in range(hi, -1, -1):  # descending finds strong incumbents early
            n[i] = count
            if count:
                cover += P[i] * count
            dfs(i + 1, rem - count)
            if count:
                cover -= P[i] * count
            n[i] = 0
            if timed_out:
                return

    dfs(0, inst.budget)
    gap = max(0.0, bound(0, inst.budget) - best_obj) if timed_out else 0.0
    return evaluate_allocation(inst, best_n, "exact", gap)


def _column_max(P: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The largest p of each column over `rows` (a stand mask); 0.0 when none."""
    return np.max(P, axis=0, where=rows[:, None], initial=0.0)


def greedy_order(inst: MilpInstance) -> list[int]:
    """The stand each marginal-gain round picks, up to `inst.budget` rounds.

    Each round adds one sensor to the open stand unlocking the most newly
    covered length; ties prefer the stand making the most progress toward
    still-uncovered thresholds, then the smallest id. Rounds stop early once
    every stand is full. No round depends on the budget, so one order serves
    every smaller budget as its prefix.

    A round computes only the entries that can change its pick; every sum it
    drops is a run of exact 0.0 terms, and adding 0.0 leaves a sequential
    sum unchanged, so ties break as they would at full width:
    - a covered candidate stays covered (p >= 0) and adds 0.0 to every
      newly and progress from then on, so its column goes for good;
    - newly is scored for the open stands only, on the candidates with
      cover + max_p >= K - eps, where max_p is the candidate's largest p over
      the open stands: on any other, cover + p < K - eps for every open
      stand, because rounding is monotone;
    - progress only breaks ties, so only the stands tied on newly score it.
    Once every candidate is covered, every open stand ties at 0.0 and 0.0
    and the smallest id wins each round, so the rest of the order is each
    open stand's spare capacity, in id order.
    """
    P = inst.P
    K = inst.K
    lengths = inst.lengths
    threshold = K - COVER_EPS
    caps = np.asarray(inst.caps)
    n = np.zeros(inst.num_stands, dtype=np.int64)
    cover = np.zeros(len(inst.candidates))
    is_open = caps > 0
    open_stands = np.flatnonzero(is_open)
    max_p = _column_max(P, is_open)
    order: list[int] = []

    while len(order) < inst.budget and len(open_stands):
        uncovered = cover < threshold
        if not uncovered.all():
            P, cover, lengths, max_p = P[:, uncovered], cover[uncovered], lengths[uncovered], max_p[uncovered]
        if not len(cover):
            break
        cols = np.flatnonzero(cover + max_p >= threshold)
        hits = cover[cols] + P[:, cols][open_stands] >= threshold
        newly = _ordered_sum(np.where(hits, lengths[cols], 0.0), axis=1)
        tied = open_stands[newly == newly.max()]
        choice = int(tied[0])
        if len(tied) > 1:
            progress = _ordered_sum(lengths * np.minimum(P[tied], K - cover), axis=1)
            # argmax takes the first maximum, so exact ties go to the smallest id
            choice = int(tied[np.argmax(progress)])
        order.append(choice)
        n[choice] += 1
        cover += P[choice]
        if n[choice] == caps[choice]:
            is_open[choice] = False
            open_stands = np.flatnonzero(is_open)
            max_p = _column_max(P, is_open)

    for stand in open_stands.tolist():
        order.extend([stand] * int(caps[stand] - n[stand]))
    return order[: inst.budget]


def solve_greedy(inst: MilpInstance, order: list[int] | None = None) -> AllocationPlan:
    """Marginal-gain greedy then first-improvement pairwise swaps.

    The rounds are `greedy_order`'s first `inst.budget` picks; pass `order`
    to share one order, computed at the largest budget of a sweep, between
    budgets. The swap phase then moves single sensors between stands while
    any move improves the objective, taking the first improving (src, dst)
    in id order. Fully deterministic: the plan is the same with or without
    `order`.

    A swap pass returns at once when every stand is full. Otherwise, for a
    source `src`, it scores the open stands other than `src`, and only on
    the candidates a move can flip: a covered one with
    cover - P[src] < K - eps, or an uncovered one with
    cover + (max_p - P[src]) >= K - eps, where max_p is the candidate's
    largest p over the open stands, taken once per pass. The tests add in
    the association the move's coverage does, cover + (P[dst] - P[src]),
    so monotone rounding proves that a dropped candidate stays covered, or
    stays uncovered, for every destination: its flip is 0.0, and each
    delta, summed over the kept candidates in ascending order, is the
    full-width delta to the last bit.

    Raises ValueError when an entry of `order` is not a stand index, or when
    `order` has fewer than `inst.budget` picks while a stand still has spare
    capacity (for instance, an order computed for a smaller budget).
    """
    if order is None:
        order = greedy_order(inst)
    P = inst.P
    lengths = inst.lengths
    threshold = inst.K - COVER_EPS
    caps = np.asarray(inst.caps)
    n = np.zeros(inst.num_stands, dtype=np.int64)
    cover = np.zeros(len(inst.candidates))

    picks = order[: inst.budget]
    for choice in picks:
        is_index = isinstance(choice, (int, np.integer)) and not isinstance(choice, bool)
        if not is_index or not 0 <= choice < inst.num_stands:
            raise ValueError(f"greedy order entry {choice!r} is not a stand index")
        n[choice] += 1
        cover += P[choice]  # round by round, as the rounds added it
    if len(picks) < inst.budget and (n < caps).any():
        raise ValueError(
            f"greedy order has {len(picks)} picks for budget {inst.budget}, "
            f"but stand {int(np.argmax(n < caps))} has spare capacity"
        )

    improved = True
    while improved:
        improved = False
        is_open = n < caps
        if not is_open.any():
            break
        open_stands = np.flatnonzero(is_open)
        before = cover >= threshold
        max_p = _column_max(P, is_open)
        for src in np.flatnonzero(n > 0).tolist():
            rows = open_stands[open_stands != src]
            # the candidates a move from src can flip: rounding is monotone,
            # so any other stays covered, or stays short of the threshold,
            # for every open destination
            moved = P[src]
            cols = np.flatnonzero(
                np.where(before, cover - moved < threshold, cover + (max_p - moved) >= threshold)
            )
            # row i of `after`: coverage once one sensor moves from src to rows[i]
            after = cover[cols] + (P[:, cols][rows] - moved[cols]) >= threshold
            flips = np.where(after != before[cols], np.where(after, lengths[cols], -lengths[cols]), 0.0)
            improving = _ordered_sum(flips, axis=1) > COVER_EPS
            if improving.any():
                dst = int(rows[np.argmax(improving)])
                n[src] -= 1
                n[dst] += 1
                cover -= P[src]
                cover += P[dst]
                improved = True
                break

    return evaluate_allocation(inst, n, "greedy")


def random_allocation(inst: MilpInstance, seed: int) -> AllocationPlan:
    """Uniform baseline: place each sensor at a random stand with spare capacity,
    drawn from the ascending list of such stands; a stand leaves it when it fills."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = [0] * inst.num_stands
    open_stands = [s for s in range(inst.num_stands) if inst.caps[s] > 0]
    for _ in range(inst.budget):
        if not open_stands:
            break
        k = int(rng.integers(0, len(open_stands)))
        stand = open_stands[k]
        n[stand] += 1
        if n[stand] >= inst.caps[stand]:
            del open_stands[k]
    return evaluate_allocation(inst, n, "random")


def _fmt(x: float) -> str:
    return repr(float(x))


def export_lp(inst: MilpInstance, sink) -> None:
    """Write the model in LP text format for off-the-shelf solvers.

    Variables are n_s{stand} (general integer) and y_e{segment} (binary,
    candidates only). Coverage is substituted into the two big-M rows per
    candidate:  sum_s p*n_s - M*y_e >= K - M  and  sum_s p*n_s - M*y_e <= K.
    """
    lines = ["\\ sensor-to-stand allocation (big-M coverage model)"]
    lines.append("Maximize")
    if inst.candidates:
        terms = " + ".join(f"{_fmt(length)} y_e{seg}" for seg, length in zip(inst.candidates, inst.lengths))
    else:
        terms = "0 n_s0"  # no coverable segment; any feasible point scores 0
    lines.append(f" obj: {terms}")
    lines.append("Subject To")
    for seg, column in zip(inst.candidates, inst.P.T.tolist()):
        body = " + ".join(f"{_fmt(p)} n_s{stand}" for stand, p in enumerate(column) if p > 0)
        lines.append(
            f" cov_lb_e{seg}: {body} - {_fmt(inst.big_M)} y_e{seg} >= {_fmt(inst.K - inst.big_M)}"
        )
        lines.append(
            f" cov_ub_e{seg}: {body} - {_fmt(inst.big_M)} y_e{seg} <= {_fmt(inst.K)}"
        )
    budget_body = " + ".join(f"n_s{stand}" for stand in range(inst.num_stands))
    lines.append(f" budget: {budget_body} <= {inst.budget}")
    lines.append("Bounds")
    for stand in range(inst.num_stands):
        lines.append(f" 0 <= n_s{stand} <= {inst.caps[stand]}")
    lines.append("Generals")
    lines.append(" " + " ".join(f"n_s{stand}" for stand in range(inst.num_stands)))
    if inst.candidates:
        lines.append("Binary")
        lines.append(" " + " ".join(f"y_e{seg}" for seg in inst.candidates))
    lines.append("End")
    sink.write("\n".join(lines).encode("utf-8") + b"\n")


def save_plan(plan: AllocationPlan, inst: MilpInstance, path, triplog_sha256: str) -> None:
    """Write `plan` as alloc.json, with the coverage N_e of its counts and the
    candidates that coverage covers."""
    coverage = _coverage(inst.P, plan.n)
    covered = coverage >= inst.K - COVER_EPS
    doc = {
        "format": ALLOC_FORMAT,
        "n": plan.n,
        "objective_m": plan.objective_m,
        "solver": plan.solver,
        "gap": plan.gap,
        "budget": inst.budget,
        "K": inst.K,
        "big_M": inst.big_M,
        "N_e": {str(seg): val for seg, val in zip(inst.candidates, coverage.tolist()) if val > 0},
        "covered_segments": [seg for seg, c in zip(inst.candidates, covered.tolist()) if c],
        "triplog_sha256": triplog_sha256,
    }
    write_json(path, doc)


def load_plan(path) -> AllocationPlan:
    """The plan alloc.json holds, which uses no more sensors than its recorded
    budget. Its N_e and covered_segments follow from n and are not read back,
    but an alloc.json without them is not one."""
    with read_artifact(path, ALLOC_FORMAT, "allocate") as doc:
        if not doc.keys() >= {"N_e", "covered_segments"}:
            raise MalformedInputError(f"{path}: no N_e or covered_segments; re-run `velosense allocate`")
        n = int_column(doc["n"], path, "n").tolist()
        if sum(n) > doc["budget"]:
            raise MalformedInputError(f"{path}: n holds {sum(n)} sensors, over its budget {doc['budget']}")
        return AllocationPlan(n, doc["objective_m"], doc["solver"], doc["gap"], doc.get("triplog_sha256"))
