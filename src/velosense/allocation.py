"""Sensor-to-stand allocation.

Maximizes the total length of road segments whose expected coverage
N_e = sum_s p[s,e] * n_s reaches a threshold K, subject to a sensor budget
and per-stand capacities. Ships three solvers plus an LP-file exporter:

- solve_exact: depth-first branch and bound, provably optimal at test scale;
- solve_greedy: marginal-gain greedy plus pairwise-swap local search, for
  city-scale instances;
- random_allocation: the uniform baseline.

A segment counts as covered when N_e >= K - 1e-9; the epsilon keeps the
threshold test stable when p values are float sums.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .coverage_model import CoverageMatrix
from .errors import MalformedInputError, malformed_fields
from .fleet_sim import FleetPlan
from .network import RoadNetwork

ALLOC_FORMAT = "velosense-alloc-v1"

COVER_EPS = 1e-9


@dataclass
class MilpInstance:
    num_stands: int
    num_segments: int
    cols: list[list[tuple[int, float]]]  # per stand: (segment, p), segment-sorted
    rows: dict[int, list[tuple[int, float]]]  # per candidate segment: (stand, p)
    lengths: np.ndarray  # meters, all segments
    caps: list[int]
    budget: int
    K: float
    big_M: float
    candidates: list[int]  # segments with a nonzero p column
    warnings: list[str] = field(default_factory=list)


@dataclass
class AllocationPlan:
    n: list[int]
    objective_m: float
    N_e: dict[int, float]  # candidate segments only; absent means 0
    y: dict[int, bool]
    solver: str
    gap: float = 0.0

    @property
    def total_sensors(self) -> int:
        return sum(self.n)


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
    clamped with a warning rather than rejected, so capacity sweeps can
    over-provision harmlessly.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if K <= 0:
        raise ValueError(f"K must be > 0, got {K}")
    num_stands = len(plan.b)
    warnings = []
    total_cap = sum(plan.b)
    if budget > total_cap:
        warnings.append(f"budget {budget} exceeds total capacity {total_cap}; clamped")
        budget = total_cap

    cols: list[list[tuple[int, float]]] = [[] for _ in range(num_stands)]
    rows: dict[int, list[tuple[int, float]]] = {}
    for (stand, seg), p in sorted(matrix.p.items()):
        if not (0 <= stand < num_stands and 0 <= seg < net.num_segments):
            raise MalformedInputError(
                f"probability for stand {stand}, segment {seg} is outside "
                f"{num_stands} stands x {net.num_segments} segments"
            )
        if p <= 0:
            continue
        cols[stand].append((seg, p))
        rows.setdefault(seg, []).append((stand, p))
    candidates = sorted(rows)

    reach = 0.0
    for seg in candidates:
        reach = max(reach, sum(p * plan.b[stand] for stand, p in rows[seg]))
    return MilpInstance(
        num_stands=num_stands,
        num_segments=net.num_segments,
        cols=cols,
        rows=rows,
        lengths=np.asarray(net.seg_length_m, dtype=np.float64),
        caps=[int(x) for x in plan.b],
        budget=int(budget),
        K=float(K),
        big_M=float(K + reach),
        candidates=candidates,
        warnings=warnings,
    )


def evaluate_allocation(inst: MilpInstance, n, solver: str, gap: float = 0.0) -> AllocationPlan:
    """Derive coverage, indicators, and objective for a sensor vector."""
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
    N_e: dict[int, float] = {}
    for stand, count in enumerate(n):
        if count == 0:
            continue
        for seg, p in inst.cols[stand]:
            N_e[seg] = N_e.get(seg, 0.0) + p * count
    y = {seg: N_e.get(seg, 0.0) >= inst.K - COVER_EPS for seg in inst.candidates}
    objective = float(sum(inst.lengths[seg] for seg, covered in y.items() if covered))
    return AllocationPlan(n, objective, N_e, y, solver, gap)


def solve_exact(inst: MilpInstance, time_limit_s: float = 60.0) -> AllocationPlan:
    """Depth-first branch and bound over integer sensor vectors.

    The node bound adds, on top of the lengths already covered, every
    still-uncovered segment that could reach K if the remaining stands
    contributed at full capacity. That over-promises (capacity is shared),
    so the bound is admissible and pruning is safe. Intended for small
    instances; on timeout the incumbent is returned with a nonzero gap.
    """
    S = len(inst.caps)
    threshold = inst.K - COVER_EPS
    # suffix[i][e] = coverage of e attainable by stands i.. at full capacity
    suffix = [dict() for _ in range(S + 1)]
    for i in range(S - 1, -1, -1):
        acc = dict(suffix[i + 1])
        for seg, p in inst.cols[i]:
            acc[seg] = acc.get(seg, 0.0) + p * inst.caps[i]
        suffix[i] = acc

    deadline = time.monotonic() + time_limit_s
    best_n = [0] * S
    best_obj = 0.0
    timed_out = False

    # incrementally maintained; used for bounds only (cancellation can leave
    # float residue, so leaves recompute their objective from scratch)
    cover = {seg: 0.0 for seg in inst.candidates}
    n = [0] * S

    def leaf_objective() -> float:
        acc = {seg: 0.0 for seg in inst.candidates}
        for stand in range(S):
            count = n[stand]
            if count:
                for seg, p in inst.cols[stand]:
                    acc[seg] += p * count
        return float(sum(inst.lengths[seg] for seg, val in acc.items() if val >= threshold))

    def bound(i: int, rem: int) -> float:
        cur = 0.0
        potential = 0.0
        ahead = suffix[i]
        for seg, val in cover.items():
            if val >= threshold:
                cur += inst.lengths[seg]
            elif rem > 0 and val + ahead.get(seg, 0.0) >= threshold:
                potential += inst.lengths[seg]
        return cur + potential

    def dfs(i: int, rem: int) -> None:
        nonlocal best_obj, best_n, timed_out
        if timed_out or time.monotonic() > deadline:
            timed_out = True
            return
        if i == S or rem == 0:
            obj = leaf_objective()
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
                for seg, p in inst.cols[i]:
                    cover[seg] += p * count
            dfs(i + 1, rem - count)
            if count:
                for seg, p in inst.cols[i]:
                    cover[seg] -= p * count
            n[i] = 0
            if timed_out:
                return

    dfs(0, inst.budget)
    gap = max(0.0, bound(0, inst.budget) - best_obj) if timed_out else 0.0
    return evaluate_allocation(inst, best_n, "exact", gap)


def solve_greedy(inst: MilpInstance) -> AllocationPlan:
    """Marginal-gain greedy then first-improvement pairwise swaps.

    Each round adds one sensor to the stand unlocking the most newly
    covered length; ties prefer the stand making the most progress toward
    still-uncovered thresholds, then the smallest id. The swap phase moves
    single sensors between stands while any move improves the objective.
    Fully deterministic.
    """
    S = len(inst.caps)
    threshold = inst.K - COVER_EPS
    n = [0] * S
    cover = {seg: 0.0 for seg in inst.candidates}

    def gains(stand: int) -> tuple[float, float]:
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

    def swap_delta(src: int, dst: int) -> float:
        touched = {seg: -p for seg, p in inst.cols[src]}
        for seg, p in inst.cols[dst]:
            touched[seg] = touched.get(seg, 0.0) + p
        delta = 0.0
        for seg, change in touched.items():
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
                if swap_delta(src, dst) > COVER_EPS:
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

    return evaluate_allocation(inst, n, "greedy")


def random_allocation(inst: MilpInstance, seed: int) -> AllocationPlan:
    """Uniform baseline: place each sensor at a random stand with spare capacity."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = [0] * inst.num_stands
    for _ in range(inst.budget):
        open_stands = [s for s in range(inst.num_stands) if n[s] < inst.caps[s]]
        if not open_stands:
            break
        n[open_stands[int(rng.integers(0, len(open_stands)))]] += 1
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
        terms = " + ".join(f"{_fmt(inst.lengths[seg])} y_e{seg}" for seg in inst.candidates)
    else:
        terms = "0 n_s0"  # no coverable segment; any feasible point scores 0
    lines.append(f" obj: {terms}")
    lines.append("Subject To")
    for seg in inst.candidates:
        body = " + ".join(f"{_fmt(p)} n_s{stand}" for stand, p in inst.rows[seg])
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


def save_plan(plan: AllocationPlan, inst: MilpInstance, path) -> None:
    doc = {
        "format": ALLOC_FORMAT,
        "n": plan.n,
        "objective_m": plan.objective_m,
        "solver": plan.solver,
        "gap": plan.gap,
        "budget": inst.budget,
        "K": inst.K,
        "big_M": inst.big_M,
        "N_e": {str(seg): val for seg, val in sorted(plan.N_e.items())},
        "covered_segments": sorted(seg for seg, covered in plan.y.items() if covered),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_plan(path) -> AllocationPlan:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != ALLOC_FORMAT:
        raise MalformedInputError(f"expected {ALLOC_FORMAT}, got {doc.get('format')!r}")
    with malformed_fields(path):
        N_e = {int(seg): val for seg, val in doc["N_e"].items()}
        covered = set(doc["covered_segments"])
        y = {seg: seg in covered for seg in N_e}
        return AllocationPlan(
            [int(x) for x in doc["n"]], doc["objective_m"], N_e, y, doc["solver"], doc["gap"]
        )
