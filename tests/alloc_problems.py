"""Random allocation-problem generator shared by solver tests and acceptance.

Instances are built through the production constructors, while the same raw
data is returned densely for the enumeration oracle, so the two paths stay
independent from the raw problem onward. Lengths are integer-valued so
objective sums are exact in float arithmetic.
"""

from velosense.allocation import build_instance
from velosense.coverage_model import CoverageMatrix
from velosense.fleet_sim import FleetPlan
from velosense.network import build_network

from oracles import dict_columns


def line_net_with_lengths(lengths):
    nodes = [(i, 40.0, -74.0 + 0.002 * i) for i in range(len(lengths) + 1)]
    edges = [(i, i + 1, float(length)) for i, length in enumerate(lengths)]
    return build_network(nodes, edges)


def make_problem(p_entries, lengths, caps, budget, K=1.0):
    """Instance plus the raw dense probability matrix the oracle consumes;
    `p_entries` maps (stand, segment) to p."""
    net = line_net_with_lengths(lengths)
    plan = FleetPlan(list(caps))
    matrix = CoverageMatrix(
        *dict_columns(p_entries), runs=1, seed=0, stand_nodes=list(range(len(caps)))
    )
    inst = build_instance(matrix, net, plan, budget, K=K)
    dense = [[0.0] * len(lengths) for _ in caps]
    for (s, e), p in p_entries.items():
        dense[s][e] = p
    return inst, dense


def random_problem(rng):
    """Instance with at most 6 stands, caps <= 3, budget <= 5, sparse p."""
    S = int(rng.integers(1, 7))
    E = int(rng.integers(1, 7))
    caps = [int(rng.integers(0, 4)) for _ in range(S)]
    budget = int(rng.integers(1, 6))
    lengths = [float(rng.integers(10, 500)) for _ in range(E)]
    p = {}
    for s in range(S):
        for e in range(E):
            if rng.random() < 0.45:
                p[(s, e)] = round(float(rng.uniform(0.05, 0.95)), 3)
    inst, dense = make_problem(p, lengths, caps, budget)
    return inst, dense, lengths, caps, budget
