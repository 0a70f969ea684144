import io
import math

import numpy as np
import pytest

from velosense.errors import MalformedInputError
from velosense.network import (
    build_network,
    haversine_m,
    load_network,
    nearest_node,
    route_pairs,
    single_source_distances,
)
from velosense.synth import grid_network

from oracles import adjacency_with_lengths, all_simple_paths, brute_shortest_distance


def csv_io(text):
    return io.StringIO(text)


class TestLoadNetwork:
    def test_line_totals(self, line_net):
        assert line_net.num_nodes == 3
        assert line_net.num_segments == 2
        assert line_net.seg_length_m.sum() == pytest.approx(200.0)

    def test_zero_length_from_identical_coordinates(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -74.0)]
        with pytest.raises(MalformedInputError, match="length"):
            build_network(nodes, [(0, 1, None)])

    def test_dangling_endpoint_names_record(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99)]
        with pytest.raises(MalformedInputError, match="record 1.*99"):
            build_network(nodes, [(0, 99, 50.0)])

    def test_nonpositive_length_rejected(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99)]
        with pytest.raises(MalformedInputError, match="non-positive"):
            build_network(nodes, [(0, 1, -5.0)])

    def test_self_loop_rejected(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99)]
        with pytest.raises(MalformedInputError, match="self-loop"):
            build_network(nodes, [(0, 0, 10.0)])

    def test_duplicate_edges_keep_shortest(self):
        nodes = [(0, 40.0, -74.0), (1, 40.0, -73.99)]
        net = build_network(nodes, [(0, 1, 300.0), (1, 0, 120.0)])
        assert net.num_segments == 1
        assert net.seg_length_m[0] == 120.0

    def test_missing_length_uses_haversine(self):
        nodes = [(0, 40.0, -74.0), (1, 40.001, -74.0)]
        net = build_network(nodes, [(0, 1, None)])
        assert net.seg_length_m[0] == pytest.approx(haversine_m(40.0, -74.0, 40.001, -74.0))

    def test_csv_round_trip(self):
        node_csv = "node_id,lat,lon\n0,40.0,-74.0\n1,40.0,-73.999\n"
        edge_csv = "u,v,length_m\n0,1,100\n"
        net = load_network(csv_io(node_csv), csv_io(edge_csv))
        assert net.num_nodes == 2 and net.num_segments == 1

    def test_csv_optional_length_column(self):
        node_csv = "node_id,lat,lon\n0,40.0,-74.0\n1,40.001,-74.0\n"
        edge_csv = "u,v\n0,1\n"
        net = load_network(csv_io(node_csv), csv_io(edge_csv))
        assert net.seg_length_m[0] > 100

    def test_missing_columns_fatal(self):
        with pytest.raises(MalformedInputError, match="column"):
            load_network(csv_io("id,lat,lon\n"), csv_io("u,v\n"))
        node_csv = "node_id,lat,lon\n0,40.0,-74.0\n"
        with pytest.raises(MalformedInputError, match="column"):
            load_network(csv_io(node_csv), csv_io("a,b\n"))

    def test_error_names_the_source_it_was_found_in(self):
        node_csv = "node_id,lat,lon\n0,40.0,-74.0\n1,40.0,-73.999\n"
        names = ("n.csv", "e.csv")
        with pytest.raises(MalformedInputError, match=r"^edge record 1 has 1 fields"):
            load_network(csv_io(node_csv), csv_io("u,v\n0\n"))
        with pytest.raises(MalformedInputError, match=r"^n\.csv: node record 1 has 2 fields"):
            load_network(csv_io("node_id,lat,lon\n0,40.0\n"), csv_io("u,v\n"), names)
        with pytest.raises(MalformedInputError, match=r"^e\.csv: edge record 1 has 1 fields"):
            load_network(csv_io(node_csv), csv_io("u,v\n0\n"), names)
        # an unknown endpoint joins the two files, so both are named
        with pytest.raises(MalformedInputError, match=r"^n\.csv and e\.csv: edge record 1: unknown endpoint"):
            load_network(csv_io(node_csv), csv_io("u,v\n0,7\n"), names)


class TestNearestNode:
    def test_exact_coordinates(self):
        net = grid_network(3, 3, 200.0)
        assert nearest_node(net, net.node_lat[5], net.node_lon[5]) == 5

    def test_tie_breaks_to_smaller_id(self):
        # nodes 2 and 7 sit symmetrically east/west of the query point
        nodes = [(i, 41.0 + i, -70.0) for i in range(8)]
        nodes[2] = (2, 40.0, -74.001)
        nodes[7] = (7, 40.0, -73.999)
        net = build_network(nodes, [(2, 7, None)])
        assert nearest_node(net, 40.0, -74.0) == 2

    def test_nonfinite_rejected(self, line_net):
        with pytest.raises(MalformedInputError, match="non-finite"):
            nearest_node(line_net, float("nan"), -74.0)

    def test_idempotent_on_node_coordinates(self):
        net = grid_network(5, 4, 150.0)
        for node, lat, lon in zip(range(net.num_nodes), net.node_lat.tolist(), net.node_lon.tolist()):
            assert nearest_node(net, lat, lon) == node


def route(net, origin, dest):
    """route_pairs' segment ids of one pair, or None when it leaves the pair out."""
    return route_pairs(net, [(origin, dest)]).get((origin, dest))


def segments_joining(net, nodes):
    """The segment ids joining each node of `nodes` to the next: build_network
    keeps one segment per node pair."""
    segment_of = {frozenset(ends): seg for seg, ends in enumerate(zip(net.seg_u.tolist(), net.seg_v.tolist()))}
    return [segment_of[frozenset(ends)] for ends in zip(nodes, nodes[1:])]


def length_along(net, segments):
    """The network's lengths of `segments` added left to right from 0.0."""
    total = 0.0
    for seg in segments:
        total += float(net.seg_length_m[seg])
    return total


class TestShortestPath:
    def test_identity(self, line_net):
        assert route(line_net, 1, 1) == []

    def test_line(self, line_net):
        segments = route(line_net, 0, 2)
        assert segments == segments_joining(line_net, [0, 1, 2])
        assert length_along(line_net, segments) == 200.0

    def test_chord_avoided(self, square_chord_net):
        net = square_chord_net
        segments = route(net, 0, 2)
        adjacency = adjacency_with_lengths(net)
        expected = brute_shortest_distance(adjacency, 0, 2)
        assert length_along(net, segments) == expected == 200.0
        assert segments == segments_joining(net, [0, 1, 2])  # lex-smaller than (0, 3, 2)

    def test_unreachable_pair_left_out(self):
        nodes = [(i, 40.0 + 0.001 * i, -74.0) for i in range(4)]
        net = build_network(nodes, [(0, 1, 100.0), (2, 3, 100.0)])
        routed = route_pairs(net, [(0, 1), (0, 3), (3, 0), (3, 2)])
        assert sorted(routed) == [(0, 1), (3, 2)]

    def test_invalid_node_rejected(self, line_net):
        for pair in ((99, 0), (-1, 0), (0, 99)):
            with pytest.raises(MalformedInputError, match="node"):
                route_pairs(line_net, [pair])

    def test_lexicographic_tiebreak_on_grid(self):
        net = grid_network(3, 3, 250.0)
        assert route(net, 0, 8) == segments_joining(net, [0, 1, 2, 5, 8])

    def _random_net(self, rng, n, max_length=50, scale=1.0):
        nodes = [(i, 40.0 + 0.01 * i, -74.0 + 0.003 * (i % 3)) for i in range(n)]
        edges = []
        seen = set()
        for _ in range(rng.integers(n - 1, n * 2)):
            u, v = rng.integers(0, n, size=2)
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                continue
            seen.add(key)
            edges.append((int(u), int(v), float(rng.integers(1, max_length)) * scale))
        if not edges:
            edges = [(0, 1, 10.0)]
        return build_network(nodes, edges)

    def _assert_routes_match_oracle(self, net):
        """Every pair's route is the min by (distance, nodes) over all simple paths,
        and a pair is left out exactly when no path joins it. Returns the number of
        pairs left out and the number with more than one shortest path."""
        adjacency = adjacency_with_lengths(net)
        pairs = [(o, d) for o in range(net.num_nodes) for d in range(net.num_nodes)]
        routed = route_pairs(net, pairs)
        unreachable = tied = 0
        for origin, dest in pairs:
            if brute_shortest_distance(adjacency, origin, dest) is None:
                assert (origin, dest) not in routed
                unreachable += 1
                continue
            found = sorted((dist, nodes) for nodes, dist in all_simple_paths(adjacency, origin, dest))
            distance, nodes = found[0]
            segments = routed[(origin, dest)]
            assert segments == segments_joining(net, nodes) and length_along(net, segments) == distance
            tied += len(found) > 1 and found[1][0] == distance
        return unreachable, tied

    def test_matches_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(7)
        unreachable = 0
        for _ in range(60):
            net = self._random_net(rng, int(rng.integers(2, 9)))
            adjacency = adjacency_with_lengths(net)
            for origin in range(net.num_nodes):
                dist = single_source_distances(net, origin).tolist()
                for dest in range(net.num_nodes):
                    expected = brute_shortest_distance(adjacency, origin, dest)
                    if expected is None:
                        assert dist[dest] == math.inf
                        unreachable += 1
                    else:
                        assert dist[dest] == expected
        assert unreachable > 0

    @pytest.mark.parametrize("max_length", [50, 3])  # 3: many equal-length paths
    def test_route_pairs_equal_shortest_path_on_random_graphs(self, max_length):
        # integer lengths keep the sums exact
        rng = np.random.default_rng(7)
        unreachable = tied = 0
        for _ in range(60):
            net = self._random_net(rng, int(rng.integers(2, 9)), max_length)
            left_out, ties = self._assert_routes_match_oracle(net)
            unreachable += left_out
            tied += ties
        assert unreachable > 0 and tied > 0

    def test_route_pairs_match_oracle_on_grids(self):
        for w, h in ((3, 3), (4, 3), (4, 4)):
            unreachable, tied = self._assert_routes_match_oracle(grid_network(w, h, 150.0))
            assert unreachable == 0 and tied > 0

    def test_every_reachable_node_has_an_exactly_tight_edge(self):
        # tenths of a meter: float sums along different paths drift apart
        rng = np.random.default_rng(13)
        for _ in range(40):
            net = self._random_net(rng, int(rng.integers(2, 30)), max_length=30, scale=0.1)
            lengths = net.seg_length_m.tolist()
            for dest in range(net.num_nodes):
                dist = single_source_distances(net, dest).tolist()
                for u in range(net.num_nodes):
                    if u != dest and math.isfinite(dist[u]):
                        assert any(dist[u] == lengths[seg] + dist[v] for v, seg in net.adjacency[u])

    def test_distance_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = self._random_net(rng, int(rng.integers(3, 9)))
            pairs = [(o, d) for o in range(net.num_nodes) for d in range(net.num_nodes)]
            routed = route_pairs(net, pairs)
            for origin, dest in pairs:
                back = routed.get((dest, origin))
                if (origin, dest) not in routed:
                    assert back is None
                    continue
                assert length_along(net, back) == length_along(net, routed[(origin, dest)])

    def test_triangle_inequality(self):
        net = grid_network(4, 4, 180.0)
        rng = np.random.default_rng(3)
        dist = {node: single_source_distances(net, node) for node in range(net.num_nodes)}
        for _ in range(200):
            a, b, c = rng.integers(0, net.num_nodes, size=3)
            assert dist[a][c] <= dist[a][b] + dist[b][c] + 1e-9

    def test_path_segments_consistent_with_nodes(self, square_chord_net):
        """Each routed path's segments chain from its origin to its dest."""
        net = square_chord_net
        pairs = [(o, d) for o in range(net.num_nodes) for d in range(net.num_nodes)]
        for (origin, dest), segments in route_pairs(net, pairs).items():
            node = origin
            for seg in segments:
                u, v = int(net.seg_u[seg]), int(net.seg_v[seg])
                assert node in (u, v)
                node = v if node == u else u
            assert node == dest

    def test_route_pairs_rejects_invalid_nodes(self, line_net):
        with pytest.raises(MalformedInputError):
            route_pairs(line_net, [(0, 1), (0, 3)])
