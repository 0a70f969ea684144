"""Road network model: node coordinates, segment lengths, snapping, routing.

The network is undirected. Node and segment ids are dense integers assigned
at load time; ids found in input files are remapped in order of appearance.
Paths come from one router, route_pairs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInputError, blamed_on, read_table

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two WGS84 points."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin((phi2 - phi1) / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class Path:
    """A routed path: segment ids in traversal order plus per-segment lengths."""

    segments: tuple[int, ...]
    nodes: tuple[int, ...]
    seg_lengths_m: tuple[float, ...]
    distance_m: float


@dataclass
class RoadNetwork:
    """Immutable after construction; safe for concurrent read-only queries."""

    node_lat: np.ndarray
    node_lon: np.ndarray
    seg_u: np.ndarray
    seg_v: np.ndarray
    seg_length_m: np.ndarray
    adjacency: list[list[tuple[int, int]]]  # node -> [(neighbor node, segment id)]

    @property
    def num_nodes(self) -> int:
        return len(self.node_lat)

    @property
    def num_segments(self) -> int:
        return len(self.seg_length_m)

    def endpoints(self, segment: int) -> tuple[int, int]:
        return int(self.seg_u[segment]), int(self.seg_v[segment])

    def node_coords(self, node: int) -> tuple[float, float]:
        return float(self.node_lat[node]), float(self.node_lon[node])


def network_sha256(net: RoadNetwork) -> str:
    """SHA-256 of node coordinates, segment endpoints and segment lengths: the
    provenance key that ties a triplog to the network it was routed on."""
    digest = hashlib.sha256()
    for column in (net.node_lat, net.node_lon, net.seg_u, net.seg_v, net.seg_length_m):
        digest.update(len(column).to_bytes(8, "little"))
        digest.update(np.asarray(column, dtype="<f8").tobytes())
    return digest.hexdigest()


def build_network(nodes, edges) -> RoadNetwork:
    """Assemble a validated RoadNetwork from in-memory records.

    `nodes` is a sequence of (file_id, lat, lon); `edges` of
    (file_u, file_v, length_m or None). Missing lengths are filled with the
    haversine distance between endpoints. Duplicate undirected edges collapse
    to the shortest one.
    """
    id_map: dict = {}
    lats, lons = [], []
    for file_id, lat, lon in nodes:
        if file_id in id_map:
            raise MalformedInputError(f"duplicate node id {file_id!r}")
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise MalformedInputError(f"node {file_id!r} has non-finite coordinates")
        id_map[file_id] = len(lats)
        lats.append(float(lat))
        lons.append(float(lon))

    best: dict[tuple[int, int], float] = {}
    for row_no, (fu, fv, length) in enumerate(edges, start=1):
        if fu not in id_map:
            raise MalformedInputError(f"edge record {row_no}: unknown endpoint id {fu!r}")
        if fv not in id_map:
            raise MalformedInputError(f"edge record {row_no}: unknown endpoint id {fv!r}")
        u, v = id_map[fu], id_map[fv]
        if u == v:
            raise MalformedInputError(f"edge record {row_no}: self-loop at node {fu!r}")
        if length is None:
            length = haversine_m(lats[u], lons[u], lats[v], lons[v])
        length = float(length)
        if not (length > 0.0 and math.isfinite(length)):
            raise MalformedInputError(
                f"edge record {row_no} ({fu!r},{fv!r}): non-positive length {length}"
            )
        key = (u, v) if u < v else (v, u)
        if key not in best or length < best[key]:
            best[key] = length

    seg_u = np.empty(len(best), dtype=np.int64)
    seg_v = np.empty(len(best), dtype=np.int64)
    seg_len = np.empty(len(best), dtype=np.float64)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(len(lats))]
    for seg, ((u, v), length) in enumerate(sorted(best.items())):
        seg_u[seg] = u
        seg_v[seg] = v
        seg_len[seg] = length
        adjacency[u].append((v, seg))
        adjacency[v].append((u, seg))
    for neighbors in adjacency:
        neighbors.sort()

    return RoadNetwork(
        node_lat=np.asarray(lats, dtype=np.float64),
        node_lon=np.asarray(lons, dtype=np.float64),
        seg_u=seg_u,
        seg_v=seg_v,
        seg_length_m=seg_len,
        adjacency=adjacency,
    )


def _parse_id(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _read_nodes(source) -> list[tuple]:
    columns, rows = read_table(source)
    if not columns.keys() >= {"node_id", "lat", "lon"}:
        raise MalformedInputError("node file must have columns ['lat', 'lon', 'node_id']")
    id_col, lat_col, lon_col = columns["node_id"], columns["lat"], columns["lon"]
    width = max(id_col, lat_col, lon_col) + 1
    nodes = []
    for row_no, row in enumerate(rows, start=1):
        if len(row) < width:
            raise MalformedInputError(f"node record {row_no} has {len(row)} fields, too few for its header")
        try:
            nodes.append((_parse_id(row[id_col]), float(row[lat_col]), float(row[lon_col])))
        except ValueError as exc:
            raise MalformedInputError(f"node record {row_no}: {exc}") from exc
    return nodes


def _read_edges(source) -> list[tuple]:
    columns, rows = read_table(source)
    if not columns.keys() >= {"u", "v"}:
        raise MalformedInputError("edge file must have columns ['u', 'v'] (length_m optional)")
    u_col, v_col, len_col = columns["u"], columns["v"], columns.get("length_m", -1)
    width = max(u_col, v_col) + 1
    edges = []
    for row_no, row in enumerate(rows, start=1):
        if len(row) < width:
            raise MalformedInputError(f"edge record {row_no} has {len(row)} fields, too few for its header")
        raw_len = row[len_col] if 0 <= len_col < len(row) else ""
        length = None
        if raw_len.strip() != "":
            try:
                length = float(raw_len)
            except ValueError as exc:
                raise MalformedInputError(f"edge record {row_no}: bad length {raw_len!r}") from exc
        edges.append((_parse_id(row[u_col]), _parse_id(row[v_col]), length))
    return edges


def load_network(node_source, edge_source, names: tuple[str, str] | None = None) -> RoadNetwork:
    """Load a network from delimited text sources.

    Node header: node_id,lat,lon.  Edge header: u,v[,length_m].
    Sources are open text files or anything csv can iterate, read by
    errors.read_table. A row too short to hold node_id, lat and lon, or u and
    v, is malformed and named by its record number; a missing or empty
    length_m is filled in by build_network. Given the sources' `names`, an
    error names the source it was found in, or both if it joins them.
    """
    node_name, edge_name = names or (None, None)
    with blamed_on(node_name):
        nodes = _read_nodes(node_source)
    with blamed_on(edge_name):
        edges = _read_edges(edge_source)
    with blamed_on(names and " and ".join(names)):
        return build_network(nodes, edges)


def load_network_files(nodes_path, edges_path) -> RoadNetwork:
    """load_network on the node and edge CSV files at two paths, naming them."""
    with open(nodes_path, encoding="utf-8", newline="") as nf, open(
        edges_path, encoding="utf-8", newline=""
    ) as ef:
        return load_network(nf, ef, (str(nodes_path), str(edges_path)))


def nearest_node(net: RoadNetwork, lat: float, lon: float) -> int:
    """Node id minimizing haversine distance to (lat, lon); ties go to the smallest id."""
    if net.num_nodes == 0:
        raise MalformedInputError("cannot snap to an empty network")
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise MalformedInputError(f"non-finite query coordinates ({lat}, {lon})")
    phi1 = np.radians(net.node_lat)
    phi2 = math.radians(lat)
    dphi = phi2 - phi1
    dlam = math.radians(lon) - np.radians(net.node_lon)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * math.cos(phi2) * np.sin(dlam / 2.0) ** 2
    # argmin returns the first (= smallest) index among exact ties
    return int(np.argmin(a))


def single_source_distances(net: RoadNetwork, root: int) -> np.ndarray:
    """Dijkstra distances in meters from `root` to every node (inf if unreachable)."""
    lengths = net.seg_length_m.tolist()
    dist = [math.inf] * net.num_nodes
    dist[root] = 0.0
    heap = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:  # u was settled from a shorter entry
            continue
        for v, seg in net.adjacency[u]:
            nd = d + lengths[seg]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist)


def _check_node(net: RoadNetwork, name: str, node: int) -> None:
    if not 0 <= node < net.num_nodes:
        raise MalformedInputError(f"{name} node {node} outside 0..{net.num_nodes - 1}")


def _path_along(net: RoadNetwork, lengths: list[float], dist: list[float], origin: int, dest: int) -> Path:
    """The path from `origin`, which `dist` reaches, to `dest` along tight edges of
    `dist`, the Dijkstra distances rooted at `dest`, taking the smallest neighbour
    id first.

    Every reachable node but `dest` has an exactly tight edge: Dijkstra set its
    distance to `dist[p] + length` for its relaxation parent p, and float
    addition commutes, so the neighbour loop always breaks. Each step lowers the
    distance, since build_network keeps one edge per node pair, of finite
    length > 0, so the walk ends at `dest`.
    """
    nodes = [origin]
    segments = []
    seg_lengths = []
    total = 0.0
    u = origin
    while u != dest:
        for v, seg in net.adjacency[u]:  # sorted by neighbor id
            if dist[u] == lengths[seg] + dist[v]:
                break
        u = v
        nodes.append(u)
        segments.append(seg)
        seg_lengths.append(lengths[seg])
        total += lengths[seg]
    return Path(tuple(segments), tuple(nodes), tuple(seg_lengths), total)


def route_pairs(net: RoadNetwork, pairs) -> dict[tuple[int, int], Path]:
    """Shortest paths of many (origin, dest) node pairs, with one Dijkstra per
    distinct dest; a pair whose dest the origin cannot reach is left out.

    Ties between equal-length paths go to the lexicographically smallest node
    sequence, which keeps replays reproducible on grids where many shortest
    paths coexist: each origin walks to its dest along tight edges, taking the
    smallest neighbour id first. Only one distance list is live at a time, so
    memory stays O(nodes) however many pairs share a destination.
    """
    origins_of: dict[int, list[int]] = {}
    for origin, dest in dict.fromkeys(pairs):
        _check_node(net, "origin", origin)
        _check_node(net, "dest", dest)
        origins_of.setdefault(dest, []).append(origin)
    lengths = net.seg_length_m.tolist()
    paths = {}
    for dest, origins in origins_of.items():
        dist = single_source_distances(net, dest).tolist()
        for origin in origins:
            if math.isfinite(dist[origin]):
                paths[(origin, dest)] = _path_along(net, lengths, dist, origin, dest)
    return paths
