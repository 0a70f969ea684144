"""Synthetic grid networks and trip demand.

Generates data every test can run on without external downloads: a
rectangular grid road network with stands at random nodes, and trips drawn
from a gravity model (origin-destination probability decays with shortest
distance to a power gamma). Distance decay makes coverage probabilities
fall off with distance from a stand, the pattern real bike-share data shows.

Trips are emitted only between stand pairs whose shortest distance already
satisfies the cleaning bounds and with start minutes inside the window, so
the cleaning stage keeps everything this generator produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import ConfigInfeasibleError, write_table
from .network import RoadNetwork, build_network, single_source_distances
from .trips import DEFAULT_MAX_KM, DEFAULT_MIN_KM, DEFAULT_WINDOW, RawTrip

BASE_LAT = 40.70
BASE_LON = -74.00
M_PER_DEG_LAT = 111_320.0


@dataclass(frozen=True)
class SynthConfig:
    grid_w: int
    grid_h: int
    block_m: float
    stand_count: int
    trips: int
    horizon: tuple[int, int] = DEFAULT_WINDOW
    gravity_gamma: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.grid_w < 1 or self.grid_h < 1 or self.grid_w * self.grid_h < 2:
            raise ValueError("grid must contain at least 2 nodes")
        if not 1 <= self.stand_count <= self.grid_w * self.grid_h:
            raise ValueError(
                f"stand_count {self.stand_count} outside 1..{self.grid_w * self.grid_h}"
            )
        if self.trips < 0:
            raise ValueError(f"trips must be >= 0, got {self.trips}")
        for name in ("block_m", "gravity_gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")


def grid_network(grid_w: int, grid_h: int, block_m: float) -> RoadNetwork:
    """Rectangular grid with uniform edge lengths of exactly block_m meters."""
    dlat = block_m / M_PER_DEG_LAT
    dlon = block_m / (M_PER_DEG_LAT * math.cos(math.radians(BASE_LAT)))
    nodes = []
    for r in range(grid_h):
        for c in range(grid_w):
            nodes.append((r * grid_w + c, BASE_LAT + r * dlat, BASE_LON + c * dlon))
    edges = []
    for r in range(grid_h):
        for c in range(grid_w):
            node = r * grid_w + c
            if c + 1 < grid_w:
                edges.append((node, node + 1, block_m))
            if r + 1 < grid_h:
                edges.append((node, node + grid_w, block_m))
    return build_network(nodes, edges)


def generate(cfg: SynthConfig) -> tuple[RoadNetwork, list[RawTrip]]:
    """Build the network and draw raw trips; deterministic under cfg.seed."""
    net = grid_network(cfg.grid_w, cfg.grid_h, cfg.block_m)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    stand_nodes = sorted(
        int(x) for x in rng.choice(net.num_nodes, size=cfg.stand_count, replace=False)
    )

    min_m, max_m = DEFAULT_MIN_KM * 1000.0, DEFAULT_MAX_KM * 1000.0
    pairs: list[tuple[int, int, float]] = []
    for o_node in stand_nodes:
        dist = single_source_distances(net, o_node)
        for d_node in stand_nodes:
            if d_node != o_node and min_m <= dist[d_node] <= max_m:
                pairs.append((o_node, d_node, float(dist[d_node])))
    if not pairs:
        raise ConfigInfeasibleError(
            "no stand pair has a shortest distance inside the trip bounds"
        )

    if cfg.trips == 0:
        return net, []
    weights = np.array([d ** -cfg.gravity_gamma for (_o, _d, d) in pairs])
    weights /= weights.sum()
    picks = rng.choice(len(pairs), size=cfg.trips, p=weights)
    t0, t_end = cfg.horizon
    starts = rng.integers(t0, t_end + 1, size=cfg.trips)

    midnight = datetime(2024, 1, 1)
    raw = []
    for i, (pick, start) in enumerate(zip(picks, starts)):
        o_node, d_node, _d = pairs[int(pick)]
        o_lat, o_lon = net.node_coords(o_node)
        d_lat, d_lon = net.node_coords(d_node)
        raw.append(
            RawTrip(
                id=f"synth-{i:06d}",
                start_time=midnight + timedelta(minutes=int(start)),
                start_lat=o_lat,
                start_lon=o_lon,
                end_lat=d_lat,
                end_lon=d_lon,
            )
        )
    return net, raw


def write_network_csv(net: RoadNetwork, nodes_path, edges_path) -> None:
    """Same file formats the ingestion pipeline consumes."""
    nodes = ((node, *map(repr, net.node_coords(node))) for node in range(net.num_nodes))
    write_table(nodes_path, ["node_id", "lat", "lon"], nodes)
    edges = ((*net.endpoints(seg), repr(float(net.seg_length_m[seg]))) for seg in range(net.num_segments))
    write_table(edges_path, ["u", "v", "length_m"], edges)


def write_trips_csv(raw: list[RawTrip], path) -> None:
    rows = (
        (
            rt.id,
            rt.start_time.strftime("%Y-%m-%d %H:%M:%S"),
            repr(rt.start_lat),
            repr(rt.start_lon),
            repr(rt.end_lat),
            repr(rt.end_lon),
        )
        for rt in raw
    )
    write_table(path, ["ride_id", "started_at", "start_lat", "start_lng", "end_lat", "end_lng"], rows)
