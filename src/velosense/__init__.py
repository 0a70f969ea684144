"""Drive-by urban sensing on bike-share fleets.

Replay trip data to learn per-stand segment visit probabilities, allocate a
sensor budget across stands, optionally guide riders toward equipped bikes,
and score the resulting spatio-temporal coverage.
"""

from .allocation import (
    AllocationPlan,
    MilpInstance,
    build_instance,
    export_lp,
    random_allocation,
    solve_exact,
    solve_greedy,
)
from .coverage_model import CoverageMatrix, estimate_probabilities, mean_coverage
from .errors import (
    ConfigInfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    VeloSenseError,
)
from .fleet_sim import (
    BikeTrajectory,
    FleetPlan,
    Replay,
    SimConfig,
    initial_bike_counts,
    simulate,
)
from .harness import ExperimentSpec, beta_sweep, run_pipeline, sensor_requirement
from .metrics import IntervalGrid, hourly_diagnostics, sensing_score
from .network import RoadNetwork, haversine_m, load_network, nearest_node, route_pairs
from .synth import SynthConfig, generate
from .trips import Path, RawTrips, Trip, TripLog, clean_trips, parse_raw_trips

__version__ = "0.1.0"
