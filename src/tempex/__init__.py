"""Exploration schedules for near-static temporal graphs.

A temporal graph whose snapshots each miss at most k edges of a fixed
spanning tree can be explored in time linear in the number of vertices (up
to a factor in k). This package provides the data model and wire format, the
multi-agent roundabout simulation, epoch planning and covering-tuple
selection, spanning-tree recovery, instance generators, brute-force oracles,
and a CLI tying them together.
"""

__version__ = "0.1.0"

from .core import (
    ConnectivityReport,
    Edge,
    ForemostResult,
    ParseError,
    Route,
    SpanningTree,
    TemporalGraph,
    canonical_edge,
    deficiency_count,
    foremost_walk,
    parse_spanning_tree,
    parse_temporal_graph,
    serialize_spanning_tree,
    serialize_temporal_graph,
    verify_delta_connectivity,
)
from .gen import GenResult, GenSpec, gen_blocking_front, gen_random_deficient
from .oracle import OracleResult, foremost_arrival_oracle, optimal_exploration_time
from .roundabout import (
    RoundaboutState,
    RoundaboutTrace,
    eliminate_redundant,
    movement_step,
    run_roundabout,
)
from .scheduler import (
    EpochPlan,
    ExploreStats,
    InsufficientSnapshots,
    LasVegas,
    RepositionFailed,
    Schedule,
    VerifyReport,
    assemble_schedule,
    explore,
    explore_detailed,
    find_covering_tuple,
    paper_budget,
    parse_schedule,
    partition_epochs,
    rho_for,
    serialize_schedule,
    step_budget,
    verify_schedule,
)
from .tour import DfsTour, arc_mask, build_dfs_tour
from .treefind import EdgeWeights, TreeStats, absence_weights, find_good_tree

__all__ = [name for name in dir() if not name.startswith("_")]
