"""Agar core — the paper's contribution.

Caching-option generation, the knapsack dynamic program, popularity tracking
and the three region-level components (Region Manager, Request Monitor, Cache
Manager) wired together into an :class:`AgarNode`.
"""

from repro.core.agar_node import (
    AgarNode,
    AgarNodeConfig,
    DEFAULT_RECONFIGURATION_PERIOD_S,
)
from repro.core.cache_manager import (
    CacheManager,
    CacheManagerConfig,
    ReconfigurationRecord,
)
from repro.core.exact import optimality_gap, solve_exact
from repro.core.greedy import solve_greedy_density, solve_greedy_marginal
from repro.core.knapsack import (
    CacheConfiguration,
    EMPTY_CONFIGURATION,
    KnapsackSolver,
    ReferenceKnapsackSolver,
    SolverResult,
    configuration_summary,
)
from repro.core.options import (
    CachingOption,
    PlacedChunk,
    baseline_read_latency,
    generate_caching_options,
    needed_chunks,
    option_with_weight,
    option_with_weight_at_most,
)
from repro.core.popularity import DEFAULT_ALPHA, PopularityRecord, PopularityTracker
from repro.core.region_manager import RegionEstimate, RegionManager
from repro.core.request_monitor import ReadHints, RequestMonitor

__all__ = [
    "AgarNode",
    "AgarNodeConfig",
    "CacheConfiguration",
    "CacheManager",
    "CacheManagerConfig",
    "CachingOption",
    "DEFAULT_ALPHA",
    "DEFAULT_RECONFIGURATION_PERIOD_S",
    "EMPTY_CONFIGURATION",
    "KnapsackSolver",
    "PlacedChunk",
    "PopularityRecord",
    "PopularityTracker",
    "ReadHints",
    "ReferenceKnapsackSolver",
    "ReconfigurationRecord",
    "RegionEstimate",
    "RegionManager",
    "RequestMonitor",
    "SolverResult",
    "baseline_read_latency",
    "configuration_summary",
    "generate_caching_options",
    "needed_chunks",
    "optimality_gap",
    "option_with_weight",
    "option_with_weight_at_most",
    "solve_exact",
    "solve_greedy_density",
    "solve_greedy_marginal",
]
