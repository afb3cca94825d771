"""repro — a reproduction of "Agar: A Caching System for Erasure-Coded Data".

Agar (Halalai et al., ICDCS 2017) is a caching layer for geo-distributed,
erasure-coded object stores.  It decides not only *which* objects to cache but
*how many chunks* of each, by solving a Knapsack-style optimisation over
"caching options" valued by ``popularity × latency improvement``.

This package contains the full system, built from scratch in Python:

* :mod:`repro.erasure` — GF(256) Reed-Solomon coding (the Longhair stand-in);
* :mod:`repro.geo` — regions, the wide-area latency model and topologies;
* :mod:`repro.backend` — the erasure-coded object store and chunk placement;
* :mod:`repro.cache` — the bounded chunk cache with LRU/LFU/pinned policies;
* :mod:`repro.core` — Agar itself: caching options, the knapsack DP, the
  Region Manager, Request Monitor, Cache Manager and the AgarNode;
* :mod:`repro.workload`, :mod:`repro.client`, :mod:`repro.sim` — the YCSB-style
  workload generator, the read strategies, the event engine and the
  experiment driver;
* :mod:`repro.experiments` — one driver per table/figure of the paper;
* :mod:`repro.extensions` — §VI extensions (collaboration, writes).

Quickstart::

    from repro import AgarNode, ErasureCodedStore, default_topology

    store = ErasureCodedStore(default_topology())
    store.populate(object_count=300, object_size=1024 * 1024)
    node = AgarNode("frankfurt", store, cache_capacity_bytes=10 * 1024 * 1024)
    hints = node.on_request("object-0", now=0.0)
"""

from repro.backend import ErasureCodedStore, RoundRobinPlacement
from repro.cache import ChunkCache, LFUEvictionPolicy, LRUEvictionPolicy, PinnedConfigurationPolicy
from repro.client import (
    AgarReadStrategy,
    BackendReadStrategy,
    ClientConfig,
    FixedChunkCachingStrategy,
    HitType,
    LatencyStats,
    PeriodicLFUStrategy,
    ReadResult,
    make_strategy,
)
from repro.core import (
    AgarNode,
    AgarNodeConfig,
    CacheConfiguration,
    CacheManager,
    CachingOption,
    KnapsackSolver,
    PopularityTracker,
    RegionManager,
    RequestMonitor,
    generate_caching_options,
    solve_exact,
)
from repro.erasure import Chunk, ChunkId, ErasureCodec, ErasureCodingParams, ReedSolomon
from repro.geo import (
    LatencyModel,
    LinkProfile,
    Region,
    Topology,
    default_topology,
    table1_topology,
)
from repro.sim import EngineConfig, RegionSpec, run_comparison, run_many
from repro.workload import WorkloadSpec, uniform_workload, zipfian_workload

__version__ = "1.0.0"

__all__ = [
    "AgarNode",
    "AgarNodeConfig",
    "AgarReadStrategy",
    "BackendReadStrategy",
    "CacheConfiguration",
    "CacheManager",
    "CachingOption",
    "Chunk",
    "ChunkCache",
    "ChunkId",
    "ClientConfig",
    "EngineConfig",
    "ErasureCodec",
    "ErasureCodedStore",
    "ErasureCodingParams",
    "FixedChunkCachingStrategy",
    "HitType",
    "KnapsackSolver",
    "LFUEvictionPolicy",
    "LRUEvictionPolicy",
    "LatencyModel",
    "LatencyStats",
    "LinkProfile",
    "PeriodicLFUStrategy",
    "PinnedConfigurationPolicy",
    "PopularityTracker",
    "ReadResult",
    "ReedSolomon",
    "Region",
    "RegionManager",
    "RegionSpec",
    "RequestMonitor",
    "RoundRobinPlacement",
    "Topology",
    "WorkloadSpec",
    "default_topology",
    "generate_caching_options",
    "make_strategy",
    "run_comparison",
    "run_many",
    "solve_exact",
    "table1_topology",
    "uniform_workload",
    "zipfian_workload",
    "__version__",
]
