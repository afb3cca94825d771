"""Geo-distribution substrate: regions, latency model and topologies.

Replaces the paper's physical six-region AWS deployment (Fig. 1) with a
deterministic latency model.
"""

from repro.geo.latency import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_OBJECT_SIZE,
    LatencyModel,
    LinkProfile,
)
from repro.geo.regions import (
    DUBLIN,
    FRANKFURT,
    N_VIRGINIA,
    PAPER_REGIONS,
    SAO_PAULO,
    SYDNEY,
    TOKYO,
    Region,
    region_names,
)
from repro.geo.topology import (
    DEFAULT_CACHE_READ_MS,
    DEFAULT_LATENCY_MATRIX,
    TABLE1_FRANKFURT_LATENCIES,
    Topology,
    default_topology,
    table1_topology,
)

__all__ = [
    "DEFAULT_CACHE_READ_MS",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_LATENCY_MATRIX",
    "DEFAULT_OBJECT_SIZE",
    "DUBLIN",
    "FRANKFURT",
    "LatencyModel",
    "LinkProfile",
    "N_VIRGINIA",
    "PAPER_REGIONS",
    "Region",
    "SAO_PAULO",
    "SYDNEY",
    "TABLE1_FRANKFURT_LATENCIES",
    "TOKYO",
    "Topology",
    "default_topology",
    "region_names",
    "table1_topology",
]
