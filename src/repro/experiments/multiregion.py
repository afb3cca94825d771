"""The multi-region scaling experiment.

:func:`run_multiregion_scaling` sweeps a fixed deployment (default: Frankfurt
+ Sydney, Poisson arrivals, collaboration on) over the number of concurrent
clients per region, reporting per-region mean/p99 latency, hit ratio and
throughput.  This is the scenario the paper's single-client setting cannot
express: contention on the shared per-region cache and the throughput/latency
trade-off it causes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table
from repro.experiments.common import (
    EVALUATION_REGIONS,
    EngineOptions,
    ExperimentSettings,
    agar_config_for_capacity,
)
from repro.sim.engine import EngineConfig
from repro.sim.simulation import RegionAggregate, run_many

#: Client counts swept by the scaling experiment.
DEFAULT_CLIENT_SCALING: tuple[int, ...] = (1, 2, 4, 8)

#: Default per-client Poisson arrival rate (requests/second).
DEFAULT_ARRIVAL_RATE_RPS = 2.0


@dataclass(frozen=True)
class MultiRegionRow:
    """One row of the scaling experiment's report.

    The ``all`` region rows are the deployment-wide aggregate: percentiles of
    the merged per-read distribution, combined hit ratio, total throughput.
    """

    clients_per_region: int
    region: str
    strategy: str
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    hit_ratio: float
    throughput_rps: float
    #: Mean chunks per run read from neighbouring caches (§VI traffic).
    neighbor_chunks: float


def _row_from_aggregate(clients: int, aggregate: RegionAggregate) -> MultiRegionRow:
    return MultiRegionRow(
        clients_per_region=clients,
        region=aggregate.region,
        strategy=aggregate.strategy,
        mean_latency_ms=aggregate.mean_latency_ms,
        p50_latency_ms=aggregate.p50_latency_ms,
        p95_latency_ms=aggregate.p95_latency_ms,
        p99_latency_ms=aggregate.p99_latency_ms,
        hit_ratio=aggregate.hit_ratio,
        throughput_rps=aggregate.throughput_rps,
        neighbor_chunks=aggregate.neighbor_chunks,
    )


def run_multiregion_scaling(settings: ExperimentSettings | None = None,
                            options: EngineOptions | None = None,
                            strategy: str = "agar",
                            client_scaling: tuple[int, ...] | None = None
                            ) -> list[MultiRegionRow]:
    """Sweep concurrent clients per region on a fixed multi-region deployment.

    Defaults follow the acceptance scenario: two regions (Frankfurt, Sydney),
    Poisson arrivals, collaboration on.  The sweep covers ``client_scaling``
    (default 1/2/4/8, extended by the requested ``clients_per_region`` if it
    is not already included).  Heterogeneous deployments (per-region strategy
    and cache size) come from ``options.region_specs``; each sweep point
    reports its regions plus the deployment-wide aggregate row (``all``).
    """
    settings = settings or ExperimentSettings.quick()
    options = options or EngineOptions(
        regions=EVALUATION_REGIONS,
        clients_per_region=4,
        arrival_rate_rps=DEFAULT_ARRIVAL_RATE_RPS,
        collaboration=True,
    )
    regions = options.effective_regions(EVALUATION_REGIONS)
    arrival = options.arrival_spec()
    if client_scaling is None:
        client_scaling = tuple(sorted(set(DEFAULT_CLIENT_SCALING)
                                      | {options.clients_per_region}))
    capacity = settings.cache_capacity_bytes
    workload = settings.workload(skew=1.1)

    rows: list[MultiRegionRow] = []
    for clients in client_scaling:
        deployment_regions = options.build_region_specs(
            EVALUATION_REGIONS, strategy, clients=clients
        )
        all_agar = all(spec.strategy == "agar" for spec in deployment_regions)
        config = EngineConfig(
            workload=workload,
            regions=deployment_regions,
            cache_capacity_bytes=capacity,
            agar=agar_config_for_capacity(capacity),
            topology_seed=settings.seed,
            arrival=arrival,
            collaboration=options.collaboration and all_agar,
        )
        aggregates = run_many(config, runs=settings.runs)
        for region in regions:
            rows.append(_row_from_aggregate(clients, aggregates.regions[region]))
        rows.append(_row_from_aggregate(clients, aggregates.deployment_aggregate))
    return rows


def render_multiregion(rows: list[MultiRegionRow],
                       options: EngineOptions | None = None) -> Table:
    """Render the scaling experiment as a report table.

    Each client count lists its regions followed by the deployment-wide
    ``all`` aggregate row (merged percentiles, total throughput).
    """
    title = "Multi-region scaling — latency, hit ratio and throughput"
    if options is not None:
        loop = ("poisson @ %.2g rps" % options.arrival_rate_rps
                if options.arrival_rate_rps else "closed loop")
        collab = "collaboration on" if options.collaboration else "collaboration off"
        title += f" ({loop}, {collab})"
    table = Table(
        title=title,
        columns=("clients/region", "region", "strategy", "mean (ms)", "p50 (ms)",
                 "p95 (ms)", "p99 (ms)", "hit ratio (%)", "throughput (req/s)",
                 "neighbor chunks"),
    )
    for row in rows:
        table.add_row(
            row.clients_per_region,
            row.region,
            row.strategy,
            row.mean_latency_ms,
            row.p50_latency_ms,
            row.p95_latency_ms,
            row.p99_latency_ms,
            row.hit_ratio * 100.0,
            row.throughput_rps,
            row.neighbor_chunks,
        )
    return table
