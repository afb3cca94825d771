"""The multi-region scaling experiment.

:func:`run_multiregion_scaling` sweeps a fixed deployment (default: Frankfurt
+ Sydney, Poisson arrivals, collaboration on) over the number of concurrent
clients per region, reporting per-region mean/p99 latency, hit ratio and
throughput.  This is the scenario the paper's single-client setting cannot
express: contention on the shared per-region cache and the throughput/latency
trade-off it causes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.analysis.report import Table
from repro.experiments.common import EVALUATION_REGIONS, EngineOptions, ExperimentSettings
from repro.sim.simulation import RegionAggregate, run_many

#: Client counts swept by the scaling experiment.
DEFAULT_CLIENT_SCALING: tuple[int, ...] = (1, 2, 4, 8)

#: The acceptance scenario: Frankfurt + Sydney, 4 clients each, Poisson
#: arrivals at 2 req/s per client, collaboration on.
DEFAULT_OPTIONS = EngineOptions(regions=EVALUATION_REGIONS, clients_per_region=4,
                                arrival_rate_rps=2.0, collaboration=True)


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
    """The row of ``aggregate``: every other field has its aggregate's name."""
    return MultiRegionRow(clients, *(getattr(aggregate, field.name)
                                     for field in fields(MultiRegionRow)[1:]))


def run_multiregion_scaling(settings: ExperimentSettings | None = None,
                            options: EngineOptions | None = None,
                            client_scaling: tuple[int, ...] | None = None
                            ) -> list[MultiRegionRow]:
    """Sweep concurrent clients per region on a fixed multi-region deployment.

    Defaults follow the acceptance scenario: two regions (Frankfurt, Sydney),
    Poisson arrivals, collaboration on.  The sweep covers ``client_scaling``
    (default 1/2/4/8, extended by the requested ``clients_per_region`` if it
    is not already included).  Heterogeneous deployments (per-region strategy
    and cache size) come from ``options.region_specs``; each sweep point
    reports its regions plus the deployment-wide aggregate row (``all``).
    Regions without a pinned strategy run Agar.
    """
    settings = settings or ExperimentSettings.quick()
    options = options or DEFAULT_OPTIONS
    regions = options.effective_regions(EVALUATION_REGIONS)
    arrival = options.arrival_spec()
    if client_scaling is None:
        client_scaling = tuple(sorted(set(DEFAULT_CLIENT_SCALING)
                                      | {options.clients_per_region}))
    rows: list[MultiRegionRow] = []
    for clients in client_scaling:
        deployment_regions = options.build_region_specs(
            EVALUATION_REGIONS, "agar", clients=clients
        )
        all_agar = all(spec.strategy == "agar" for spec in deployment_regions)
        config = settings.deployment(
            deployment_regions, arrival=arrival,
            collaboration=options.collaboration and all_agar)
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
    return Table.from_rows(title, (
        ("clients/region", "clients_per_region"), ("region", "region"),
        ("strategy", "strategy"), ("mean (ms)", "mean_latency_ms"),
        ("p50 (ms)", "p50_latency_ms"), ("p95 (ms)", "p95_latency_ms"),
        ("p99 (ms)", "p99_latency_ms"),
        ("hit ratio (%)", lambda row: row.hit_ratio * 100.0),
        ("throughput (req/s)", "throughput_rps"),
        ("neighbor chunks", "neighbor_chunks")), rows)
