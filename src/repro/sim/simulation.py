"""The experiment driver: repeat one deployment over several seeds and aggregate.

Every number the paper reports is "the average of 5 runs" against a
long-running deployment.  :func:`run_many` is that recipe for any
:class:`~repro.sim.engine.EngineConfig` — reseed the latency jitter, deploy
once, execute one run per seed against the same warm deployment, average per
region and deployment-wide.  The paper's own setting (one closed-loop client
in one region) is its 1 × 1 deployment; the multi-region figures are the same
call with more regions and clients.

:func:`run_comparison` repeats :func:`run_many` over several labelled
deployments of one workload under identical conditions — the workhorse of the
Fig. 6/7/8 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.agar_node import AgarNodeConfig
from repro.geo.topology import Topology
from repro.sim.engine import (
    DeploymentAggregate,
    EngineConfig,
    EngineDeployment,
    EngineResult,
    EventEngine,
    RegionRunResult,
    RegionSpec,
)
from repro.workload.workload import ArrivalSpec, WorkloadSpec

#: Region label of deployment-wide aggregate rows in reports.
DEPLOYMENT_LABEL = "all"


@dataclass(frozen=True)
class RegionAggregate:
    """Per-region metrics averaged over repeated engine runs."""

    region: str
    strategy: str
    clients: int
    runs: int
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    hit_ratio: float
    full_hit_ratio: float
    throughput_rps: float
    #: Chunks served from neighbouring regions' caches, averaged per run
    #: (§VI neighbour reads; 0 outside collaborative deployments).
    neighbor_chunks: float
    per_run_latency_ms: list[float]


def _aggregate_region(results: list[RegionRunResult]) -> RegionAggregate:
    first = results[0]
    latencies = [result.mean_latency_ms for result in results]
    count = len(results)
    return RegionAggregate(
        region=first.region,
        strategy=first.strategy,
        clients=first.clients,
        runs=count,
        mean_latency_ms=sum(latencies) / count,
        p50_latency_ms=sum(r.stats.p50_latency_ms for r in results) / count,
        p95_latency_ms=sum(r.stats.p95_latency_ms for r in results) / count,
        p99_latency_ms=sum(r.p99_latency_ms for r in results) / count,
        hit_ratio=sum(r.hit_ratio for r in results) / count,
        full_hit_ratio=sum(r.stats.full_hit_ratio for r in results) / count,
        throughput_rps=sum(r.throughput_rps for r in results) / count,
        neighbor_chunks=sum(r.stats.neighbor_chunks_total for r in results) / count,
        per_run_latency_ms=latencies,
    )


def _aggregate_deployment(config: EngineConfig,
                          aggregates: list[DeploymentAggregate]) -> RegionAggregate:
    """Average the per-run deployment-wide aggregates into one report row.

    Percentiles here are percentiles of the merged per-read distribution of
    each run (see :meth:`EngineResult.aggregate`), averaged over runs — not
    averages of per-region percentiles.
    """
    strategies = sorted({spec.strategy for spec in config.regions})
    count = len(aggregates)
    latencies = [aggregate.mean_latency_ms for aggregate in aggregates]
    return RegionAggregate(
        region=DEPLOYMENT_LABEL,
        strategy=strategies[0] if len(strategies) == 1 else "+".join(strategies),
        clients=config.total_clients,
        runs=count,
        mean_latency_ms=sum(latencies) / count,
        p50_latency_ms=sum(a.p50_latency_ms for a in aggregates) / count,
        p95_latency_ms=sum(a.p95_latency_ms for a in aggregates) / count,
        p99_latency_ms=sum(a.p99_latency_ms for a in aggregates) / count,
        hit_ratio=sum(a.hit_ratio for a in aggregates) / count,
        full_hit_ratio=sum(a.full_hit_ratio for a in aggregates) / count,
        throughput_rps=sum(a.throughput_rps for a in aggregates) / count,
        neighbor_chunks=sum(a.neighbor_chunks for a in aggregates) / count,
        per_run_latency_ms=latencies,
    )


@dataclass(frozen=True)
class RunsResult:
    """Repeated runs of one deployment: the averages and what they came from.

    Attributes:
        regions: per-region averages, in the configuration's region order.
        deployment_aggregate: the deployment-wide average (merged
            percentiles, combined hit ratio, total throughput), labelled
            :data:`DEPLOYMENT_LABEL`.
        results: the per-run engine results, in seed order — final cache
            snapshots, and every read when run with ``keep_results``.
        deployment: the deployment the runs executed against (its Agar nodes
            carry fault-reaction lags, its coordinator the overlap reports).
            Sharded runs mutate copies, so there it stays cold.
    """

    regions: dict[str, RegionAggregate]
    deployment_aggregate: RegionAggregate
    results: list[EngineResult]
    deployment: EngineDeployment


def run_many(config: EngineConfig, runs: int = 5, base_seed: int | None = None,
             topology: Topology | None = None, sharded: bool = False,
             keep_results: bool = False) -> RunsResult:
    """Repeat one deployment over several seeds and aggregate (paper: 5 runs).

    The deployment — caches, popularity statistics and the simulated clock —
    persists across the runs, which mirrors repeating YCSB runs against a
    long-running system as the paper does.  (:meth:`EventEngine.run` is the
    cold single run.)

    Args:
        runs: number of repetitions.
        base_seed: seed of the first run (subsequent runs add 1, 2, ...);
            defaults to the workload's seed.
        topology: optionally reuse a topology.
        sharded: execute through :meth:`EventEngine.execute_sharded` (one
            worker per region, every run on a copy of the cold deployment)
            instead of :meth:`EventEngine.execute` (every run warming it;
            regions after the first run in forked workers, whose warm
            strategies the deployment takes back, so the repetitions read
            as they would in one process).
        keep_results: retain every individual read of every run.
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    engine = EventEngine(config, topology=topology, keep_results=keep_results)
    base = config.workload.seed if base_seed is None else base_seed
    engine.topology.latency.reseed(config.topology_seed + base)
    deployment = engine.build_deployment()
    execute = engine.execute_sharded if sharded else engine.execute
    results = [execute(deployment, base + run_index) for run_index in range(runs)]
    return RunsResult(
        regions={
            spec.region: _aggregate_region(
                [result.regions[spec.region] for result in results])
            for spec in config.regions
        },
        deployment_aggregate=_aggregate_deployment(
            config, [result.aggregate() for result in results]),
        results=results,
        deployment=deployment,
    )


def run_comparison(workload: WorkloadSpec,
                   deployments: dict[str, tuple[RegionSpec, ...]],
                   cache_capacity_bytes: int, runs: int = 5,
                   agar_config: AgarNodeConfig | None = None,
                   topology_seed: int = 0,
                   topology: Topology | None = None,
                   arrival: ArrivalSpec | None = None,
                   collaboration: bool = False) -> dict[str, RunsResult]:
    """Run several labelled deployments under identical conditions.

    ``deployments`` maps a label (usually the strategy being compared) to the
    regions deployed together under it.  The regions of one tuple simulate
    side by side: the first on the deployment's jitter stream, every other
    on its own seed-derived one, meeting only in §VI rounds; the paper's
    setting is one single-region tuple per label.  Collaboration
    is applied only to deployments whose every region runs ``agar`` — the
    static baselines have no nodes to collaborate.
    """
    return {
        label: run_many(
            EngineConfig(
                workload=workload,
                regions=regions,
                cache_capacity_bytes=cache_capacity_bytes,
                agar=agar_config,
                topology_seed=topology_seed,
                arrival=arrival or ArrivalSpec(),
                collaboration=collaboration and all(
                    spec.strategy == "agar" for spec in regions),
            ),
            runs=runs, topology=topology,
        )
        for label, regions in deployments.items()
    }
