"""Figure 8 — influence of cache size (8a) and workload skew (8b).

Fig. 8a keeps the Zipf-1.1 workload fixed and sweeps the cache size over
{5, 10, 20, 50, 100} MB (plus the 0 MB backend bar); Fig. 8b keeps the cache at
10 MB and sweeps the workload over {uniform, Zipf 0.2 … 1.4}.  Both run from
Frankfurt and compare Agar with LRU-5/9 and LFU-5/9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table, improvement_summary
from repro.core.agar_node import AgarNodeConfig
from repro.experiments.common import (
    FIG8A_CACHE_SIZES_MB,
    FIG8B_SKEWS,
    FIG8_STRATEGIES,
    MEGABYTE,
    EngineOptions,
    ExperimentSettings,
    agar_config_for_capacity,
)
from repro.sim.simulation import run_comparison
from repro.workload.workload import WorkloadSpec


def _compare_strategies(workload: WorkloadSpec, strategies: list[str],
                        client_region: str, cache_capacity_bytes: int,
                        settings: ExperimentSettings,
                        agar_config: AgarNodeConfig | None = None,
                        engine: EngineOptions | None = None
                        ) -> dict[str, tuple[float, float]]:
    """One sweep point: ``{strategy: (mean_latency_ms, hit_ratio)}``.

    The paper's setting is one client in ``client_region``; engine options
    replace it with their own regions, client count, arrival process and
    collaboration (metrics averaged over the deployment's regions, which all
    carry the same request count).

    Raises:
        ValueError: if engine options pin per-region strategies — Fig. 8
            compares strategies, so a pinned region would report the same
            deployment under every strategy label (use ``fig6`` or
            ``multiregion`` for heterogeneous-strategy deployments; per-region
            cache sizes remain valid here).
    """
    options = engine or EngineOptions()
    pinned = [spec.region for spec in options.region_specs or ()
              if spec.strategy is not None]
    if pinned:
        raise ValueError(
            f"fig8 sweeps strategies; pinned per-region strategies "
            f"(--region, offending: {pinned}) belong to fig6/multiregion"
        )
    comparison = run_comparison(
        workload=workload,
        deployments={strategy: options.build_region_specs((client_region,), strategy)
                     for strategy in strategies},
        cache_capacity_bytes=cache_capacity_bytes,
        runs=settings.runs,
        agar_config=agar_config,
        topology_seed=settings.seed,
        arrival=options.arrival_spec(),
        collaboration=options.collaboration,
    )
    return {
        strategy: (
            sum(a.mean_latency_ms for a in runs.regions.values()) / len(runs.regions),
            sum(a.hit_ratio for a in runs.regions.values()) / len(runs.regions),
        )
        for strategy, runs in comparison.items()
    }


@dataclass(frozen=True)
class SweepPoint:
    """One bar of Fig. 8a or Fig. 8b."""

    group: str          #: "5MB" / "100MB" for 8a, "uniform" / "zipf-1.1" for 8b
    strategy: str
    mean_latency_ms: float
    hit_ratio: float


def run_fig8a(settings: ExperimentSettings | None = None,
              cache_sizes_mb: tuple[int, ...] = FIG8A_CACHE_SIZES_MB,
              strategies: tuple[str, ...] = FIG8_STRATEGIES,
              client_region: str = "frankfurt",
              include_backend_bar: bool = True,
              engine: EngineOptions | None = None) -> list[SweepPoint]:
    """Vary the cache size with the workload fixed at Zipf 1.1 (Fig. 8a).

    Raises:
        ValueError: if engine options carry per-region cache sizes — this
            figure sweeps the cache size itself, so a per-region override
            would silently fight the sweep.
    """
    settings = settings or ExperimentSettings.quick()
    if engine is not None:
        sized = [spec.region for spec in engine.region_specs or ()
                 if spec.cache_capacity_bytes is not None]
        if sized:
            raise ValueError(
                f"fig8a sweeps the cache size; per-region cache overrides "
                f"(--region, offending: {sized}) conflict with the sweep"
            )
    workload = settings.workload(skew=1.1)
    points: list[SweepPoint] = []

    if include_backend_bar:
        metrics = _compare_strategies(
            workload, ["backend"], client_region, 0, settings, engine=engine,
        )
        points.append(
            SweepPoint(group="0MB", strategy="backend",
                       mean_latency_ms=metrics["backend"][0],
                       hit_ratio=metrics["backend"][1])
        )

    for size_mb in cache_sizes_mb:
        capacity = size_mb * MEGABYTE
        metrics = _compare_strategies(
            workload, list(strategies), client_region, capacity, settings,
            agar_config=agar_config_for_capacity(capacity), engine=engine,
        )
        for strategy, (mean_latency_ms, hit_ratio) in metrics.items():
            points.append(
                SweepPoint(group=f"{size_mb}MB", strategy=strategy,
                           mean_latency_ms=mean_latency_ms, hit_ratio=hit_ratio)
            )
    return points


def run_fig8b(settings: ExperimentSettings | None = None,
              skews: tuple[float, ...] = FIG8B_SKEWS,
              strategies: tuple[str, ...] = FIG8_STRATEGIES,
              client_region: str = "frankfurt",
              include_uniform: bool = True,
              include_backend_bar: bool = True,
              engine: EngineOptions | None = None) -> list[SweepPoint]:
    """Vary the workload with the cache fixed at 10 MB (Fig. 8b)."""
    settings = settings or ExperimentSettings.quick()
    capacity = settings.cache_capacity_bytes
    points: list[SweepPoint] = []

    workloads: list[tuple[str, WorkloadSpec]] = []
    if include_uniform:
        workloads.append(("uniform", settings.workload(skew=None)))
    workloads.extend((f"zipf-{skew:g}", settings.workload(skew=skew)) for skew in skews)

    if include_backend_bar:
        metrics = _compare_strategies(
            workloads[0][1], ["backend"], client_region, 0, settings, engine=engine,
        )
        points.append(
            SweepPoint(group="backend", strategy="backend",
                       mean_latency_ms=metrics["backend"][0],
                       hit_ratio=metrics["backend"][1])
        )

    for group, workload in workloads:
        metrics = _compare_strategies(
            workload, list(strategies), client_region, capacity, settings,
            agar_config=agar_config_for_capacity(capacity), engine=engine,
        )
        for strategy, (mean_latency_ms, hit_ratio) in metrics.items():
            points.append(
                SweepPoint(group=group, strategy=strategy,
                           mean_latency_ms=mean_latency_ms, hit_ratio=hit_ratio)
            )
    return points


def render_sweep(points: list[SweepPoint], title: str) -> Table:
    """Render a sweep as a table with one row per group, one column per strategy."""
    groups = list(dict.fromkeys(point.group for point in points))
    strategies = list(dict.fromkeys(point.strategy for point in points))
    lookup = {(point.group, point.strategy): point.mean_latency_ms for point in points}
    table = Table(title=title, columns=("group", *strategies))
    for group in groups:
        table.add_row(group, *[lookup.get((group, strategy), float("nan")) for strategy in strategies])
    return table


def agar_lead_by_group(points: list[SweepPoint]) -> dict[str, float]:
    """Agar's latency advantage (%) over the best static policy, per sweep group."""
    leads: dict[str, float] = {}
    groups = {point.group for point in points if point.strategy == "agar"}
    for group in groups:
        latencies = {
            point.strategy: point.mean_latency_ms
            for point in points
            if point.group == group
        }
        summary = improvement_summary(latencies, subject="agar", exclude=("backend",))
        leads[group] = summary["vs_best_pct"]
    return leads
