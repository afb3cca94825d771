"""Figure 8 — influence of cache size (8a) and workload skew (8b).

Fig. 8a keeps the Zipf-1.1 workload fixed and sweeps the cache size over
{5, 10, 20, 50, 100} MB (plus the 0 MB backend bar); Fig. 8b keeps the cache at
10 MB and sweeps the workload over {uniform, Zipf 0.2 … 1.4}.  Both run from
Frankfurt and compare Agar with LRU-5/9 and LFU-5/9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table, improvement_summary
from repro.experiments.common import (
    CLIENT_REGION,
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


def check_no_pinned_strategy(engine: EngineOptions | None) -> None:
    """Raise ``ValueError`` if engine options pin per-region strategies.

    Fig. 8 compares strategies, so a pinned region would report the same
    deployment under every strategy label (``fig6`` and ``multiregion`` take
    heterogeneous-strategy deployments; per-region cache sizes remain valid
    in Fig. 8b).
    """
    if any(spec.strategy is not None for spec in engine and engine.region_specs or ()):
        raise ValueError("--region with a pinned strategy is not valid for "
                         "fig8a/fig8b (strategy sweeps); use fig6 or multiregion")


def check_no_cache_size(engine: EngineOptions | None) -> None:
    """Raise ``ValueError`` if engine options carry per-region cache sizes,
    which would fight Fig. 8a's cache-size sweep."""
    if any(spec.cache_capacity_bytes is not None
           for spec in engine and engine.region_specs or ()):
        raise ValueError("--region with a cache size is not valid for fig8a "
                         "(it sweeps the cache size)")


@dataclass(frozen=True)
class SweepPoint:
    """One bar of Fig. 8a or Fig. 8b."""

    group: str          #: "5MB" / "100MB" for 8a, "uniform" / "zipf-1.1" for 8b
    strategy: str
    mean_latency_ms: float
    hit_ratio: float


def _sweep(settings: ExperimentSettings, engine: EngineOptions | None,
           legs: list[tuple[str, WorkloadSpec, int, tuple[str, ...]]]) -> list[SweepPoint]:
    """One point per strategy of each ``(group, workload, cache_capacity_bytes,
    strategies)`` leg.

    The paper's setting is one client in :data:`CLIENT_REGION`; engine options
    replace it with their own regions, client count, arrival process and
    collaboration (metrics averaged over the deployment's regions, which all
    carry the same request count).
    """
    options = engine or EngineOptions()
    points = []
    for group, workload, capacity, strategies in legs:
        comparison = run_comparison(
            workload=workload,
            deployments={strategy: options.build_region_specs((CLIENT_REGION,), strategy)
                         for strategy in strategies},
            cache_capacity_bytes=capacity,
            runs=settings.runs,
            agar_config=agar_config_for_capacity(capacity),
            topology_seed=settings.seed,
            arrival=options.arrival_spec(),
            collaboration=options.collaboration,
        )
        for strategy, runs in comparison.items():
            regions = runs.regions.values()
            points.append(SweepPoint(
                group, strategy,
                mean_latency_ms=sum(a.mean_latency_ms for a in regions) / len(regions),
                hit_ratio=sum(a.hit_ratio for a in regions) / len(regions)))
    return points


def run_fig8a(settings: ExperimentSettings | None = None,
              cache_sizes_mb: tuple[int, ...] = FIG8A_CACHE_SIZES_MB,
              strategies: tuple[str, ...] = FIG8_STRATEGIES,
              engine: EngineOptions | None = None) -> list[SweepPoint]:
    """Vary the cache size with the workload fixed at Zipf 1.1 (Fig. 8a),
    after the 0 MB backend bar."""
    settings = settings or ExperimentSettings.quick()
    check_no_pinned_strategy(engine)
    check_no_cache_size(engine)
    workload = settings.workload(skew=1.1)
    return _sweep(settings, engine, [("0MB", workload, 0, ("backend",))] + [
        (f"{size_mb}MB", workload, size_mb * MEGABYTE, strategies)
        for size_mb in cache_sizes_mb])


def run_fig8b(settings: ExperimentSettings | None = None,
              skews: tuple[float, ...] = FIG8B_SKEWS,
              strategies: tuple[str, ...] = FIG8_STRATEGIES,
              include_backend_bar: bool = True,
              engine: EngineOptions | None = None) -> list[SweepPoint]:
    """Vary the workload over uniform and ``skews`` with the cache fixed at
    10 MB (Fig. 8b), after the backend bar on the uniform workload."""
    settings = settings or ExperimentSettings.quick()
    check_no_pinned_strategy(engine)
    workloads = [("uniform", settings.workload(skew=None))]
    workloads.extend((f"zipf-{skew:g}", settings.workload(skew=skew)) for skew in skews)
    bar = [("backend", workloads[0][1], 0, ("backend",))] if include_backend_bar else []
    return _sweep(settings, engine, bar + [
        (group, workload, settings.cache_capacity_bytes, strategies)
        for group, workload in workloads])


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
    def lead(group: str) -> float:
        latencies = {point.strategy: point.mean_latency_ms
                     for point in points if point.group == group}
        return improvement_summary(latencies, subject="agar", exclude=("backend",))["vs_best_pct"]

    return {group: lead(group) for group in {point.group for point in points
                                             if point.strategy == "agar"}}
