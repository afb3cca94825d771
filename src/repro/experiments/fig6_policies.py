"""Figures 6 and 7 — Agar vs. LRU-c, LFU-c and the backend.

One experiment produces both figures: Fig. 6 plots the average read latency of
every strategy in Frankfurt and Sydney with a 10 MB cache and the Zipf-1.1
workload; Fig. 7 plots the corresponding hit ratios (full + partial hits).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table, improvement_summary
from repro.experiments.common import (
    EVALUATION_REGIONS,
    FIG6_STRATEGIES,
    EngineOptions,
    ExperimentSettings,
    agar_config_for_capacity,
)
from repro.sim.simulation import RegionAggregate, run_comparison


@dataclass(frozen=True)
class PolicyComparisonRow:
    """One bar of Fig. 6 / Fig. 7."""

    region: str
    strategy: str
    mean_latency_ms: float
    hit_ratio: float
    full_hit_ratio: float


def run_policy_comparison(settings: ExperimentSettings | None = None,
                          regions: tuple[str, ...] = EVALUATION_REGIONS,
                          strategies: tuple[str, ...] = FIG6_STRATEGIES,
                          cache_capacity_bytes: int | None = None,
                          engine: EngineOptions | None = None) -> list[PolicyComparisonRow]:
    """Run the Fig. 6 / Fig. 7 comparison and return one row per (region, strategy).

    The paper's setting deploys every region on its own, one client each.
    With active ``engine`` options all regions simulate simultaneously in one
    deployment per strategy instead, with the requested client count, arrival
    process and (for Agar) cache collaboration.
    """
    settings = settings or ExperimentSettings.quick()
    capacity = cache_capacity_bytes or settings.cache_capacity_bytes
    options = engine or EngineOptions()

    if options.active:
        deployment_regions = options.effective_regions(regions)
        sweep_strategies = list(strategies)
        pinned = {spec.region for spec in options.region_specs or ()
                  if spec.strategy is not None}
        if pinned and len(pinned) == len(deployment_regions):
            # Every region pins its strategy (--region NAME:STRATEGY...): the
            # sweep would rerun the identical heterogeneous deployment per
            # strategy, so one run suffices.
            sweep_strategies = sweep_strategies[:1]
        elif pinned and options.collaboration:
            # Collaboration only activates in the all-agar sweep deployment,
            # so a pinned region's rows would average collaborative and
            # non-collaborative systems — refuse rather than report a number
            # that matches neither.
            raise ValueError(
                "collaboration with partially pinned --region strategies is "
                "ambiguous for fig6/fig7; pin every region or drop "
                "--collaboration"
            )
        sweeps = [{strategy: options.build_region_specs(regions, strategy)
                   for strategy in sweep_strategies}]
    else:
        # Co-deploying regions interleaves their jitter draws, which moves
        # the paper's numbers: its setting is one deployment per region.
        sweeps = [{strategy: options.build_region_specs((region,), strategy)
                   for strategy in strategies}
                  for region in regions]

    # Rows carry the strategy that actually ran in each region — for a
    # pinned region that is its pinned strategy, not the sweep label.  A
    # pinned region repeats its (same-strategy) run once per sweep
    # deployment with slightly different jitter interleavings, so its
    # row averages over all of them, like extra repetitions.
    collected: dict[tuple[str, str], list[RegionAggregate]] = {}
    for deployments in sweeps:
        comparison = run_comparison(
            workload=settings.workload(skew=1.1),
            deployments=deployments,
            cache_capacity_bytes=capacity,
            runs=settings.runs,
            agar_config=agar_config_for_capacity(capacity),
            topology_seed=settings.seed,
            arrival=options.arrival_spec(),
            collaboration=options.collaboration,
        )
        for runs in comparison.values():
            for region, aggregate in runs.regions.items():
                collected.setdefault((region, aggregate.strategy), []).append(aggregate)
    return [
        PolicyComparisonRow(
            region=region,
            strategy=label,
            mean_latency_ms=sum(a.mean_latency_ms for a in aggregates) / len(aggregates),
            hit_ratio=sum(a.hit_ratio for a in aggregates) / len(aggregates),
            full_hit_ratio=sum(a.full_hit_ratio for a in aggregates) / len(aggregates),
        )
        for (region, label), aggregates in collected.items()
    ]


def _row_strategies(rows: list[PolicyComparisonRow]) -> list[str]:
    """Distinct strategies in first-appearance order (regions may differ
    when ``--region`` pins per-region strategies)."""
    ordered: list[str] = []
    for row in rows:
        if row.strategy not in ordered:
            ordered.append(row.strategy)
    return ordered


def render_fig6(rows: list[PolicyComparisonRow]) -> Table:
    """Fig. 6: average read latency per strategy and region.

    A region pinned to one strategy (heterogeneous ``--region`` deployments)
    only has values for that strategy; other cells render as ``-``.
    """
    regions = sorted({row.region for row in rows})
    lookup = {(row.region, row.strategy): row.mean_latency_ms for row in rows}
    table = Table(
        title="Figure 6 — average read latency (ms): Agar vs LRU/LFU vs Backend",
        columns=("strategy", *regions),
    )
    for strategy in _row_strategies(rows):
        table.add_row(strategy, *[lookup.get((region, strategy), "-")
                                  for region in regions])
    return table


def render_fig7(rows: list[PolicyComparisonRow]) -> Table:
    """Fig. 7: hit ratio (full + partial) per caching strategy and region."""
    regions = sorted({row.region for row in rows})
    lookup = {(row.region, row.strategy): row.hit_ratio for row in rows}
    table = Table(
        title="Figure 7 — cache hit ratio (full + partial hits)",
        columns=("strategy", *[f"{region} (%)" for region in regions]),
    )
    for strategy in _row_strategies(rows):
        if strategy == "backend":
            continue
        table.add_row(strategy, *[
            lookup[(region, strategy)] * 100.0 if (region, strategy) in lookup else "-"
            for region in regions
        ])
    return table


def agar_advantage(rows: list[PolicyComparisonRow], region: str) -> dict[str, float]:
    """The paper's headline numbers for one region.

    Returns how much lower Agar's latency is than the best and the worst
    static caching policy (LRU-c / LFU-c), excluding the backend.  Empty when
    the region has no Agar run or nothing to compare against (e.g. a region
    pinned to a single strategy in a heterogeneous deployment).
    """
    latencies = {row.strategy: row.mean_latency_ms for row in rows if row.region == region}
    comparable = {name for name in latencies if name not in ("agar", "backend")}
    if "agar" not in latencies or not comparable:
        return {}
    return improvement_summary(latencies, subject="agar", exclude=("backend",))
