"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify:

* solver quality — the paper's DP heuristic vs. the exact MCKP optimum vs. the
  greedy baselines (§II-D argues greedy is inadequate);
* the EWMA interpretation — weight of the current period in the popularity
  EWMA (see DESIGN.md §3);
* the relaxation step — running the DP with and without RELAX;
* the LFU baseline interpretation — the paper's periodic LFU vs. an online
  cumulative LFU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exact import optimality_gap, solve_exact
from repro.core.greedy import solve_greedy_density, solve_greedy_marginal
from repro.core.knapsack import KnapsackSolver
from repro.core.options import CachingOption, generate_caching_options
from repro.core.agar_node import AgarNodeConfig
from repro.experiments.common import ExperimentSettings
from repro.geo.topology import default_topology
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.simulation import run_many
from repro.workload.zipfian import ZipfianDistribution


@dataclass(frozen=True)
class SolverQualityRow:
    """Heuristic/greedy value relative to the exact optimum for one capacity."""

    capacity_chunks: int
    heuristic_gap_pct: float
    heuristic_no_relax_gap_pct: float
    greedy_density_gap_pct: float
    greedy_marginal_gap_pct: float


def synthetic_options(object_count: int = 60, skew: float = 1.1, seed: int = 7,
                      client_region: str = "frankfurt") -> dict[str, list[CachingOption]]:
    """Caching options for a synthetic Zipf-popular object population."""
    topology = default_topology(seed=seed)
    latencies = topology.expected_read_latencies(client_region)
    regions = topology.region_names
    distribution = ZipfianDistribution(object_count, skew=skew, seed=seed)
    probabilities = distribution.probabilities()

    options_by_key: dict[str, list[CachingOption]] = {}
    for rank in range(object_count):
        key = f"object-{rank}"
        chunks_by_region = {region: [index, index + len(regions)] for index, region in enumerate(regions)}
        options_by_key[key] = generate_caching_options(
            key=key,
            chunks_by_region=chunks_by_region,
            region_latencies=latencies,
            popularity=float(probabilities[rank] * 1000.0),
            data_chunks=9,
            parity_chunks=3,
            cache_read_ms=20.0,
        )
    return options_by_key


def run_solver_quality(capacities: tuple[int, ...] = (18, 45, 90, 180),
                       object_count: int = 60, seed: int = 7) -> list[SolverQualityRow]:
    """Compare the DP heuristic and the greedy baselines against the exact optimum."""
    options_by_key = synthetic_options(object_count=object_count, seed=seed)
    rows = []
    for capacity in capacities:
        exact = solve_exact(options_by_key, capacity)
        heuristic = KnapsackSolver(capacity).solve_configuration(options_by_key)
        no_relax = KnapsackSolver(capacity, use_relax=False).solve_configuration(options_by_key)
        greedy_density = solve_greedy_density(options_by_key, capacity)
        greedy_marginal = solve_greedy_marginal(options_by_key, capacity)
        rows.append(
            SolverQualityRow(
                capacity_chunks=capacity,
                heuristic_gap_pct=optimality_gap(heuristic.value, exact.value) * 100.0,
                heuristic_no_relax_gap_pct=optimality_gap(no_relax.value, exact.value) * 100.0,
                greedy_density_gap_pct=optimality_gap(greedy_density.value, exact.value) * 100.0,
                greedy_marginal_gap_pct=optimality_gap(greedy_marginal.value, exact.value) * 100.0,
            )
        )
    return rows


@dataclass(frozen=True)
class AgarVariantRow:
    """Average latency of one Agar variant under the default workload."""

    variant: str
    mean_latency_ms: float
    hit_ratio: float


def run_agar_variants(settings: ExperimentSettings | None = None,
                      client_region: str = "frankfurt") -> list[AgarVariantRow]:
    """Compare Agar configurations: EWMA weight, reconfiguration period, relaxation."""
    settings = settings or ExperimentSettings.quick()
    workload = settings.workload(skew=1.1)
    variants: dict[str, AgarNodeConfig] = {
        "default (alpha=0.2, 30s)": AgarNodeConfig(),
        "literal alpha=0.8": AgarNodeConfig(alpha=0.8),
        "period=60s": AgarNodeConfig(reconfiguration_period_s=60.0),
        "period=10s": AgarNodeConfig(reconfiguration_period_s=10.0),
    }
    legs = [(label, "agar", node_config) for label, node_config in variants.items()]
    # Baseline interpretations of LFU (periodic vs cumulative/online).
    legs += [("paper LFU-7 (periodic)", "lfu-7", None),
             ("online LFU-7", "lfu-online-7", None)]
    rows = []
    for label, strategy, node_config in legs:
        config = EngineConfig(
            workload=workload,
            regions=(RegionSpec(client_region, strategy=strategy),),
            cache_capacity_bytes=settings.cache_capacity_bytes,
            agar=node_config,
            topology_seed=settings.seed,
        )
        aggregate = run_many(config, runs=settings.runs).regions[client_region]
        rows.append(
            AgarVariantRow(
                variant=label,
                mean_latency_ms=aggregate.mean_latency_ms,
                hit_ratio=aggregate.hit_ratio,
            )
        )
    return rows


def mean_gap(rows: list[SolverQualityRow], field: str) -> float:
    """Average optimality gap across capacities for one solver column."""
    return float(np.mean([getattr(row, field) for row in rows])) if rows else 0.0
