"""Figure 2 — average read latency vs. number of cached chunks.

The motivating experiment (§II-C): an effectively infinite cache per region
stores a fixed number of data chunks ``c`` for every object it has seen, with
``c`` swept over {0, 1, 3, 5, 7, 9}.  ``c = 0`` is the no-cache baseline that
reads straight from the backend.  The paper runs it from Frankfurt and Sydney
and observes that the latency gain is a non-linear function of ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table
from repro.experiments.common import FIG2_CHUNK_COUNTS, MEGABYTE, ExperimentSettings
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.simulation import run_many

#: Cache size that comfortably fits the full working set — the paper gives each
#: memcached instance 500 MB, "in practice emulating an infinite cache".
INFINITE_CACHE_BYTES = 500 * MEGABYTE


@dataclass(frozen=True)
class Fig2Point:
    """One bar of Fig. 2: a region and a cached-chunk count."""

    region: str
    cached_chunks: int
    mean_latency_ms: float
    hit_ratio: float


def run_fig2(settings: ExperimentSettings | None = None,
             regions: tuple[str, ...] = ("frankfurt", "sydney"),
             chunk_counts: tuple[int, ...] = FIG2_CHUNK_COUNTS) -> list[Fig2Point]:
    """Run the motivating experiment and return one point per (region, c)."""
    settings = settings or ExperimentSettings.quick()
    workload = settings.workload(skew=1.1)
    points = []
    for region in regions:
        for cached_chunks in chunk_counts:
            strategy = "backend" if cached_chunks == 0 else f"lru-{cached_chunks}"
            config = EngineConfig(
                workload=workload,
                regions=(RegionSpec(region, strategy=strategy),),
                cache_capacity_bytes=INFINITE_CACHE_BYTES,
                topology_seed=settings.seed,
            )
            result = run_many(config, runs=settings.runs).regions[region]
            points.append(
                Fig2Point(
                    region=region,
                    cached_chunks=cached_chunks,
                    mean_latency_ms=result.mean_latency_ms,
                    hit_ratio=result.hit_ratio,
                )
            )
    return points


def render_fig2(points: list[Fig2Point]) -> Table:
    """Render Fig. 2 as a table with one row per chunk count, one column per region."""
    regions = sorted({point.region for point in points})
    chunk_counts = sorted({point.cached_chunks for point in points})
    lookup = {(point.region, point.cached_chunks): point.mean_latency_ms for point in points}
    table = Table(
        title="Figure 2 — average read latency (ms) vs. cached data chunks",
        columns=("cached chunks", *regions),
    )
    for count in chunk_counts:
        table.add_row(count, *[lookup[(region, count)] for region in regions])
    return table


def nonlinearity_check(points: list[Fig2Point], region: str) -> dict[str, float]:
    """Quantify the non-linearity the paper highlights for one region.

    Returns the marginal latency reduction of the first half of the chunk
    sweep versus the second half; a linear relationship would make them equal.
    """
    series = sorted(
        (point for point in points if point.region == region),
        key=lambda point: point.cached_chunks,
    )
    if len(series) < 3:
        raise ValueError("need at least three chunk counts to assess non-linearity")
    latencies = [point.mean_latency_ms for point in series]
    middle = len(latencies) // 2
    first_half_gain = latencies[0] - latencies[middle]
    second_half_gain = latencies[middle] - latencies[-1]
    total_gain = latencies[0] - latencies[-1]
    return {
        "total_gain_ms": total_gain,
        "first_half_gain_ms": first_half_gain,
        "second_half_gain_ms": second_half_gain,
        "first_half_share": first_half_gain / total_gain if total_gain else 0.0,
    }
