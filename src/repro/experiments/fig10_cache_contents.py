"""Figure 10 — what Agar chooses to keep in its cache.

The paper takes snapshots of Agar's cache for clients in Frankfurt and Sydney
with 5 MB and 10 MB caches and shows how the cached space is split between
objects with 9, 7, 5, ... 1 cached chunks.  This experiment runs Agar under the
default workload and reports the same distribution, both as an object count
histogram and as the share of cache space per chunk-count bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import Table
from repro.experiments.common import MEGABYTE, ExperimentSettings, agar_config_for_capacity
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.simulation import run_many

#: The four scenarios of Fig. 10.
FIG10_SCENARIOS: tuple[tuple[str, int], ...] = (
    ("frankfurt", 10 * MEGABYTE),
    ("frankfurt", 5 * MEGABYTE),
    ("sydney", 10 * MEGABYTE),
    ("sydney", 5 * MEGABYTE),
)


@dataclass(frozen=True)
class Fig10Snapshot:
    """Cache-content distribution for one (region, cache size) scenario."""

    region: str
    cache_capacity_bytes: int
    chunk_histogram: dict[int, int] = field(default_factory=dict)
    space_share: dict[int, float] = field(default_factory=dict)
    cached_objects: int = 0
    cached_chunks: int = 0

    @property
    def cache_capacity_mb(self) -> float:
        """Capacity in megabytes."""
        return self.cache_capacity_bytes / MEGABYTE


def run_fig10(settings: ExperimentSettings | None = None,
              scenarios: tuple[tuple[str, int], ...] = FIG10_SCENARIOS) -> list[Fig10Snapshot]:
    """Run Agar in each scenario and snapshot its cache contents."""
    settings = settings or ExperimentSettings.quick()
    workload = settings.workload(skew=1.1)
    snapshots = []
    for region, capacity in scenarios:
        config = EngineConfig(
            workload=workload,
            regions=(RegionSpec(region, strategy="agar"),),
            cache_capacity_bytes=capacity,
            agar=agar_config_for_capacity(capacity),
            topology_seed=settings.seed,
        )
        last_run = run_many(config, runs=settings.runs).results[-1]
        snapshot = last_run.regions[region].cache_snapshot
        histogram = snapshot.chunk_count_histogram() if snapshot else {}
        total_chunks = sum(count * objects for count, objects in histogram.items())
        share = {
            count: (count * objects / total_chunks if total_chunks else 0.0)
            for count, objects in histogram.items()
        }
        snapshots.append(
            Fig10Snapshot(
                region=region,
                cache_capacity_bytes=capacity,
                chunk_histogram=dict(sorted(histogram.items(), reverse=True)),
                space_share=dict(sorted(share.items(), reverse=True)),
                cached_objects=sum(histogram.values()),
                cached_chunks=total_chunks,
            )
        )
    return snapshots


def render_fig10(snapshots: list[Fig10Snapshot]) -> Table:
    """Render the space share per chunk-count bucket for every scenario."""
    buckets = sorted({count for snap in snapshots for count in snap.space_share}, reverse=True)
    table = Table(
        title="Figure 10 — share of Agar's cache occupied per cached-chunk count (%)",
        columns=("scenario", *[f"{bucket} blocks" for bucket in buckets]),
    )
    for snap in snapshots:
        label = f"{snap.region} {snap.cache_capacity_mb:.0f}MB"
        table.add_row(label, *[snap.space_share.get(bucket, 0.0) * 100.0 for bucket in buckets])
    return table


def diversity_check(snapshot: Fig10Snapshot) -> dict[str, float]:
    """Quantify the paper's observations about Agar's cache contents.

    Returns the number of distinct chunk-count buckets in use and the largest
    single bucket's share of the cache (the paper notes Agar "diversifies the
    contents of the cache, rather than having the majority of the cache filled
    by a certain object size").
    """
    shares = list(snapshot.space_share.values())
    return {
        "distinct_buckets": float(len(shares)),
        "largest_bucket_share": max(shares) if shares else 0.0,
        "full_replica_share": snapshot.space_share.get(9, 0.0),
    }
