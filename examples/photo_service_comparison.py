#!/usr/bin/env python3
"""A geo-distributed photo-serving service: Agar vs. classical cache policies.

The paper's motivation (§I) is a cloud application that serves content to end
users from an erasure-coded store spanning many regions.  This example models a
photo service whose European users (Frankfurt) and Australian users (Sydney)
read 1 MB photos with a Zipfian popularity distribution, and compares the
average photo load time under:

* no caching at all (Backend),
* memcached-style LRU keeping 5 chunks per photo,
* the paper's LFU baseline keeping 7 or 9 chunks per photo,
* Agar.

Run with:  python examples/photo_service_comparison.py
"""

from __future__ import annotations

from repro.analysis import Table, improvement_summary
from repro.sim import RegionSpec, run_comparison
from repro.workload import zipfian_workload

MEGABYTE = 1024 * 1024
STRATEGIES = ["agar", "lfu-7", "lfu-9", "lru-5", "lru-1", "backend"]


def main() -> None:
    workload = zipfian_workload(
        skew=1.1, request_count=1000, object_count=300, object_size=MEGABYTE, seed=7,
    )

    table = Table(
        title="Average photo load time (ms), 10 MB cache per region, Zipf 1.1",
        columns=("strategy", "frankfurt", "sydney"),
    )
    results = {}
    for region in ("frankfurt", "sydney"):
        print(f"simulating {region} ({len(STRATEGIES)} strategies x 3 runs) ...")
        comparison = run_comparison(
            workload=workload,
            deployments={strategy: (RegionSpec(region, strategy=strategy),)
                         for strategy in STRATEGIES},
            cache_capacity_bytes=10 * MEGABYTE,
            runs=3,
        )
        results[region] = {strategy: runs.regions[region]
                           for strategy, runs in comparison.items()}

    for strategy in STRATEGIES:
        table.add_row(
            strategy,
            results["frankfurt"][strategy].mean_latency_ms,
            results["sydney"][strategy].mean_latency_ms,
        )
    print()
    print(table.render())

    for region in ("frankfurt", "sydney"):
        latencies = {name: agg.mean_latency_ms for name, agg in results[region].items()}
        summary = improvement_summary(latencies, subject="agar", exclude=("backend",))
        print(
            f"\n{region}: Agar loads photos {summary['vs_best_pct']:.1f}% faster than the best "
            f"static policy ({summary['best_other']}) and {summary['vs_worst_pct']:.1f}% faster "
            f"than the worst ({summary['worst_other']}); "
            f"hit ratio {results[region]['agar'].hit_ratio * 100:.0f}%"
        )


if __name__ == "__main__":
    main()
