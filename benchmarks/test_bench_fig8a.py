"""Benchmark for Fig. 8a — influence of the cache size (5 MB → 100 MB)."""

import os

from conftest import emit

from repro.experiments.fig8_sweeps import agar_lead_by_group, render_sweep, run_fig8a

#: The quick suite stops at 50 MB; the full suite (AGAR_BENCH_FULL=1) adds the
#: paper's 100 MB point, where Agar's lead all but disappears.
QUICK_SIZES = (5, 10, 20, 50)
FULL_SIZES = (5, 10, 20, 50, 100)


def test_bench_fig8a_cache_size(benchmark, settings):
    sizes = FULL_SIZES if os.environ.get("AGAR_BENCH_FULL") == "1" else QUICK_SIZES
    points = benchmark.pedantic(
        run_fig8a, kwargs={"settings": settings, "cache_sizes_mb": sizes},
        rounds=1, iterations=1,
    )
    emit("Figure 8a — average read latency (ms) vs cache size, Frankfurt",
         render_sweep(points, "Figure 8a — vary cache size").render())

    by_group = {}
    for point in points:
        by_group.setdefault(point.group, {})[point.strategy] = point.mean_latency_ms

    # Backend bar is the slowest configuration overall.
    assert by_group["0MB"]["backend"] == max(max(row.values()) for row in by_group.values())
    # Bigger caches help every policy.
    for strategy in ("agar", "lfu-9"):
        assert by_group[f"{sizes[-1]}MB"][strategy] < by_group["5MB"][strategy]

    leads = agar_lead_by_group(points)
    emit("Agar lead over the best static policy per cache size",
         "\n".join(f"  {group}: {lead:+.1f}%" for group, lead in sorted(leads.items())))
    # Agar leads at small-to-moderate cache sizes, where choosing what to cache
    # matters most (the paper's Fig. 8a message)...
    assert max(leads[f"{size}MB"] for size in sizes[:2]) > 0.0
    # ...and its lead shrinks once the cache fits all popular data.  (At very
    # large caches the quick-scale runs can even show a deficit, because online
    # baselines cache everything they see while Agar waits for its next
    # reconfiguration period.)
    assert leads[f"{sizes[-1]}MB"] <= max(leads[f"{size}MB"] for size in sizes[:-1]) + 1.0
    assert min(leads.values()) > -25.0
    benchmark.extra_info["leads_pct"] = {group: round(lead, 1) for group, lead in leads.items()}
