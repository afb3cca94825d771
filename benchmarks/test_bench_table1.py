"""Benchmark for Table I — per-region latency estimates from Frankfurt."""

from conftest import emit

from repro.experiments.table1_latency import render_table1, run_table1, run_table1_calibrated
from repro.geo.topology import TABLE1_FRANKFURT_LATENCIES


def test_bench_table1(benchmark):
    """Region Manager warm-up probes on the Table-I topology preset."""
    rows = benchmark.pedantic(run_table1, rounds=3, iterations=1)
    emit("Table I — read latency from Frankfurt (paper preset)", render_table1(rows).render())

    by_region = {row.region: row.measured_ms for row in rows}
    for region, expected in TABLE1_FRANKFURT_LATENCIES.items():
        assert by_region[region] == expected
    benchmark.extra_info["regions"] = len(rows)


def test_bench_table1_calibrated(benchmark):
    """Same probes on the calibrated evaluation topology."""
    rows = benchmark.pedantic(run_table1_calibrated, rounds=3, iterations=1)
    emit("Table I equivalent — calibrated evaluation topology", render_table1(
        rows, title="Calibrated per-chunk read latency from Frankfurt").render())
    ordering = [row.region for row in rows]
    assert ordering[0] == "frankfurt"
    assert ordering[-1] == "sydney"
