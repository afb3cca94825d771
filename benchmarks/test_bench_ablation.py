"""Ablation benchmarks for the reproduction's own design choices.

* solver quality: the paper's DP heuristic vs the exact MCKP optimum vs greedy
  (§II-D argues greedy is inadequate; the DP should be near-optimal);
* the relaxation step of Fig. 5 (on/off);
* the EWMA interpretation and the reconfiguration period;
* the LFU-baseline interpretation (periodic, as in the paper, vs online).
"""

from conftest import emit

from repro.experiments.ablation import mean_gap, run_agar_variants, run_solver_quality


def test_bench_solver_quality(benchmark):
    rows = benchmark.pedantic(run_solver_quality, kwargs={"capacities": (18, 45, 90, 180)},
                              rounds=1, iterations=1)
    lines = [
        f"  capacity {row.capacity_chunks:4d}: heuristic {row.heuristic_gap_pct:5.2f}% | "
        f"no-relax {row.heuristic_no_relax_gap_pct:5.2f}% | "
        f"greedy-density {row.greedy_density_gap_pct:5.2f}% | "
        f"greedy-marginal {row.greedy_marginal_gap_pct:5.2f}%  (gap from exact optimum)"
        for row in rows
    ]
    emit("Ablation — solver optimality gaps", "\n".join(lines))

    assert mean_gap(rows, "heuristic_gap_pct") <= 5.0
    assert mean_gap(rows, "heuristic_gap_pct") <= mean_gap(rows, "greedy_density_gap_pct")
    assert mean_gap(rows, "heuristic_gap_pct") <= mean_gap(rows, "heuristic_no_relax_gap_pct") + 1e-9
    # §II-D: greedy can err badly — it should be visibly worse than the DP here.
    assert mean_gap(rows, "greedy_density_gap_pct") > mean_gap(rows, "heuristic_gap_pct")
    benchmark.extra_info["heuristic_mean_gap_pct"] = round(mean_gap(rows, "heuristic_gap_pct"), 2)
    benchmark.extra_info["greedy_mean_gap_pct"] = round(mean_gap(rows, "greedy_density_gap_pct"), 2)


def test_bench_agar_variants(benchmark, settings):
    rows = benchmark.pedantic(run_agar_variants, args=(settings,), rounds=1, iterations=1)
    emit("Ablation — Agar variants and LFU interpretations",
         "\n".join(f"  {row.variant:28s} {row.mean_latency_ms:7.1f} ms  hit {row.hit_ratio * 100:5.1f}%"
                   for row in rows))

    by_variant = {row.variant: row for row in rows}
    default = by_variant["default (alpha=0.2, 30s)"]
    literal = by_variant["literal alpha=0.8"]
    # The history-weighted EWMA interpretation (core/agar_node.py) should not
    # be worse than the literal reading, and usually improves both metrics.
    assert default.mean_latency_ms <= literal.mean_latency_ms * 1.03
    assert default.hit_ratio >= literal.hit_ratio - 0.03
    # The online LFU baseline is at least as strong as the paper's periodic one.
    assert by_variant["online LFU-7"].mean_latency_ms <= by_variant["paper LFU-7 (periodic)"].mean_latency_ms * 1.05
    benchmark.extra_info["default_ms"] = round(default.mean_latency_ms, 1)
    benchmark.extra_info["literal_alpha_ms"] = round(literal.mean_latency_ms, 1)
