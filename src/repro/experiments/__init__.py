"""Experiment drivers: one module per table/figure of the paper's evaluation.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.experiments.common import (
    EVALUATION_REGIONS,
    FIG2_CHUNK_COUNTS,
    FIG6_STRATEGIES,
    FIG8A_CACHE_SIZES_MB,
    FIG8B_SKEWS,
    FIG8_STRATEGIES,
    FIG9_SKEWS,
    MEGABYTE,
    EngineOptions,
    ExperimentSettings,
    RegionSpecOption,
    agar_config_for_capacity,
    parse_cache_size,
)
from repro.experiments.multiregion import (
    MultiRegionRow,
    render_multiregion,
    run_multiregion_scaling,
)
from repro.experiments.ablation import (
    run_agar_variants,
    run_solver_quality,
    synthetic_options,
)
from repro.experiments.fig2_motivating import Fig2Point, nonlinearity_check, render_fig2, run_fig2
from repro.experiments.fig6_policies import (
    PolicyComparisonRow,
    agar_advantage,
    render_fig6,
    render_fig7,
    run_policy_comparison,
)
from repro.experiments.fig8_sweeps import (
    SweepPoint,
    agar_lead_by_group,
    render_sweep,
    run_fig8a,
    run_fig8b,
)
from repro.experiments.fig9_popularity import Fig9Series, render_fig9, run_fig9
from repro.experiments.fig_collab import (
    CollabPointRow,
    CollabSweepResult,
    CrossoverRow,
    OverlapRow,
    compute_crossover,
    render_fig_collab,
    run_fig_collab,
)
from repro.experiments.fig10_cache_contents import (
    FIG10_SCENARIOS,
    Fig10Snapshot,
    diversity_check,
    render_fig10,
    run_fig10,
)
from repro.experiments.microbench import MicrobenchResult, run_capacity_scaling, run_microbench
from repro.experiments.table1_latency import (
    Table1Row,
    render_table1,
    run_table1,
    run_table1_calibrated,
)

__all__ = [
    "EVALUATION_REGIONS",
    "ExperimentSettings",
    "FIG10_SCENARIOS",
    "FIG2_CHUNK_COUNTS",
    "FIG6_STRATEGIES",
    "FIG8A_CACHE_SIZES_MB",
    "FIG8B_SKEWS",
    "FIG8_STRATEGIES",
    "FIG9_SKEWS",
    "CollabPointRow",
    "CollabSweepResult",
    "CrossoverRow",
    "EngineOptions",
    "Fig10Snapshot",
    "Fig2Point",
    "Fig9Series",
    "MEGABYTE",
    "MicrobenchResult",
    "MultiRegionRow",
    "OverlapRow",
    "PolicyComparisonRow",
    "RegionSpecOption",
    "SweepPoint",
    "Table1Row",
    "agar_advantage",
    "agar_config_for_capacity",
    "agar_lead_by_group",
    "compute_crossover",
    "diversity_check",
    "nonlinearity_check",
    "render_fig10",
    "render_fig2",
    "render_fig6",
    "render_fig_collab",
    "render_fig7",
    "render_fig9",
    "render_multiregion",
    "render_sweep",
    "render_table1",
    "run_agar_variants",
    "run_capacity_scaling",
    "run_fig10",
    "run_fig2",
    "run_fig8a",
    "run_fig_collab",
    "run_fig8b",
    "run_fig9",
    "run_microbench",
    "run_multiregion_scaling",
    "parse_cache_size",
    "run_policy_comparison",
    "run_solver_quality",
    "run_table1",
    "run_table1_calibrated",
    "synthetic_options",
]
