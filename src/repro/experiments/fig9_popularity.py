"""Figure 9 — cumulative distribution of object popularity per Zipf skew.

The figure shows, for skews {0.5, 0.8, 1.1, 1.4}, the cumulative percentage of
requests that target the ``x`` most popular objects (x up to 50).  It is a
property of the workload generator alone, so this experiment needs no
simulation: it evaluates the analytic CDF and, optionally, an empirical CDF
from sampled requests to validate the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cdf import CdfSeries, popularity_cdf
from repro.analysis.report import Table
from repro.experiments.common import FIG9_SKEWS, ExperimentSettings
from repro.workload.workload import zipfian_workload, generate_requests, request_frequency
from repro.workload.zipfian import ZipfianDistribution


@dataclass(frozen=True)
class Fig9Series:
    """The CDF of one skew value."""

    skew: float
    analytic: CdfSeries
    empirical: CdfSeries | None = None


def run_fig9(settings: ExperimentSettings | None = None,
             skews: tuple[float, ...] = FIG9_SKEWS,
             include_empirical: bool = True) -> list[Fig9Series]:
    """Compute the popularity CDFs of Fig. 9.

    Args:
        settings: experiment scale (object count, request count, seed).
        skews: Zipf exponents to plot.
        include_empirical: also sample a request stream per skew and compute the
            empirical CDF, validating the generator against the analytic curve.
    """
    settings = settings or ExperimentSettings.quick()
    series = []
    for skew in skews:
        distribution = ZipfianDistribution(settings.object_count, skew=skew, seed=settings.seed)
        analytic = popularity_cdf(distribution.probabilities(), label=f"zipf-{skew:g}")

        empirical = None
        if include_empirical:
            workload = zipfian_workload(
                skew, request_count=settings.request_count,
                object_count=settings.object_count, seed=settings.seed,
            )
            requests = generate_requests(workload)
            counts = request_frequency(requests)
            per_rank = np.array([counts.get(workload.key_for_rank(rank), 0)
                                 for rank in range(settings.object_count)], dtype=float)
            # Empirical popularity is sorted by observed frequency, mirroring
            # how one would read it off a trace without knowing true ranks.
            ordered = np.sort(per_rank)[::-1]
            empirical = popularity_cdf(ordered, label=f"zipf-{skew:g}-empirical")

        series.append(Fig9Series(skew=skew, analytic=analytic, empirical=empirical))
    return series


def render_fig9(series: list[Fig9Series], x_points: tuple[int, ...] = (5, 10, 20, 30, 50)) -> Table:
    """Tabulate the CDFs at a few object counts (the paper's example: x=5 → 40 %)."""
    table = Table(
        title="Figure 9 — cumulative request share of the x most popular objects (%)",
        columns=("objects", *[f"zipf-{one.skew:g}" for one in series]),
    )
    for x_value in x_points:
        table.add_row(x_value, *[one.analytic.value_at(x_value) * 100.0 for one in series])
    return table
