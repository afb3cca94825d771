"""Analysis helpers: tables, comparison summaries and CDFs for experiments."""

from repro.analysis.cdf import CdfSeries, popularity_cdf
from repro.analysis.report import (
    Table,
    improvement_summary,
    percent_difference,
)

__all__ = [
    "CdfSeries",
    "Table",
    "improvement_summary",
    "percent_difference",
    "popularity_cdf",
]
