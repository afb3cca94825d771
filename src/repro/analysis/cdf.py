"""Cumulative-distribution helpers (Fig. 9 and latency CDFs)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CdfSeries:
    """One cumulative-distribution series.

    Attributes:
        label: series label (e.g. ``"zipf-1.1"``).
        x: sorted x values (object count, latency, ...).
        y: cumulative fractions in [0, 1], same length as ``x``.
    """

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def value_at(self, x_value: float) -> float:
        """The cumulative fraction at ``x_value`` (step interpolation)."""
        result = 0.0
        for x, y in zip(self.x, self.y):
            if x <= x_value:
                result = y
            else:
                break
        return result


def popularity_cdf(probabilities: Sequence[float], label: str = "popularity") -> CdfSeries:
    """CDF of request share versus number of most-popular objects (Fig. 9).

    ``probabilities`` must be sorted by decreasing popularity (rank order); the
    result maps "the x most popular objects" to "fraction of all requests".
    """
    array = np.asarray(probabilities, dtype=float)
    if array.size and array.sum() > 0:
        array = array / array.sum()
    cumulative = np.cumsum(array)
    counts = np.arange(1, array.size + 1, dtype=float)
    return CdfSeries(label=label, x=tuple(counts.tolist()), y=tuple(cumulative.tolist()))
