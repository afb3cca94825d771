"""Text reporting helpers: aligned tables and comparison summaries.

Experiments produce rows of (label, metrics) pairs; these helpers render them
the way the paper's figures tabulate results, so a benchmark run prints the
same rows/series a figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Sequence


@dataclass
class Table:
    """A simple column-aligned text table.

    Attributes:
        title: heading printed above the table.
        columns: column names.
        rows: list of row value tuples (converted to strings when rendered).
    """

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)

    @classmethod
    def from_rows(cls, title: str,
                  columns: Sequence[tuple[str, str | Callable[[Any], object]]],
                  rows: Iterable[Any]) -> "Table":
        """One table row per item of ``rows``.

        Each column is a ``(header, getter)`` pair: the getter is an attribute
        name or a function of the item.
        """
        getters = [getter if callable(getter) else attrgetter(getter)
                   for _, getter in columns]
        table = cls(title=title, columns=[header for header, _ in columns])
        for row in rows:
            table.add_row(*[getter(row) for getter in getters])
        return table

    def add_row(self, *values: object) -> None:
        """Append one row; must match the number of columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(values)

    def render(self, float_format: str = "{:.1f}") -> str:
        """Render the table as aligned text."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        text_rows = [[fmt(value) for value in row] for row in self.rows]
        widths = [len(name) for name in self.columns]
        for row in text_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(name.ljust(widths[index]) for index, name in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in text_rows:
            lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
        return "\n".join(lines)


def percent_difference(reference: float, value: float) -> float:
    """How much lower ``value`` is than ``reference``, as a percentage.

    Positive means ``value`` is lower (better, for latency).  Returns 0 when
    the reference is 0.
    """
    if reference == 0:
        return 0.0
    return (reference - value) / reference * 100.0


def improvement_summary(latencies: Mapping[str, float], subject: str = "agar",
                        exclude: Iterable[str] = ("backend",)) -> dict[str, float]:
    """Compare one strategy's latency against the best/worst of the others.

    Returns a dict with ``vs_best_pct``, ``vs_worst_pct``, ``best_other`` /
    ``worst_other`` keys — the quantities the paper headlines ("16 % to 41 %
    lower latency").
    """
    if subject not in latencies:
        raise KeyError(f"{subject!r} not present in the latency map")
    excluded = set(exclude) | {subject}
    others = {name: value for name, value in latencies.items() if name not in excluded}
    if not others:
        raise ValueError("no other strategies to compare against")
    best_name = min(others, key=lambda name: others[name])
    worst_name = max(others, key=lambda name: others[name])
    subject_latency = latencies[subject]
    return {
        "subject_latency_ms": subject_latency,
        "best_other": best_name,
        "best_other_latency_ms": others[best_name],
        "worst_other": worst_name,
        "worst_other_latency_ms": others[worst_name],
        "vs_best_pct": percent_difference(others[best_name], subject_latency),
        "vs_worst_pct": percent_difference(others[worst_name], subject_latency),
    }
