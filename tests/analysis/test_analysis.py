"""Tests for the analysis helpers (tables, summaries, CDFs)."""

import pytest

from repro.analysis.cdf import popularity_cdf
from repro.analysis.report import Table, improvement_summary, percent_difference


class TestTable:
    def test_render_contains_rows(self):
        table = Table(title="T", columns=("name", "value"))
        table.add_row("agar", 416.0)
        table.add_row("lfu-7", 489.0)
        text = table.render()
        assert "agar" in text and "489.0" in text
        assert text.splitlines()[0] == "T"

    def test_row_arity_checked(self):
        table = Table(title="T", columns=("a", "b"))
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_from_rows(self):
        """A column's getter is an attribute name or a function of the row."""
        from types import SimpleNamespace

        items = [SimpleNamespace(name="agar", latency=416.25),
                 SimpleNamespace(name="lfu-7", latency=489.0)]
        table = Table.from_rows("T", (("strategy", "name"),
                                      ("ms", lambda item: item.latency * 2)), items)
        assert list(table.columns) == ["strategy", "ms"]
        assert table.rows == [("agar", 832.5), ("lfu-7", 978.0)]

    def test_render_aligns_columns(self):
        table = Table(title="Title", columns=("a", "long name"))
        table.add_row("wide cell", 1.25)
        table.add_row(7, "x")
        assert table.render(float_format="{:.2f}").splitlines() == [
            "Title",
            "-----",
            "a          long name",
            "---------  ---------",
            "wide cell  1.25     ",
            "7          x        ",
        ]


class TestSummaries:
    def test_percent_difference(self):
        assert percent_difference(100.0, 84.0) == pytest.approx(16.0)
        assert percent_difference(0.0, 10.0) == 0.0

    def test_improvement_summary_headline(self):
        """The paper's headline: Agar 16 %–41 % lower latency than LRU/LFU."""
        latencies = {"agar": 416.0, "lfu-7": 489.0, "lru-1": 705.0, "backend": 1050.0}
        summary = improvement_summary(latencies, subject="agar")
        assert summary["best_other"] == "lfu-7"
        assert summary["worst_other"] == "lru-1"
        assert summary["vs_best_pct"] == pytest.approx(14.9, abs=0.1)
        assert summary["vs_worst_pct"] == pytest.approx(41.0, abs=0.1)

    def test_improvement_summary_validation(self):
        with pytest.raises(KeyError):
            improvement_summary({"lfu": 1.0}, subject="agar")
        with pytest.raises(ValueError):
            improvement_summary({"agar": 1.0, "backend": 2.0}, subject="agar")


class TestCdf:

    def test_popularity_cdf_normalises(self):
        series = popularity_cdf([4, 3, 2, 1])
        assert series.y[0] == pytest.approx(0.4)
        assert series.y[-1] == pytest.approx(1.0)
        assert series.x == (1.0, 2.0, 3.0, 4.0)
        assert series.value_at(1.5) == pytest.approx(0.4)
        assert series.value_at(0.5) == 0.0
