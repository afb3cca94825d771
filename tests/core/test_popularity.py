"""Tests for the EWMA popularity tracker (§IV-A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.popularity import PopularityTracker


class TestEwma:
    def test_paper_example(self):
        """The worked example of §IV-A: frequency 100, previous 0, alpha 0.8 → 80."""
        tracker = PopularityTracker(alpha=0.8)
        tracker.record_access("key1", count=100)
        tracker.end_period()
        assert tracker.popularity("key1") == pytest.approx(80.0)

    def test_second_period_decay(self):
        tracker = PopularityTracker(alpha=0.8)
        tracker.record_access("key1", count=100)
        tracker.end_period()
        tracker.end_period()  # no accesses in the second period
        assert tracker.popularity("key1") == pytest.approx(16.0)

    def test_accesses_fold_at_the_period_end(self):
        tracker = PopularityTracker(alpha=0.5)
        tracker.record_access("a", count=10)
        assert tracker.current_frequency("a") == 10
        assert tracker.popularity("a") == 0.0  # not folded until end_period
        tracker.end_period()
        assert tracker.popularity("a") == pytest.approx(5.0)

    def test_unknown_key_is_zero(self):
        tracker = PopularityTracker()
        assert tracker.popularity("nope") == 0.0
        assert tracker.current_frequency("nope") == 0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            PopularityTracker(alpha=0.0)
        with pytest.raises(ValueError):
            PopularityTracker(alpha=1.5)

    def test_negative_count_rejected(self):
        tracker = PopularityTracker()
        with pytest.raises(ValueError):
            tracker.record_access("a", count=-1)

    def test_snapshot_sorted_and_limited(self):
        tracker = PopularityTracker(alpha=1.0)
        for key, count in (("low", 1), ("high", 10), ("mid", 5)):
            tracker.record_access(key, count)
        tracker.end_period()
        snapshot = tracker.snapshot()
        assert [record.key for record in snapshot] == ["high", "mid", "low"]
        assert [record.key for record in tracker.snapshot(top_n=1)] == ["high"]

    def test_reset(self):
        tracker = PopularityTracker()
        tracker.record_access("a")
        tracker.end_period()
        tracker.record_access("b")
        tracker.reset()
        assert tracker.known_keys() == set()
        assert tracker.popularity("a") == 0.0

    @settings(max_examples=30, deadline=None)
    @given(counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10),
           alpha=st.floats(min_value=0.05, max_value=1.0))
    def test_popularity_bounded_by_max_frequency(self, counts, alpha):
        """EWMA output never exceeds the largest per-period frequency observed."""
        tracker = PopularityTracker(alpha=alpha)
        for count in counts:
            tracker.record_access("key", count)
            tracker.end_period()
        assert tracker.popularity("key") <= max(counts) + 1e-9
        assert tracker.popularity("key") >= 0.0
