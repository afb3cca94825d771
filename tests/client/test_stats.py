"""Tests for read results and latency statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.stats import HitType, LatencyStats, ReadResult


def result(latency: float, hit: HitType, cache_chunks: int = 0, backend_chunks: int = 9) -> ReadResult:
    return ReadResult(
        key="object-0", latency_ms=latency, hit_type=hit,
        chunks_from_cache=cache_chunks, chunks_from_backend=backend_chunks,
    )


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean_latency_ms == 0.0
        assert stats.hit_ratio == 0.0
        assert stats.percentile(99) == 0.0

    def test_mean_and_hit_ratio(self):
        stats = LatencyStats()
        stats.record(result(100.0, HitType.FULL, cache_chunks=9, backend_chunks=0))
        stats.record(result(300.0, HitType.PARTIAL, cache_chunks=5, backend_chunks=4))
        stats.record(result(1100.0, HitType.MISS))
        assert stats.count == 3
        assert stats.mean_latency_ms == pytest.approx(500.0)
        assert stats.hit_ratio == pytest.approx(2 / 3)
        assert stats.full_hit_ratio == pytest.approx(1 / 3)
        assert stats.partial_hit_ratio == pytest.approx(1 / 3)
        assert stats.cache_chunks_total == 14
        assert stats.backend_chunks_total == 13

    def test_percentiles(self):
        stats = LatencyStats()
        for value in range(1, 101):
            stats.record(result(float(value), HitType.MISS))
        assert stats.median_latency_ms == pytest.approx(50.0)
        assert stats.percentile(99) == pytest.approx(99.0)
        assert stats.p99_latency_ms == pytest.approx(99.0)
        with pytest.raises(ValueError):
            stats.percentile(150)

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.record(result(10.0, HitType.FULL))
        summary = stats.summary()
        assert summary["reads"] == 1.0
        assert set(summary) >= {"mean_latency_ms", "hit_ratio", "p99_latency_ms"}

    def test_buffer_growth_beyond_initial_capacity(self):
        """The preallocated buffer doubles transparently when it fills."""
        stats = LatencyStats(capacity=4)
        for value in range(1, 11):
            stats.record(result(float(value), HitType.MISS))
        assert stats.count == 10
        assert stats.latencies_ms == [float(v) for v in range(1, 11)]
        assert stats.mean_latency_ms == pytest.approx(5.5)

    def test_record_under_a_measured_latency(self):
        stats = LatencyStats()
        stats.record(result(99.0, HitType.PARTIAL, cache_chunks=3, backend_chunks=6), 12.5)
        assert stats.latencies_ms == [12.5]
        assert stats.count == 1
        assert stats.partial_hits == 1
        assert stats.cache_chunks_total == 3
        assert stats.backend_chunks_total == 6

    def test_latencies_array_is_read_only_view(self):
        stats = LatencyStats()
        stats.record(result(5.0, HitType.MISS))
        view = stats.latencies_array()
        assert view.shape == (1,)
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_merge(self):
        first = LatencyStats()
        first.record(result(100.0, HitType.MISS))
        second = LatencyStats()
        second.record(result(200.0, HitType.FULL))
        merged = LatencyStats.merge_all((first, second))
        assert merged.count == 2
        assert merged.mean_latency_ms == pytest.approx(150.0)
        assert merged.hit_ratio == pytest.approx(0.5)
        # Originals untouched.
        assert first.count == 1 and second.count == 1


class TestRecordBlock:
    """``record_block`` is ``record`` per entry, in order."""

    COUNTERS = ("full_hits", "partial_hits", "misses", "cache_chunks_total",
                "backend_chunks_total", "neighbor_chunks_total", "degraded_reads",
                "unavailable_reads", "retries_total", "hedged_reads", "hedge_wins")

    @staticmethod
    def per_read(latencies, cache_chunks, chunks_per_read, initial, outcomes=(),
                 unavailable=0):
        stats = LatencyStats(capacity=1)
        for latency, cached in initial:
            stats.record(ReadResult("k", latency, HitType.PARTIAL, cached, 1))
        outcomes = list(outcomes) or [(False, 0, False, False)] * len(latencies)
        for latency, cached, (degraded, retries, hedged, won) in zip(
                latencies, cache_chunks or [0] * len(latencies), outcomes):
            hit = (HitType.MISS if not cached else
                   HitType.FULL if cached == chunks_per_read else HitType.PARTIAL)
            stats.record(ReadResult("k", latency, hit, cached, chunks_per_read - cached,
                                    degraded=degraded, retries=retries, hedged=hedged,
                                    hedge_won=won))
        for _ in range(unavailable):
            stats.record(ReadResult("k", 40.0, HitType.MISS, 0, 0, failed=True))
        return stats

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 9), data=st.data(),
           initial=st.lists(st.tuples(st.floats(0, 1e3), st.integers(0, 3)), max_size=3),
           backend_only=st.booleans(), unavailable=st.integers(0, 3))
    def test_equals_record_per_entry(self, k, data, initial, backend_only,
                                     unavailable):
        latencies = data.draw(st.lists(st.floats(0, 1e4), max_size=40))
        size = len(latencies)
        cache_chunks = (None if backend_only else
                        data.draw(st.lists(st.integers(0, k), min_size=size,
                                           max_size=size)))
        outcomes = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 3), st.booleans(), st.booleans())
            .map(lambda o: (o[0], o[1], o[2], o[2] and o[3])),
            min_size=size, max_size=size))
        expected = self.per_read(latencies, cache_chunks, k, initial, outcomes,
                                 unavailable)
        block = self.per_read([], None, k, initial)
        block.record_block(latencies, cache_chunks, k,
                           degraded=sum(o[0] for o in outcomes),
                           retries=sum(o[1] for o in outcomes),
                           hedged=sum(o[2] for o in outcomes),
                           hedge_wins=sum(o[3] for o in outcomes),
                           unavailable=unavailable)
        assert block.latencies_ms == expected.latencies_ms
        assert block.summary() == expected.summary()
        for counter in self.COUNTERS:
            assert getattr(block, counter) == getattr(expected, counter), counter


class TestMergeAll:
    def test_merge_all_matches_pairwise(self):
        parts = []
        for start in (0, 3, 6):
            stats = LatencyStats()
            for offset in range(3):
                hit = HitType.FULL if (start + offset) % 2 else HitType.MISS
                stats.record(result(100.0 + start + offset, hit))
            parts.append(stats)
        merged = LatencyStats.merge_all(parts)
        pairwise = LatencyStats.merge_all((LatencyStats.merge_all(parts[:2]), parts[2]))
        assert merged.count == pairwise.count == 9
        assert merged.latencies_ms == pairwise.latencies_ms
        assert merged.full_hits == pairwise.full_hits
        assert merged.misses == pairwise.misses

    def test_merge_all_empty(self):
        merged = LatencyStats.merge_all([])
        assert merged.count == 0
