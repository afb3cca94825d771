"""Tests for the bounded chunk cache."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    ChunkCache,
    LFUEvictionPolicy,
    LRUEvictionPolicy,
    PinnedConfigurationPolicy,
)
from repro.erasure import Chunk, ChunkId
from repro.sim.clock import SimulationClock


def make_chunk(key: str, index: int, size: int = 100) -> Chunk:
    return Chunk(ChunkId(key, index), size=size)


class TestBasicOperations:
    def test_put_get_hit_miss_counters(self):
        cache = ChunkCache(capacity_bytes=1000)
        assert cache.put(make_chunk("a", 0))
        assert cache.get(ChunkId("a", 0)) is not None
        assert cache.get(ChunkId("a", 1)) is None
        assert cache.stats.chunk_hits == 1
        assert cache.stats.chunk_misses == 1

    def test_capacity_accounting(self):
        cache = ChunkCache(capacity_bytes=250)
        cache.put(make_chunk("a", 0))
        cache.put(make_chunk("a", 1))
        assert cache.used_bytes == 200
        assert len(cache) == 2

    def test_oversized_chunk_rejected(self):
        cache = ChunkCache(capacity_bytes=50)
        assert not cache.put(make_chunk("a", 0, size=100))
        assert cache.stats.rejections == 1

    def test_eviction_when_full(self):
        cache = ChunkCache(capacity_bytes=200, policy=LRUEvictionPolicy())
        cache.put(make_chunk("a", 0))
        cache.put(make_chunk("a", 1))
        cache.put(make_chunk("a", 2))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert ChunkId("a", 0) not in cache._entries

    def test_put_refreshes_existing(self):
        cache = ChunkCache(capacity_bytes=200)
        cache.put(make_chunk("a", 0, size=100))
        cache.put(make_chunk("a", 0, size=50))
        assert cache.used_bytes == 50
        assert len(cache) == 1

    def test_same_size_reput_is_in_place(self):
        """Re-putting a cached chunk of unchanged size refreshes the existing
        entry (no new CacheEntry, no insertion churn) but still renews its
        recency and insertion rank."""
        cache = ChunkCache(capacity_bytes=200, policy=LRUEvictionPolicy())
        cache.put(make_chunk("a", 0))
        entry_before = cache._entries[ChunkId("a", 0)]
        cache.put(make_chunk("b", 0))
        cache.put(make_chunk("a", 0))  # refresh: "a" becomes most recent
        assert cache._entries[ChunkId("a", 0)] is entry_before
        assert cache.stats.insertions == 2
        assert cache.stats.refreshes == 1
        cache.put(make_chunk("c", 0))  # evicts "b", the least recently re-put
        assert ChunkId("a", 0) in cache._entries
        assert ChunkId("b", 0) not in cache._entries

    def test_refresh_resets_access_count(self):
        cache = ChunkCache(capacity_bytes=300)
        cache.put(make_chunk("a", 0))
        cache.get(ChunkId("a", 0))
        assert cache._entries[ChunkId("a", 0)].access_count == 1
        cache.put(make_chunk("a", 0))
        assert cache._entries[ChunkId("a", 0)].access_count == 0

    def test_delete_and_clear(self):
        cache = ChunkCache(capacity_bytes=500)
        cache.put(make_chunk("a", 0))
        assert cache.delete(ChunkId("a", 0))
        assert not cache.delete(ChunkId("a", 0))
        cache.put(make_chunk("b", 0))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            ChunkCache(capacity_bytes=-1)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_capacity_refused(self, capacity):
        """Either would admit every chunk: a cache with no byte bound."""
        with pytest.raises(ValueError, match="capacity_bytes"):
            ChunkCache(capacity_bytes=capacity)

    def test_zero_capacity_rejects_everything(self):
        cache = ChunkCache(capacity_bytes=0)
        assert not cache.put(make_chunk("a", 0, size=1))


class TestObjectLevelHelpers:
    def test_cached_indices(self):
        cache = ChunkCache(capacity_bytes=1000)
        cache.put(make_chunk("a", 3))
        cache.put(make_chunk("a", 1))
        cache.put(make_chunk("b", 0))
        assert cache.cached_indices("a") == [1, 3]

    def test_snapshot_histogram(self):
        cache = ChunkCache(capacity_bytes=10_000)
        for index in range(9):
            cache.put(make_chunk("full", index))
        for index in range(5):
            cache.put(make_chunk("partial", index))
        snapshot = cache.snapshot()
        assert snapshot.chunks_per_key["full"] == tuple(range(9))
        assert snapshot.chunk_count_histogram() == {9: 1, 5: 1}
        assert snapshot.used_bytes == 1400

    def test_clock_injection(self):
        times = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        cache = ChunkCache(capacity_bytes=200, clock=lambda: next(times))
        cache.put(make_chunk("a", 0))
        cache.put(make_chunk("b", 0))
        cache.get(ChunkId("a", 0))  # refresh a's recency
        cache.put(make_chunk("c", 0))  # evicts b, the least recently used
        assert ChunkId("a", 0) in cache._entries
        assert ChunkId("b", 0) not in cache._entries


class TestEvictionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 30)),
            min_size=1, max_size=200,
        ),
        capacity_chunks=st.integers(min_value=1, max_value=10),
    )
    def test_capacity_never_exceeded(self, operations, capacity_chunks):
        """Invariant: used bytes never exceed capacity, whatever the op sequence."""
        chunk_size = 10
        cache = ChunkCache(capacity_bytes=capacity_chunks * chunk_size, policy=LRUEvictionPolicy())
        for operation, index in operations:
            if operation == "put":
                cache.put(make_chunk("key", index, size=chunk_size))
            else:
                cache.get(ChunkId("key", index))
            assert cache.used_bytes <= cache.capacity_bytes
            assert cache.used_bytes == len(cache) * chunk_size


def _pinned_half() -> PinnedConfigurationPolicy:
    policy = PinnedConfigurationPolicy()
    policy.set_configuration({ChunkId("key", index) for index in range(0, 12, 2)})
    return policy


def _policy_state(policy) -> dict:
    """Everything a policy keeps, in a comparable form (order included)."""
    state = {}
    for name, value in vars(policy).items():
        if isinstance(value, dict):
            value = list(value.items())
        elif not isinstance(value, (set, bool)):
            value = repr(value)    # LFU's tie-breaker: ``count(n)``
        state[name] = value
    return state


def _cache_state(cache: ChunkCache) -> dict:
    return {
        "entries": {chunk_id: (entry.last_access, entry.access_count, entry.inserted_at)
                    for chunk_id, entry in cache._entries.items()},
        "stats": cache.stats,
        "ticks": cache._ticks,
        "policy": _policy_state(cache.policy),
        "victim": (cache.policy.select_victim(cache._entries)
                   if len(cache) else None),
    }


class TestProbe:
    """``probe(ids)`` is the ``get`` sequence over ``ids``, made in one call."""

    @pytest.mark.parametrize("simulated_clock", [True, False],
                             ids=["simulated-clock", "tick-counter"])
    @pytest.mark.parametrize("make_policy", [
        LRUEvictionPolicy, LFUEvictionPolicy, _pinned_half,
    ], ids=["lru", "lfu", "pinned"])
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("put"), st.integers(0, 11)),
        st.tuples(st.just("request"), st.integers(0, 2)),
        st.tuples(st.just("advance"), st.integers(1, 5)),
        # Absent ids (the cache holds six chunks at most) and repeats.
        st.tuples(st.just("probe"), st.lists(st.integers(0, 14), max_size=12)),
    ), min_size=1, max_size=40))
    def test_probe_equals_the_get_sequence(self, make_policy, simulated_clock, steps):
        clocks = [SimulationClock() if simulated_clock else None for _ in range(2)]
        probed, looked_up = (ChunkCache(capacity_bytes=60, policy=make_policy(),
                                        clock=clock) for clock in clocks)
        for kind, argument in steps:
            if kind == "probe":
                ids = [ChunkId("key", index) for index in argument]
                hits = probed.probe(ids)
                assert hits == [offset for offset, chunk_id in enumerate(ids)
                                if looked_up.get(chunk_id) is not None]
            else:
                for cache, clock in zip((probed, looked_up), clocks):
                    if kind == "put":
                        cache.put(make_chunk("key", argument, size=10))
                    elif kind == "request":
                        cache.record_request(f"key-{argument}")
                    elif clock is not None:
                        clock.advance_seconds(float(argument))
            assert _cache_state(probed) == _cache_state(looked_up)

    def test_probe_reads_the_clock_once(self):
        """One read's lookups happen at one time: a probe that hits reads the
        clock once, a probe that misses everything not at all."""
        reads = []

        def clock() -> float:
            reads.append(None)
            return float(len(reads))

        cache = ChunkCache(capacity_bytes=1000, clock=clock)
        for index in range(3):
            cache.put(make_chunk("a", index))
        reads.clear()
        assert cache.probe([ChunkId("b", 0), ChunkId("b", 1)]) == []
        assert reads == []
        assert cache.probe([ChunkId("a", index) for index in range(4)]) == [0, 1, 2]
        assert len(reads) == 1
        assert {entry.last_access for entry in cache._entries.values()} == {1.0}
        assert cache.stats.chunk_hits == 3 and cache.stats.chunk_misses == 3


def _twin_id(number: int) -> ChunkId:
    """Ids under two keys."""
    return ChunkId("ab"[number % 2], number)


def _pinned_twin_ids() -> PinnedConfigurationPolicy:
    policy = PinnedConfigurationPolicy()
    policy.set_configuration({_twin_id(number) for number in range(0, 14, 3)})
    return policy


class TestLookupThenRecordHits:
    """``probe(ids)`` is ``lookup(ids)`` followed by ``record_hits``, and
    ``membership`` moves exactly when some id gains or loses its entry."""

    @pytest.mark.parametrize("simulated_clock", [True, False],
                             ids=["simulated-clock", "tick-counter"])
    @pytest.mark.parametrize("make_policy", [
        LRUEvictionPolicy, LFUEvictionPolicy, _pinned_twin_ids,
    ], ids=["lru", "lfu", "pinned"])
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(st.one_of(
        # A first put, a re-put at the same size (a refresh) or at a new size
        # (remove and reinsert); 70 bytes is larger than the whole cache.
        st.tuples(st.just("put"), st.tuples(st.integers(0, 13),
                                             st.sampled_from([10, 20, 70]))),
        st.tuples(st.sampled_from(["delete", "get"]), st.integers(0, 15)),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("advance"), st.integers(1, 5)),
        # Absent ids and repeats.
        st.tuples(st.just("probe"), st.lists(st.integers(0, 15), max_size=12)),
    ), min_size=1, max_size=40))
    def test_probe_equals_lookup_then_record_hits(self, make_policy, simulated_clock,
                                                  steps):
        clocks = [SimulationClock() if simulated_clock else None for _ in range(2)]
        probed, split = (ChunkCache(capacity_bytes=60, policy=make_policy(), clock=clock)
                         for clock in clocks)
        for kind, argument in steps:
            # Held, not copied: the old entries stay alive, so an entry
            # replaced by a new object cannot reuse its identity.
            before = [dict(cache._entries) for cache in (probed, split)]
            marks = [cache.membership for cache in (probed, split)]
            if kind == "probe":
                ids = [_twin_id(number) for number in argument]
                offsets, entries = split.lookup(ids)
                assert _cache_state(split) == _cache_state(probed)  # no side effect
                split.record_hits(entries, len(ids))
                assert probed.probe(ids) == offsets
                assert entries == [split._entries[ids[offset]] for offset in offsets]
            else:
                for cache, clock in zip((probed, split), clocks):
                    if kind == "put":
                        number, size = argument
                        cache.put(Chunk(_twin_id(number), size=size))
                    elif kind in ("delete", "get"):
                        getattr(cache, kind)(_twin_id(argument))
                    elif kind == "clear":
                        cache.clear()
                    elif clock is not None:
                        clock.advance_seconds(float(argument))
            assert _cache_state(probed) == _cache_state(split)
            for cache, held, mark in zip((probed, split), before, marks):
                changed = (held.keys() != cache._entries.keys()
                           or any(cache._entries[chunk_id] is not entry
                                  for chunk_id, entry in held.items()))
                assert (cache.membership != mark) == changed, (kind, argument)
