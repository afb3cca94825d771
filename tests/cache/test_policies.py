"""Tests for the eviction policies (LRU, LFU, pinned configuration)."""

import pytest

from repro.cache import ChunkCache, LFUEvictionPolicy, LRUEvictionPolicy, PinnedConfigurationPolicy
from repro.client.strategies import FixedChunkCachingStrategy, make_strategy
from repro.erasure import Chunk, ChunkId


def make_chunk(key: str, index: int, size: int = 100) -> Chunk:
    return Chunk(ChunkId(key, index), size=size)


class TestLRU:
    def test_least_recently_used_evicted(self):
        cache = ChunkCache(capacity_bytes=300, policy=LRUEvictionPolicy())
        cache.put(make_chunk("a", 0))
        cache.put(make_chunk("b", 0))
        cache.put(make_chunk("c", 0))
        cache.get(ChunkId("a", 0))
        cache.put(make_chunk("d", 0))  # evicts b (oldest untouched)
        assert ChunkId("a", 0) in cache._entries
        assert ChunkId("b", 0) not in cache._entries

    def test_reset(self):
        policy = LRUEvictionPolicy()
        cache = ChunkCache(capacity_bytes=300, policy=policy)
        cache.put(make_chunk("a", 0))
        cache.clear()
        cache.put(make_chunk("b", 0))
        assert ChunkId("b", 0) in cache._entries


class TestLFU:
    def test_least_frequent_object_evicted(self):
        policy = LFUEvictionPolicy()
        cache = ChunkCache(capacity_bytes=300, policy=policy)
        for _ in range(3):
            cache.record_request("hot")
        cache.record_request("cold")
        cache.put(make_chunk("hot", 0))
        cache.put(make_chunk("hot", 1))
        cache.put(make_chunk("cold", 0))
        cache.record_request("new")
        cache.put(make_chunk("new", 0))  # evicts a chunk of 'cold'
        assert cache.cached_indices("hot") == [0, 1]
        assert cache.cached_indices("cold") == []

    def test_ties_broken_by_recency(self):
        policy = LFUEvictionPolicy()
        cache = ChunkCache(capacity_bytes=200, policy=policy)
        cache.record_request("a")
        cache.put(make_chunk("a", 0))
        cache.record_request("b")
        cache.put(make_chunk("b", 0))
        cache.record_request("c")
        cache.put(make_chunk("c", 0))  # a and b tie at frequency 1; a is older
        assert ChunkId("a", 0) not in cache._entries
        assert ChunkId("b", 0) in cache._entries


class TestPinnedConfiguration:
    def test_admission_control(self):
        policy = PinnedConfigurationPolicy()
        cache = ChunkCache(capacity_bytes=1000, policy=policy)
        policy.set_configuration({ChunkId("wanted", 0)})
        assert cache.put(make_chunk("wanted", 0))
        assert not cache.put(make_chunk("unwanted", 0))
        assert cache.stats.rejections == 1

    def test_non_strict_admission(self):
        policy = PinnedConfigurationPolicy(strict_admission=False)
        cache = ChunkCache(capacity_bytes=1000, policy=policy)
        assert cache.put(make_chunk("anything", 0))

    def test_unpinned_evicted_first(self):
        policy = PinnedConfigurationPolicy()
        cache = ChunkCache(capacity_bytes=300, policy=policy)
        policy.set_configuration({ChunkId("old", 0), ChunkId("old", 1), ChunkId("old", 2)})
        for index in range(3):
            cache.put(make_chunk("old", index))
        # New configuration drops old#1; the next admitted chunk evicts it first.
        policy.set_configuration({ChunkId("old", 0), ChunkId("old", 2), ChunkId("new", 0)})
        assert cache.put(make_chunk("new", 0))
        assert ChunkId("old", 1) not in cache._entries
        assert ChunkId("old", 0) in cache._entries
        assert ChunkId("old", 2) in cache._entries

    def test_pinned_property(self):
        policy = PinnedConfigurationPolicy()
        policy.set_configuration({ChunkId("a", 0)})
        assert policy.pinned == frozenset({ChunkId("a", 0)})


class TestFactory:
    """The eviction policy behind each caching strategy's cache: the online
    baselines evict by their own rule, the periodic LFU baseline and Agar
    keep only the configuration they installed."""

    @pytest.mark.parametrize("name,expected", [
        ("lru-3", LRUEvictionPolicy),
        ("lru-online-3", LRUEvictionPolicy),
        ("lfu-online-3", LFUEvictionPolicy),
        ("lfu-3", PinnedConfigurationPolicy),
        ("agar", PinnedConfigurationPolicy),
    ])
    def test_known_names(self, store, name, expected):
        strategy = make_strategy(name, store, "frankfurt", 1024 * 1024)
        assert type(strategy.cache.policy) is expected

    def test_unknown_name(self, store):
        with pytest.raises(ValueError, match="policy must be 'lru' or 'lfu'"):
            FixedChunkCachingStrategy(store, "frankfurt", 1024 * 1024,
                                      chunks_per_object=3, policy="fifo")
