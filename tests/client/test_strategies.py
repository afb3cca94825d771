"""Tests for the read strategies (Backend, LRU-c, LFU-c, Agar)."""

import pytest

from repro.client.stats import HitType
from repro.client.strategies import (
    AgarReadStrategy,
    BackendReadStrategy,
    ClientConfig,
    FixedChunkCachingStrategy,
    PeriodicLFUStrategy,
    make_strategy,
)

MEGABYTE = 1024 * 1024


class TestBackendStrategy:
    def test_reads_k_chunks_from_backend(self, store):
        strategy = BackendReadStrategy(store, "frankfurt")
        result = strategy.read("object-0", now=0.0)
        assert result.hit_type is HitType.MISS
        assert result.chunks_from_backend == 9
        assert result.chunks_from_cache == 0
        assert result.latency_ms > 0
        assert strategy.cache_snapshot() is None

    def test_does_not_contact_discarded_furthest_regions(self, store):
        strategy = BackendReadStrategy(store, "frankfurt")
        result = strategy.read("object-0", now=0.0)
        assert "sydney" not in result.backend_regions
        assert "tokyo" in result.backend_regions

    def test_latency_dominated_by_furthest_contacted(self, store):
        strategy = BackendReadStrategy(store, "frankfurt", ClientConfig(overhead_ms=0.0,
                                                                        include_decode_cost=False))
        result = strategy.read("object-0", now=0.0)
        expected = store.topology.expected_read_latencies("frankfurt")
        assert result.latency_ms >= expected["tokyo"] * 0.95

    def test_unknown_region(self, store):
        with pytest.raises(KeyError):
            BackendReadStrategy(store, "mars")


class TestFixedChunkStrategies:
    def test_miss_then_partial_hit(self, store):
        strategy = FixedChunkCachingStrategy(store, "frankfurt", 10 * MEGABYTE,
                                             chunks_per_object=5, policy="lru")
        first = strategy.read("object-0", now=0.0)
        assert first.hit_type is HitType.MISS
        second = strategy.read("object-0", now=1.0)
        assert second.hit_type is HitType.PARTIAL
        assert second.chunks_from_cache == 5
        assert second.chunks_from_backend == 4
        assert second.latency_ms < first.latency_ms

    def test_full_hit_with_nine_chunks(self, store):
        strategy = FixedChunkCachingStrategy(store, "frankfurt", 10 * MEGABYTE,
                                             chunks_per_object=9, policy="lfu")
        strategy.read("object-0", now=0.0)
        second = strategy.read("object-0", now=1.0)
        assert second.hit_type is HitType.FULL
        assert second.chunks_from_backend == 0

    def test_caches_most_distant_chunks(self, store):
        strategy = FixedChunkCachingStrategy(store, "frankfurt", 10 * MEGABYTE,
                                             chunks_per_object=1, policy="lru")
        strategy.read("object-0", now=0.0)
        cached = strategy.cache.cached_indices("object-0")
        tokyo_chunks = store.chunks_by_region("object-0")["tokyo"]
        assert len(cached) == 1
        assert cached[0] in tokyo_chunks

    def test_eviction_under_small_cache(self, store):
        chunk_size = store.metadata("object-0").chunk_size
        strategy = FixedChunkCachingStrategy(store, "frankfurt", 3 * chunk_size,
                                             chunks_per_object=1, policy="lru")
        for index in range(5):
            strategy.read(f"object-{index}", now=float(index))
        assert len(strategy.cache) <= 3
        snapshot = strategy.cache_snapshot()
        assert sum(snapshot.chunk_count_histogram().values()) <= 3

    def test_invalid_chunk_count(self, store):
        with pytest.raises(ValueError):
            FixedChunkCachingStrategy(store, "frankfurt", MEGABYTE, chunks_per_object=0)
        with pytest.raises(ValueError):
            FixedChunkCachingStrategy(store, "frankfurt", MEGABYTE, chunks_per_object=10)
        with pytest.raises(ValueError):
            FixedChunkCachingStrategy(store, "frankfurt", MEGABYTE, chunks_per_object=3, policy="mru")


class TestPeriodicLFUStrategy:
    def test_reconfigures_and_hits(self, store):
        strategy = PeriodicLFUStrategy(store, "frankfurt", 10 * MEGABYTE, chunks_per_object=7,
                                       reconfiguration_period_s=10.0)
        now = 0.0
        for _ in range(5):
            strategy.read("object-0", now=now)
            now += 3.0
        # After the first reconfiguration, object-0 is pinned and later reads hit.
        result = strategy.read("object-0", now=now)
        assert result.hit_type in (HitType.PARTIAL, HitType.FULL)
        assert result.chunks_from_cache == 7

    def test_unpopular_objects_not_pinned(self, store):
        strategy = PeriodicLFUStrategy(store, "frankfurt", 2 * MEGABYTE, chunks_per_object=9,
                                       reconfiguration_period_s=5.0)
        now = 0.0
        for _ in range(10):
            strategy.read("object-0", now=now)
            now += 1.0
        strategy.read("object-15", now=now)
        # Capacity fits two full objects; the popular one must be cached.
        assert strategy.read("object-0", now=now + 1.0).hit_type is not HitType.MISS

    def test_validation(self, store):
        with pytest.raises(ValueError):
            PeriodicLFUStrategy(store, "frankfurt", MEGABYTE, chunks_per_object=0)


class TestAgarStrategy:
    def test_cold_then_hit_after_reconfiguration(self, store):
        strategy = AgarReadStrategy(store, "frankfurt", 10 * MEGABYTE)
        now = 0.0
        first = strategy.read("object-0", now=now)
        assert first.hit_type is HitType.MISS
        for _ in range(5):
            now += 8.0
            strategy.read("object-0", now=now)
        # A reconfiguration happened (> 30 s elapsed); the object is configured,
        # the hinted chunks were written back, and the next read hits.
        result = strategy.read("object-0", now=now + 1.0)
        assert result.hit_type in (HitType.PARTIAL, HitType.FULL)
        assert result.chunks_from_cache > 0
        assert strategy.node.current_configuration.has_key("object-0")

    def test_agar_read_includes_processing_overhead(self, store):
        config = ClientConfig(overhead_ms=0.0, include_decode_cost=False)
        strategy = AgarReadStrategy(store, "frankfurt", 10 * MEGABYTE, config=config)
        result = strategy.read("object-0", now=0.0)
        expected = store.topology.expected_read_latencies("frankfurt")
        assert result.latency_ms >= expected["tokyo"]

    def test_neighbor_read_only_when_link_beats_backend(self, store):
        """§VI catalog chunks go to the neighbour per chunk, and only when
        the neighbour link's expected latency beats that chunk's own backend
        link — a cheap neighbour takes every needed chunk, an expensive one
        takes none, and an intermediate one splits the read."""
        from repro.erasure.chunk import ChunkId

        config = ClientConfig(overhead_ms=0.0, include_decode_cost=False)
        strategy = AgarReadStrategy(store, "frankfurt", MEGABYTE, config=config)
        needed = strategy._needed("object-0")
        catalog = frozenset(
            ChunkId(key="object-0", index=placed.index) for placed in needed)
        costs = sorted(placed.latency_ms for placed in needed)
        assert costs[0] < costs[-1]  # multi-region placement: costs differ

        # Cheap neighbour: beats every backend link, takes all k chunks.
        strategy.set_neighbor_catalog(catalog, costs[0] / 2)
        result = strategy.read("object-0", now=0.0)
        assert result.chunks_from_neighbors == len(needed)
        assert result.chunks_from_backend == 0

        # Expensive neighbour: beats nothing, the catalog is ignored.
        strategy.set_neighbor_catalog(catalog, costs[-1] * 2)
        result = strategy.read("object-0", now=0.0)
        assert result.chunks_from_neighbors == 0
        assert result.chunks_from_backend == len(needed)

        # Intermediate neighbour: exactly the chunks with a slower backend
        # link switch over; the nearer ones keep their bucket reads.
        threshold = (costs[0] + costs[-1]) / 2
        expected_neighbor = sum(1 for cost in costs if cost > threshold)
        strategy.set_neighbor_catalog(catalog, threshold)
        result = strategy.read("object-0", now=0.0)
        assert 0 < expected_neighbor < len(needed)
        assert result.chunks_from_neighbors == expected_neighbor
        assert result.chunks_from_backend == len(needed) - expected_neighbor

    def test_neighbor_cost_rule_matches_on_indexed_path(self, store):
        """read_indexed applies the same per-chunk cost rule as read."""
        from repro.erasure.chunk import ChunkId

        config = ClientConfig(overhead_ms=0.0, include_decode_cost=False)
        strategy = AgarReadStrategy(store, "frankfurt", MEGABYTE, config=config)
        strategy.prepare_indexed_reads(["object-0"])
        needed = strategy._needed("object-0")
        catalog = frozenset(
            ChunkId(key="object-0", index=placed.index) for placed in needed)
        costs = sorted(placed.latency_ms for placed in needed)
        threshold = (costs[0] + costs[-1]) / 2
        expected_neighbor = sum(1 for cost in costs if cost > threshold)

        strategy.set_neighbor_catalog(catalog, threshold)
        result = strategy.read_indexed(0, now=0.0)
        assert result.chunks_from_neighbors == expected_neighbor
        assert result.chunks_from_backend == len(needed) - expected_neighbor

    def test_snapshot_reflects_configuration(self, store):
        strategy = AgarReadStrategy(store, "sydney", 5 * MEGABYTE)
        now = 0.0
        for index in (0, 0, 0, 1, 1, 2):
            strategy.read(f"object-{index}", now=now)
            now += 10.0
        strategy.read("object-0", now=now + 30.0)
        snapshot = strategy.cache_snapshot()
        assert snapshot.used_bytes <= 5 * MEGABYTE


class TestAgarHints:
    """A key's hints are resolved once per installed configuration.

    The read path remembers ``(configuration, hinted positions, chunk ids)``
    per key and reuses it while the node's current configuration *is* that
    object.  Every way a configuration gets installed must therefore show in
    the very next read — each test here fails on a memo that does not check
    the configuration.
    """

    KEYS = [f"object-{index}" for index in range(20)]

    @staticmethod
    def _strategy(store, region="frankfurt"):
        # Two megabytes hold 18 of the 116,509-byte chunks: room for two
        # whole objects, so a popularity shift changes the hints of many keys.
        strategy = AgarReadStrategy(store, region, 2 * MEGABYTE)
        strategy.set_external_reconfiguration(True)
        strategy.prepare_indexed_reads(TestAgarHints.KEYS)
        return strategy

    @staticmethod
    def _read_all(strategy, hot, now):
        """Every key once, the ``hot`` ones ten times more."""
        for key in TestAgarHints.KEYS:
            for _ in range(10 if key in hot else 1):
                strategy.read(key, now=now)

    @staticmethod
    def _probed(strategy, read):
        """Chunk indices each ``cache.probe`` call of ``read()`` looked up."""
        cache = strategy.cache
        calls = []

        def spy(chunk_ids):
            calls.append({chunk_id.index for chunk_id in chunk_ids})
            return type(cache).probe(cache, chunk_ids)

        cache.probe = spy
        try:
            result = read()
        finally:
            del cache.probe
        return result, calls

    def _assert_reads_follow(self, strategy, now):
        """The next read of every key probes exactly the current hints."""
        configuration = strategy.node.current_configuration
        cache = strategy.cache
        for index, key in enumerate(self.KEYS):
            needed = {placed.index for placed in strategy._needed(key)}
            hinted = set(configuration.chunks_for(key)) & needed
            held = hinted & set(cache.cached_indices(key))
            if index % 2:
                result, calls = self._probed(
                    strategy, lambda: strategy.read_indexed(index, now))
            else:
                result, calls = self._probed(
                    strategy, lambda: strategy.read(key, now=now))
            assert calls == ([hinted] if hinted else []), key
            assert result.chunks_from_cache == len(held), key
            # Cache writes follow the hints too: what was hinted and fetched
            # is held afterwards, and nothing else of the key was added.
            assert hinted <= set(cache.cached_indices(key)), key
        return configuration

    def _warm(self, store, region="frankfurt"):
        strategy = self._strategy(store, region)
        self._read_all(strategy, hot=self.KEYS[:3], now=1.0)
        strategy.node.reconfigure(30.0)
        self._assert_reads_follow(strategy, now=31.0)
        assert any(plan.hint[1] for plan in strategy._plans.values())
        return strategy

    @staticmethod
    def _hints(strategy):
        configuration = strategy.node.current_configuration
        return {key: configuration.chunks_for(key) for key in TestAgarHints.KEYS}

    def test_after_a_periodic_reconfiguration(self, store):
        strategy = self._warm(store)
        before = self._hints(strategy)
        # The popularity moves to other keys; two periods let the EWMA follow.
        for now in (40.0, 70.0):
            self._read_all(strategy, hot=self.KEYS[10:13], now=now)
            strategy.node.reconfigure(now + 20.0)
        assert self._hints(strategy) != before
        self._assert_reads_follow(strategy, now=95.0)

    def test_after_an_emergency_reconfiguration(self, store):
        strategy = self._warm(store)
        previous = strategy.node.current_configuration
        self._read_all(strategy, hot=self.KEYS[5:8], now=40.0)
        strategy.node.emergency_reconfigure(45.0, frozenset({"tokyo"}))
        assert strategy.node.current_configuration is not previous
        self._assert_reads_follow(strategy, now=46.0)

    def test_after_a_collaboration_round(self, store):
        from repro.extensions.collaboration import CollaborationCoordinator

        strategies = [self._warm(store, region) for region in ("frankfurt", "dublin")]
        before = [self._hints(strategy) for strategy in strategies]
        coordinator = CollaborationCoordinator(
            [strategy.node for strategy in strategies], neighbor_read_ms=30.0)
        for strategy in strategies:
            self._read_all(strategy, hot=self.KEYS[:3], now=40.0)
        coordinator.reconfigure_all(60.0)
        # The round discounts what the neighbour pins: the two nodes stop
        # caching the same chunks, so at least one node's hints moved.
        assert [self._hints(strategy) for strategy in strategies] != before
        for strategy in strategies:
            self._assert_reads_follow(strategy, now=61.0)

    def test_after_installing_the_empty_configuration(self, store):
        from repro.core.knapsack import EMPTY_CONFIGURATION

        strategy = self._warm(store)
        assert len(strategy.cache) > 0
        strategy.node.cache_manager.install(EMPTY_CONFIGURATION)
        self._assert_reads_follow(strategy, now=32.0)
        # The chunks are still cached; nothing hints at them any more.
        assert len(strategy.cache) > 0
        hits_before = strategy.cache.stats.chunk_hits
        for key in self.KEYS:
            assert strategy.read(key, now=33.0).chunks_from_cache == 0
        assert strategy.cache.stats.chunk_hits == hits_before

    def test_a_piggy_backed_reconfiguration_shows_in_the_read_that_ran_it(self, store):
        strategy = AgarReadStrategy(store, "frankfurt", 2 * MEGABYTE)
        for step in range(4):
            strategy.read("object-0", now=float(step))
        assert strategy.cache.cached_indices("object-0") == []
        # 31 s after the first read the period check inside this read
        # reconfigures; its hints are the new configuration's already.
        result, calls = self._probed(
            strategy, lambda: strategy.read("object-0", now=31.0))
        hinted = set(strategy.node.current_configuration.chunks_for("object-0"))
        assert hinted and calls == [hinted]
        assert result.chunks_from_cache == 0
        assert set(strategy.cache.cached_indices("object-0")) == hinted

    def test_read_and_read_indexed_share_the_remembered_hint(self, store, monkeypatch):
        from repro.client.strategies import _ReadPlan

        strategy = self._warm(store)
        strategy.node.reconfigure(60.0)
        resolved = []
        resolve = _ReadPlan.hinted_under

        def counting(plan, configuration):
            resolved.append(plan.key)
            return resolve(plan, configuration)

        monkeypatch.setattr(_ReadPlan, "hinted_under", counting)
        for index, key in enumerate(self.KEYS):
            strategy.read(key, now=61.0)
            strategy.read_indexed(index, now=61.0)
            strategy.read(key, now=62.0)
        assert resolved == self.KEYS

    def test_fifty_reconfigurations_leave_one_hint_per_key(self, store):
        import gc
        import weakref

        strategy = self._strategy(store)
        installed = []
        now = 0.0
        for period in range(50):
            hot = self.KEYS[period % 17:period % 17 + 3]
            self._read_all(strategy, hot=hot, now=now + 1.0)
            now += 30.0
            strategy.node.reconfigure(now)
            installed.append(weakref.ref(strategy.node.current_configuration))
        self._read_all(strategy, hot=(), now=now + 1.0)
        current = strategy.node.current_configuration
        for plan in strategy._plans.values():
            remembered, positions, chunk_ids = plan.hint
            assert remembered is current
            assert len(positions) == len(chunk_ids)
        del remembered
        gc.collect()
        # Nothing keeps an earlier configuration alive: no per-configuration
        # table grows behind the plans.
        assert [ref() for ref in installed if ref() is not None] == [current]

    def test_every_read_is_counted_exactly_once(self, store):
        strategy = self._strategy(store)
        monitor = strategy.node.request_monitor
        tracker = monitor.popularity_tracker
        reads = 0
        for index, key in enumerate(self.KEYS):
            for _ in range(index % 3 + 1):
                strategy.read(key, now=1.0)
                strategy.read_indexed(index, now=1.0)
                reads += 2
            assert tracker.current_frequency(key) == 2 * (index % 3 + 1)
        assert monitor.requests_seen == reads
        strategy.node.reconfigure(30.0)
        strategy.read("object-0", now=31.0)
        assert monitor.requests_seen == reads + 1
        assert tracker.current_frequency("object-0") == 1


class TestFactory:
    @pytest.mark.parametrize("name,expected_type", [
        ("backend", BackendReadStrategy),
        ("agar", AgarReadStrategy),
        ("lru-5", FixedChunkCachingStrategy),
        ("lfu-7", PeriodicLFUStrategy),
        ("lfu-online-7", FixedChunkCachingStrategy),
        ("lru-online-3", FixedChunkCachingStrategy),
    ])
    def test_known_names(self, store, name, expected_type):
        strategy = make_strategy(name, store, "frankfurt", MEGABYTE)
        assert isinstance(strategy, expected_type)

    def test_unknown_name(self, store):
        with pytest.raises(ValueError):
            make_strategy("arc-5", store, "frankfurt", MEGABYTE)


class TestStrategyNameValidation:
    def test_is_strategy_name(self):
        from repro.client.strategies import is_strategy_name

        for name in ("backend", "agar", "lru-1", "lfu-9", "lru-online-3",
                      "lfu-online-5"):
            assert is_strategy_name(name)
        for name in ("bogus", "lru-", "lfu-0", "lru-x", "agar-2", "LRU-5",
                      "lfu-online-"):
            assert not is_strategy_name(name)


class TestEntryPoints:
    """``read`` and ``read_indexed`` resolve a key differently and then run
    the same read: results, cache effects and sink payloads must agree."""

    @staticmethod
    def deployment(name):
        """A fresh jittered store + strategy (own jitter stream per call)."""
        from repro.backend import ErasureCodedStore
        from repro.geo import default_topology

        store = ErasureCodedStore(default_topology(seed=5))
        keys = store.populate(object_count=12, object_size=MEGABYTE)
        strategy = make_strategy(name, store, "frankfurt", 2 * MEGABYTE)
        decided = []
        strategy.set_decision_sink(
            lambda result, cache_chunks, backend_chunks: decided.append(
                ([placed.index for placed in cache_chunks],
                 [placed.index for placed in backend_chunks])))
        return strategy, keys, decided

    @pytest.mark.parametrize("name", ["backend", "lru-3", "lfu-online-3",
                                      "lfu-5", "agar"])
    def test_entry_points_agree(self, name):
        from repro.sim.faults import FaultState

        by_key, keys, key_decisions = self.deployment(name)
        by_index, _, index_decisions = self.deployment(name)
        by_index.prepare_indexed_reads(keys)
        outage = FaultState(down_backends=frozenset({"sao_paulo"}))
        for step in range(240):
            if step == 160:
                by_key.set_fault_state(outage)
                by_index.set_fault_state(outage)
            rank = (step * step) % 7          # skewed, revisits hot keys
            now = step * 0.5                  # crosses three 30 s periods
            assert by_index.read_indexed(rank, now) == by_key.read(keys[rank], now)
        # The sink fires on both entry points with the same chunk lists.
        assert len(index_decisions) == 240
        assert index_decisions == key_decisions
        assert any(cache for cache, _ in key_decisions) or name == "backend"
        assert by_index.cache_snapshot() == by_key.cache_snapshot()

    def test_read_indexed_requires_prepare(self, store):
        strategy = BackendReadStrategy(store, "frankfurt")
        with pytest.raises(RuntimeError, match="prepare_indexed_reads"):
            strategy.read_indexed(0, now=0.0)

    def test_lazily_interned_key_is_shared(self, store):
        """A key first seen by ``read`` (e.g. after a wire PUT) needs no
        re-preparation, and the index table reuses its plan."""
        strategy = FixedChunkCachingStrategy(store, "frankfurt", MEGABYTE,
                                             chunks_per_object=3)
        store.put_virtual("late", MEGABYTE)
        first = strategy.read("late", now=0.0)
        assert first.hit_type is HitType.MISS
        strategy.prepare_indexed_reads(["late"])
        second = strategy.read_indexed(0, now=1.0)
        assert second.chunks_from_cache == 3

    def test_cache_hit_without_cache_link_raises(self):
        """A topology with no cache link profile tolerates cache-less reads
        but must fail loudly on the first cache hit."""
        from repro.backend import ErasureCodedStore
        from repro.geo import default_topology

        topology = default_topology(seed=0)
        topology.latency._cache_links.clear()
        store = ErasureCodedStore(topology)
        store.populate(object_count=1, object_size=MEGABYTE)
        assert BackendReadStrategy(store, "frankfurt").read(
            "object-0", now=0.0).chunks_from_backend == 9
        caching = FixedChunkCachingStrategy(store, "frankfurt", MEGABYTE,
                                            chunks_per_object=3)
        caching.read("object-0", now=0.0)
        with pytest.raises(KeyError, match="cache link"):
            caching.read("object-0", now=1.0)
