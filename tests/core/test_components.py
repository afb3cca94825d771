"""Tests for the Region Manager, Request Monitor and Cache Manager (§III)."""

import pytest

from repro.backend import ErasureCodedStore
from repro.cache import ChunkCache, LRUEvictionPolicy, PinnedConfigurationPolicy
from repro.core.cache_manager import CacheManager, CacheManagerConfig
from repro.core.region_manager import RegionManager
from repro.core.request_monitor import RequestMonitor
from repro.geo.topology import TABLE1_FRANKFURT_LATENCIES

MEGABYTE = 1024 * 1024
CHUNK_SIZE = -(-MEGABYTE // 9)


class TestRegionManager:
    def test_estimates_cover_all_regions(self, store):
        manager = RegionManager("frankfurt", store)
        estimates = manager.latency_estimates()
        assert set(estimates) == set(store.topology.region_names)
        assert manager.latency_to("tokyo") == estimates["tokyo"]
        with pytest.raises(KeyError):
            manager.latency_to("mars")

    def test_estimates_match_model_without_jitter(self, store):
        manager = RegionManager("frankfurt", store)
        expected = store.topology.expected_read_latencies("frankfurt")
        for region, value in manager.latency_estimates().items():
            assert value == pytest.approx(expected[region])

    def test_local_region_validated(self, store):
        with pytest.raises(KeyError):
            RegionManager("mars", store)
        with pytest.raises(ValueError):
            RegionManager("frankfurt", store, probe_samples=0)

    def test_topology_view(self, store):
        manager = RegionManager("sydney", store)
        assert manager.local_region == "sydney"
        assert manager.params.data_chunks == 9
        assert manager.known_keys() == store.keys()
        assert set(manager.chunks_by_region("object-0")) == set(store.topology.region_names)

    def test_estimates_table_sorted(self, store):
        manager = RegionManager("frankfurt", store)
        table = manager.estimates_table()
        latencies = [row.latency_ms for row in table]
        assert latencies == sorted(latencies)
        assert manager.regions_by_distance()[0] == "frankfurt"

    def test_cache_read_estimate_positive(self, store):
        manager = RegionManager("frankfurt", store)
        assert 0 < manager.cache_read_estimate() < manager.latency_to("sydney")


@pytest.fixture
def cache_manager(store):
    manager = RegionManager("frankfurt", store)
    cache = ChunkCache(capacity_bytes=10 * MEGABYTE, policy=PinnedConfigurationPolicy())
    return CacheManager(manager, cache, chunk_size=CHUNK_SIZE)


class TestCacheManager:
    def test_capacity_chunks(self, cache_manager):
        assert cache_manager.capacity_chunks == (10 * MEGABYTE) // CHUNK_SIZE

    def test_generate_options_only_for_popular_keys(self, cache_manager):
        options = cache_manager.generate_options({"object-0": 10.0, "object-1": 0.0})
        assert "object-0" in options
        assert "object-1" not in options  # min_popularity default 0 excludes zero
        assert [option.weight for option in options["object-0"]] == [1, 3, 5, 7, 9]

    def test_generate_options_skips_unknown_keys(self, cache_manager):
        options = cache_manager.generate_options({"ghost": 50.0, "object-2": 1.0})
        assert "ghost" not in options
        assert "object-2" in options

    def test_max_candidate_keys(self, store):
        manager = RegionManager("frankfurt", store)
        cache = ChunkCache(capacity_bytes=10 * MEGABYTE, policy=PinnedConfigurationPolicy())
        limited = CacheManager(manager, cache, chunk_size=CHUNK_SIZE,
                               config=CacheManagerConfig(max_candidate_keys=3))
        popularity = {f"object-{i}": float(20 - i) for i in range(10)}
        options = limited.generate_options(popularity)
        assert set(options) == {"object-0", "object-1", "object-2"}

    def test_max_candidate_keys_counts_only_keys_that_resolve(self, store):
        """A deleted object lingers in the popularity map; it must not use up the cap."""
        manager = RegionManager("frankfurt", store)
        cache = ChunkCache(capacity_bytes=10 * MEGABYTE, policy=PinnedConfigurationPolicy())
        limited = CacheManager(manager, cache, chunk_size=CHUNK_SIZE,
                               config=CacheManagerConfig(max_candidate_keys=3))
        popularity = {"ghost": 50.0, "object-0": 3.0, "object-1": 2.0, "object-2": 1.0,
                      "object-3": 0.5}
        assert list(limited.generate_options(popularity)) == ["object-0", "object-1", "object-2"]
        store.delete("object-1")
        assert list(limited.generate_options(popularity)) == ["object-0", "object-2", "object-3"]

    def test_options_are_stamped_on_first_lookup(self, cache_manager):
        popularity = {f"object-{i}": float(20 - i) for i in range(10)}
        table = cache_manager.generate_options(popularity)
        assert (len(table), table.option_count, table.stamped_count) == (10, 50, 0)
        assert "object-3" in table and "ghost" not in table
        assert list(table) == [f"object-{i}" for i in range(10)]
        assert table.stamped_count == 0          # none of the above creates an option

        options = table["object-3"]
        assert table["object-3"] is options      # stamped once, kept
        assert table.stamped_count == 5
        assert {(option.key, option.popularity) for option in options} == {("object-3", 17.0)}
        with pytest.raises(KeyError):
            table["ghost"]

        everything = dict(table.items())
        assert table.stamped_count == table.option_count == 50
        assert everything["object-3"] is options

    def test_record_counts_the_options_stamped(self, store):
        manager = RegionManager("frankfurt", store)
        cache = ChunkCache(capacity_bytes=2 * MEGABYTE, policy=PinnedConfigurationPolicy())
        cache_manager = CacheManager(manager, cache, chunk_size=CHUNK_SIZE,
                                     config=CacheManagerConfig(stop_after_extra_keys=2))
        popularity = {f"object-{i}": 1000.0 / (i + 1) for i in range(20)}
        record = cache_manager.reconfigure(popularity)
        assert record.stopped_early and record.options_generated == 100
        assert record.options_stamped == 5 * record.keys_processed < record.options_generated
        # A transform reads every option, and what it returns exists in full.
        record = cache_manager.reconfigure(popularity, transform=lambda options: dict(options.items()))
        assert record.options_stamped == record.options_generated == 100

    def test_work_follows_the_cache_not_the_catalogue(self, topology):
        """§VI: the same cache and the same head of the ranking cost the same decisions."""
        records = {}
        for objects in (300, 3000):
            store = ErasureCodedStore(topology)
            store.populate(object_count=objects, object_size=MEGABYTE)
            cache = ChunkCache(capacity_bytes=10 * MEGABYTE, policy=PinnedConfigurationPolicy())
            manager = CacheManager(RegionManager("frankfurt", store), cache, chunk_size=CHUNK_SIZE)
            popularity = {f"object-{i}": 1000.0 / (i + 1) ** 1.1 for i in range(objects)}
            records[objects] = (manager.reconfigure(popularity), manager.current_configuration)
        (small, small_config), (large, large_config) = records[300], records[3000]
        assert (large.candidate_keys, large.options_generated) == (3000, 15000)
        assert large.keys_processed == small.keys_processed < 50
        assert large.options_stamped == small.options_stamped == 5 * small.keys_processed
        assert (large.relax_scans, large.relax_pruned) == (small.relax_scans, small.relax_pruned)
        assert large_config.options == small_config.options

    def test_negative_popularity_is_rejected(self, store):
        manager = RegionManager("frankfurt", store)
        cache = ChunkCache(capacity_bytes=10 * MEGABYTE, policy=PinnedConfigurationPolicy())
        lenient = CacheManager(manager, cache, chunk_size=CHUNK_SIZE,
                               config=CacheManagerConfig(min_popularity=-5.0))
        assert list(lenient.generate_options({"object-0": 0.0, "object-1": 2.0})) == [
            "object-1", "object-0"]
        with pytest.raises(ValueError):
            lenient.generate_options({"object-0": -1.0, "object-1": 2.0})

    def test_reconfigure_installs_and_pins(self, cache_manager, store):
        popularity = {f"object-{i}": float(100 - i) for i in range(10)}
        record = cache_manager.reconfigure(popularity)
        config = cache_manager.current_configuration
        assert record.configured_chunks == config.weight
        assert 0 < config.weight <= cache_manager.capacity_chunks
        policy = cache_manager._cache.policy
        assert policy.pinned == config.chunk_ids()
        assert cache_manager.hints_for(config.keys()[0]) == config.chunks_for(config.keys()[0])
        assert cache_manager.history[-1] is record

    def test_most_popular_objects_get_more_chunks(self, cache_manager):
        popularity = {f"object-{i}": float(1000 / (i + 1)) for i in range(15)}
        cache_manager.reconfigure(popularity)
        config = cache_manager.current_configuration
        top = config.option_for("object-0")
        assert top is not None
        least = min(config.options, key=lambda option: option.popularity)
        assert top.weight >= least.weight

    def test_invalid_chunk_size(self, store):
        manager = RegionManager("frankfurt", store)
        cache = ChunkCache(capacity_bytes=MEGABYTE)
        with pytest.raises(ValueError):
            CacheManager(manager, cache, chunk_size=0)

    def test_install_noop_on_non_pinned_policy(self, store):
        manager = RegionManager("frankfurt", store)
        cache = ChunkCache(capacity_bytes=MEGABYTE, policy=LRUEvictionPolicy())
        cache_manager = CacheManager(manager, cache, chunk_size=CHUNK_SIZE)
        record = cache_manager.reconfigure({"object-0": 5.0})
        assert record.configured_objects >= 0  # install() simply skips pinning


class TestRequestMonitor:
    def test_hints_follow_configuration(self, cache_manager):
        monitor = RequestMonitor(cache_manager)
        hints = monitor.record_request("object-0")
        assert hints.key == "object-0"
        assert hints.cached_chunk_indices == ()
        assert not hints.wants_caching

        cache_manager.reconfigure({"object-0": 50.0})
        hints = monitor.record_request("object-0")
        assert hints.wants_caching
        assert hints.cached_chunk_indices == cache_manager.hints_for("object-0")

    def test_popularity_feeding(self, cache_manager):
        monitor = RequestMonitor(cache_manager, alpha=0.5)
        for _ in range(4):
            monitor.record_request("object-3")
        assert monitor.requests_seen == 4
        popularity = monitor.end_period()
        assert popularity["object-3"] == pytest.approx(2.0)
        assert monitor.popularity_snapshot()["object-3"] == pytest.approx(2.0)

    def test_peek_does_not_record(self, cache_manager):
        monitor = RequestMonitor(cache_manager)
        monitor.peek_hints("object-1")
        assert monitor.requests_seen == 0
        assert monitor.popularity_tracker.current_frequency("object-1") == 0

    def test_processing_overhead_propagates(self, cache_manager):
        monitor = RequestMonitor(cache_manager, processing_overhead_ms=2.5)
        assert monitor.record_request("object-0").processing_overhead_ms == pytest.approx(2.5)
