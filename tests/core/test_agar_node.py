"""Tests for the assembled Agar node (Fig. 3) and its reconfiguration loop."""

import pytest

from repro.core.agar_node import AgarNode, AgarNodeConfig
from repro.core.cache_manager import CacheManagerConfig
from repro.erasure import ChunkId

MEGABYTE = 1024 * 1024


@pytest.fixture
def node(store):
    return AgarNode("frankfurt", store, cache_capacity_bytes=5 * MEGABYTE)


class TestLifecycle:
    def test_components_wired(self, node, store):
        assert node.local_region == "frankfurt"
        assert node.cache.capacity_bytes == 5 * MEGABYTE
        assert node.region_manager.local_region == "frankfurt"
        assert node.current_configuration.weight == 0

    def test_unknown_region_rejected(self, store):
        with pytest.raises(KeyError):
            AgarNode("mars", store, cache_capacity_bytes=MEGABYTE)

    def test_first_request_does_not_reconfigure(self, node):
        hints = node.on_request("object-0", now=0.0)
        assert hints.cached_chunk_indices == ()
        assert node.reconfiguration_history() == []

    def test_reconfigures_after_period(self, node):
        for step in range(5):
            node.on_request("object-0", now=float(step))
        assert node.reconfiguration_history() == []
        node.on_request("object-0", now=31.0)
        history = node.reconfiguration_history()
        assert len(history) == 1
        assert "object-0" in node.current_configuration.keys()
        # Hints now point at the configured chunks.
        hints = node.on_request("object-0", now=32.0)
        assert hints.cached_chunk_indices == node.current_configuration.chunks_for("object-0")

    def test_period_respected_between_reconfigurations(self, node):
        node.on_request("object-0", now=0.0)
        node.on_request("object-0", now=31.0)
        node.on_request("object-1", now=40.0)   # only 9 s after the last reconfiguration
        assert len(node.reconfiguration_history()) == 1
        node.on_request("object-1", now=62.0)
        assert len(node.reconfiguration_history()) == 2

    def test_forced_reconfigure(self, node):
        node.on_request("object-2", now=0.0)
        record = node.reconfigure(now=1.0)
        assert record.configured_objects >= 1
        assert "object-2" in node.current_configuration.keys()

    def test_warm_start(self, store):
        config = AgarNodeConfig(warm_start=True)
        node = AgarNode("frankfurt", store, cache_capacity_bytes=5 * MEGABYTE, config=config)
        assert node.current_configuration.weight > 0
        assert len(node.reconfiguration_history()) == 1

    def test_custom_period_and_alpha(self, store):
        config = AgarNodeConfig(reconfiguration_period_s=5.0, alpha=0.5,
                                manager=CacheManagerConfig(max_candidate_keys=4))
        node = AgarNode("sydney", store, cache_capacity_bytes=5 * MEGABYTE, config=config)
        node.on_request("object-0", now=0.0)
        node.on_request("object-0", now=6.0)
        assert len(node.reconfiguration_history()) == 1
        assert node.request_monitor.popularity_tracker.alpha == 0.5

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan"), float("inf")])
    def test_period_must_be_finite_and_positive(self, period):
        """A period at or below zero re-arms the engine's reconfiguration
        timer at once, so a run never ends; a non-finite one never fires."""
        with pytest.raises(ValueError, match="reconfiguration_period_s"):
            AgarNodeConfig(reconfiguration_period_s=period)


class TestConfigurationBehaviour:
    def test_popular_objects_preferred(self, node):
        now = 0.0
        for _ in range(30):
            node.on_request("object-0", now=now)
            now += 0.4
        for _ in range(2):
            node.on_request("object-9", now=now)
            now += 0.4
        node.reconfigure(now=now)
        config = node.current_configuration
        assert "object-0" in config.keys()
        if "object-9" in config.keys():
            assert len(config.chunks_for("object-0")) >= len(config.chunks_for("object-9"))

    def test_configuration_fits_cache(self, node, store):
        now = 0.0
        for index in range(20):
            for _ in range(3):
                node.on_request(f"object-{index}", now=now)
                now += 0.2
        node.reconfigure(now=now)
        chunk_size = store.metadata("object-0").chunk_size
        assert node.current_configuration.weight * chunk_size <= node.cache.capacity_bytes

    def test_pinned_chunks_admitted_to_cache(self, node, store):
        node.on_request("object-0", now=0.0)
        node.reconfigure(now=1.0)
        config = node.current_configuration
        chunk_ids = sorted(config.chunk_ids(), key=str)
        from repro.erasure import Chunk
        chunk_size = store.metadata("object-0").chunk_size
        admitted = node.cache.put(Chunk(chunk_ids[0], size=chunk_size))
        assert admitted
        rejected = node.cache.put(Chunk(ChunkId("object-19", 0), size=chunk_size))
        assert not rejected
