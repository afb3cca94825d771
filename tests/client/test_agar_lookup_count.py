"""A warm Agar deployment's batched waves look no chunk up per read.

Each key's read plan remembers its cache lookup under the installed
configuration and the cache's membership counter, and a read replays it while
both stand.  So once a deployment is warm — its configuration installed and
every hinted chunk cached — a run with no install and no insertion hashes a
:class:`ChunkId` only when a key's remembered lookup is rebuilt, at most once
per key: the rebuild's probe hashes its at most ``k`` hinted ids, and taking
the entries of the hits hashes those again.  A read that probed the cache
would hash each of its hinted ids.
"""

from __future__ import annotations

from repro.core.agar_node import AgarNodeConfig
from repro.erasure import ChunkId
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.workload.workload import zipfian_workload

OBJECTS = 30
CLIENTS = 60
REQUESTS = 40


def _warm_deployment():
    """Two regions of batched Agar clients after one run: one configuration
    installed (the 30 s period falls inside the first run only) and its
    chunks written back."""
    config = EngineConfig(
        workload=zipfian_workload(1.1, request_count=REQUESTS, object_count=OBJECTS,
                                  seed=11),
        regions=(RegionSpec("frankfurt", clients=CLIENTS),
                 RegionSpec("tokyo", clients=CLIENTS)),
        cache_capacity_bytes=4 * 1024 * 1024,
        agar=AgarNodeConfig(reconfiguration_period_s=30.0))
    engine = EventEngine(config, keep_results=False)
    deployment = engine.build_deployment()
    engine.execute(deployment, seed=3)
    return engine, deployment


def _cache_counters(deployment) -> list[tuple]:
    return [(len(strategy.node.reconfiguration_history()),
             strategy.cache.stats.insertions, strategy.cache.stats.rejections)
            for strategy in deployment.strategies]


def _spy(deployment) -> dict:
    """Count batched waves and cache probes."""
    seen = {"waves": 0, "probes": 0}
    for strategy in deployment.strategies:
        compose, cache = strategy.compose_indexed_wave, strategy.cache
        probe = cache.probe

        def counted_wave(*wave, compose=compose):
            seen["waves"] += 1
            return compose(*wave)

        def counted_probe(chunk_ids, probe=probe):
            seen["probes"] += 1
            return probe(chunk_ids)

        strategy.compose_indexed_wave = counted_wave
        cache.probe = counted_probe
    return seen


def _count_hashes(monkeypatch) -> list:
    """From now on, one element per :meth:`ChunkId.__hash__` call."""
    hashed = []
    original = ChunkId.__hash__

    def counting(chunk_id) -> int:
        hashed.append(None)
        return original(chunk_id)

    monkeypatch.setattr(ChunkId, "__hash__", counting)
    return hashed


def test_a_warm_stretch_hashes_no_chunk_id_per_read(monkeypatch):
    engine, deployment = _warm_deployment()
    data_chunks = deployment.store.params.data_chunks
    before = _cache_counters(deployment)
    seen = _spy(deployment)
    hashed = _count_hashes(monkeypatch)
    result = engine.execute(deployment, seed=4)

    # The stretch is what the guard is about: no install, no insertion (no
    # put at all), and most reads in batched waves.
    assert _cache_counters(deployment) == before
    assert seen["waves"] > 0
    reads = sum(region.stats.count for region in result.regions.values())
    assert reads == 2 * CLIENTS * REQUESTS
    hits = sum(strategy.cache.stats.chunk_hits for strategy in deployment.strategies)
    assert hits > reads    # the hinted chunks are read, from the cache

    # Each key's lookup is rebuilt at most once: one probe of at most k ids,
    # then at most k hits looked up again for their entries.  Nothing else on
    # the read path hashes an id.
    assert seen["probes"] <= len(deployment.strategies) * OBJECTS
    assert len(hashed) <= 2 * data_chunks * seen["probes"]
