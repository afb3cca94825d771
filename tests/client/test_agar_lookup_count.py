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

from collections import Counter

from repro.cache.chunk_cache import ChunkCache
from repro.client.strategies import AgarReadStrategy
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


def _spy(monkeypatch) -> None:
    """From now on, count each Agar strategy's batched waves and the
    :meth:`ChunkId.__hash__` calls its reads make, and each cache's probes.

    The spies sit on the classes and keep their counts on the instances
    (``strategy.spied``, ``cache.probes``), so the counts travel with a
    strategy the engine takes back from the worker process that ran it.
    """
    hashes = [0]
    original_hash = ChunkId.__hash__

    def counting_hash(chunk_id) -> int:
        hashes[0] += 1
        return original_hash(chunk_id)

    def counted(name):
        read = getattr(AgarReadStrategy, name)

        def spied(strategy, *arguments):
            before = hashes[0]
            try:
                return read(strategy, *arguments)
            finally:
                counts = strategy.__dict__.setdefault("spied", Counter())
                counts[name] += 1
                counts["hashes"] += hashes[0] - before

        return spied

    probe = ChunkCache.probe

    def counted_probe(cache, chunk_ids):
        cache.probes = getattr(cache, "probes", 0) + 1
        return probe(cache, chunk_ids)

    monkeypatch.setattr(ChunkId, "__hash__", counting_hash)
    for name in ("read_indexed", "compose_indexed_wave"):
        monkeypatch.setattr(AgarReadStrategy, name, counted(name))
    monkeypatch.setattr(ChunkCache, "probe", counted_probe)


def _spied(deployment, name: str) -> int:
    return sum(strategy.__dict__.get("spied", Counter())[name]
               for strategy in deployment.strategies)


def test_a_warm_stretch_hashes_no_chunk_id_per_read(monkeypatch):
    engine, deployment = _warm_deployment()
    data_chunks = deployment.store.params.data_chunks
    before = _cache_counters(deployment)
    _spy(monkeypatch)
    result = engine.execute(deployment, seed=4)
    probes = sum(getattr(strategy.cache, "probes", 0)
                 for strategy in deployment.strategies)

    # The stretch is what the guard is about: no install, no insertion (no
    # put at all), and most reads in batched waves.
    assert _cache_counters(deployment) == before
    assert _spied(deployment, "compose_indexed_wave") > 0
    reads = sum(region.stats.count for region in result.regions.values())
    assert reads == 2 * CLIENTS * REQUESTS
    hits = sum(strategy.cache.stats.chunk_hits for strategy in deployment.strategies)
    assert hits > reads    # the hinted chunks are read, from the cache

    # Each key's lookup is rebuilt at most once: one probe of at most k ids,
    # then at most k hits looked up again for their entries.  Nothing else on
    # the read path hashes an id.
    assert probes <= len(deployment.strategies) * OBJECTS
    assert _spied(deployment, "hashes") <= 2 * data_chunks * probes
