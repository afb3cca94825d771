"""Freeze golden digests of plain ``EventEngine.execute``.

``execute ≡ execute_reference`` compares two schedulers of the *same* commit,
and ``engine_sharded.json`` pins the sharded executor; this file pins the
unsharded one across versions.  For eight deployment shapes — the
``engine_clean`` smoke shape (2 × agar, closed loop); the same under a
``RegionOutage`` with retries, hedging and emergency reconfiguration; a mixed
agar / lru-5 / lfu-5 / backend deployment; §VI collaboration (neighbour
catalog installed, so hinted and neighbour chunks interleave); the 1 × 1
piggy-backed shape (``auto_reconfigure`` on); the zero-jitter ``table1``
topology (tie-guarded heap path); Poisson open loop; and a backend-only
``keep_results=True`` run (the batched wave dispatch) — it runs
``execute(deployment, seed)`` twice against one deployment (the second run
reads a warm cache) and records two SHA-256 digests per run:

``reads``
    ``repr(duration_s)`` and, per region, the name, the bytes of
    ``stats.latencies_array()``, the sorted ``stats.summary()``, the cache
    snapshot's sorted ``chunks_per_key`` and the ``repr`` of every kept
    ``ReadResult``.
``state``
    what a read-path change could move without moving a latency: per
    strategy ``cache.stats`` (``chunk_hits``, ``chunk_misses``,
    ``insertions``, ``refreshes``, ``rejections``, ``evictions``),
    ``request_monitor.requests_seen``, the popularity tracker's snapshot,
    ``(last_access, access_count)`` of every cached chunk in sorted id order,
    and the next value of the jitter stream after the run
    (``latency.next_standard_normal()``).

Only public API is driven, with one exception: the per-entry recency is read
off ``cache._entries`` (there is no public view of it), so that one private
name must exist on any commit the script runs on.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_engine_execute.py

``tests/sim/test_engine_execute_golden.py`` replays every shape and compares
it with the committed ``tests/golden/engine_execute.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.geo import table1_topology
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.workload.workload import WorkloadSpec, poisson_arrivals

GOLDEN_PATH = Path(__file__).with_name("engine_execute.json")

MEGABYTE = 1024 * 1024
SEED = 7
RUNS = 2

CACHE_STAT_FIELDS = ("chunk_hits", "chunk_misses", "insertions", "refreshes",
                     "rejections", "evictions")


class Shape(NamedTuple):
    """One deployment shape: its config and how the engine is built for it."""

    config: EngineConfig
    keep_results: bool = False
    table1: bool = False


def _config(regions, requests=80, objects=64, cache=2 * MEGABYTE,
            **overrides) -> EngineConfig:
    return EngineConfig(
        workload=WorkloadSpec(object_count=objects, request_count=requests,
                              seed=SEED),
        regions=regions,
        cache_capacity_bytes=cache,
        topology_seed=SEED,
        **overrides,
    )


def shapes() -> dict[str, Shape]:
    """Every deployment shape the file covers, by name."""
    two_agar = (RegionSpec("frankfurt", clients=8), RegionSpec("dublin", clients=8))
    return {
        "agar_closed_loop": Shape(_config(two_agar)),
        "agar_outage_resilient": Shape(_config(
            two_agar, requests=110,
            client=ClientConfig(resilience=ResilienceConfig(
                retry_budget=1, timeout_factor=1.1, hedge=True,
                hedge_quantile=0.7, hedge_min_samples=8,
                emergency_reconfiguration=True)),
            faults=FaultSchedule([RegionOutage("sao_paulo", 20.0, 50.0)])),
            keep_results=True),
        "mixed_strategies": Shape(_config(
            (RegionSpec("frankfurt", clients=4),
             RegionSpec("sydney", clients=4, strategy="lru-5"),
             RegionSpec("tokyo", clients=4, strategy="lfu-5"),
             RegionSpec("dublin", clients=3, strategy="backend")),
            requests=120, cache=5 * MEGABYTE)),
        "collaborative": Shape(_config(
            (RegionSpec("frankfurt", clients=4), RegionSpec("dublin", clients=4)),
            requests=140, cache=3 * MEGABYTE, collaboration=True),
            keep_results=True),
        "piggyback_1x1": Shape(_config(
            (RegionSpec("frankfurt", clients=1),), requests=260)),
        "table1_zero_jitter": Shape(_config(
            (RegionSpec("frankfurt", clients=3), RegionSpec("sydney", clients=3)),
            requests=100), table1=True),
        "poisson_open_loop": Shape(_config(
            (RegionSpec("frankfurt", clients=4), RegionSpec("sydney", clients=4)),
            requests=120, arrival=poisson_arrivals(2.0))),
        "backend_kept_waves": Shape(_config(
            (RegionSpec("frankfurt", clients=6, strategy="backend"),
             RegionSpec("tokyo", clients=5, strategy="backend")),
            requests=40), keep_results=True),
    }


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _reads_parts(result):
    yield repr(result.duration_s)
    for name, region in result.regions.items():
        snapshot = region.cache_snapshot
        yield name
        yield region.stats.latencies_array().tobytes()
        yield repr(sorted(region.stats.summary().items()))
        yield repr(None if snapshot is None else sorted(snapshot.chunks_per_key.items()))
        yield "\n".join(repr(read) for read in region.results)


def _state_parts(deployment):
    for strategy in deployment.strategies:
        yield strategy.client_region
        cache = getattr(strategy, "cache", None)
        if cache is not None:
            yield repr([getattr(cache.stats, name) for name in CACHE_STAT_FIELDS])
            # The one private name this script touches: per-entry recency has
            # no public view.
            entries = sorted(cache._entries.items(),
                             key=lambda item: (item[0].key, item[0].index))
            yield repr([(chunk_id.key, chunk_id.index, entry.last_access,
                         entry.access_count) for chunk_id, entry in entries])
        node = getattr(strategy, "node", None)
        if node is not None:
            monitor = node.request_monitor
            yield repr(monitor.requests_seen)
            yield repr(monitor.popularity_tracker.snapshot())
    yield repr(deployment.store.topology.latency.next_standard_normal())


def run_case(name: str) -> dict:
    """``RUNS`` consecutive ``execute`` runs of shape ``name`` on one deployment."""
    shape = shapes()[name]
    config = shape.config
    engine = EventEngine(
        config,
        topology=table1_topology(seed=config.topology_seed) if shape.table1 else None,
        keep_results=shape.keep_results)
    engine.topology.latency.reseed(config.topology_seed + SEED)
    deployment = engine.build_deployment()
    runs, requests = [], 0
    for offset in range(RUNS):
        result = engine.execute(deployment, SEED + offset)
        runs.append({"reads": _digest(_reads_parts(result)),
                     "state": _digest(_state_parts(deployment))})
        requests = result.total_requests
    return {"requests": requests, "runs": runs}


def build() -> dict:
    return {name: run_case(name) for name in shapes()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing engine_execute.json")
    args = parser.parse_args(argv)
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it",
              file=sys.stderr)
        return 2
    golden = build()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    # One shape per line, in coverage order.
    lines = [f' "generated_at_commit": {json.dumps(commit)}']
    lines += [f" {json.dumps(name)}: "
              f"{json.dumps(golden[name], sort_keys=True, separators=(',', ':'))}"
              for name in golden]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} shapes × {RUNS} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
