"""Freeze the exact work counts of three end-to-end benchmark shapes.

A timer can only see a regression of about twice its run-to-run spread; the
work a run does is exact for a seed.  The file holds three editions.

``reconfig`` (the top-level ``seed7`` / ``seed101`` entries and their
``generated_at_commit``): the shape of ``bench/run.py --workload reconfig``
— one frankfurt Agar node,
1,024 × 1 MiB objects placed round-robin, a 34 MiB cache (305 chunks) — through
30 periods of 3,000 Zipf 1.1 reads each, drawn with the package's own
sampler (``zipfian_workload`` / ``generate_request_ranks``, seed
``seed + period``) and counted by the request monitor, then calls
``AgarNode.reconfigure`` once per period.  Per period it records, from the
``ReconfigurationRecord``, the candidate and option counts
(``candidate_keys``, ``options_generated``, ``options_stamped``), the DP's
work (``keys_processed``, ``relax_scans``, ``relax_pruned``,
``relax_improved``) and outcome (``configured_chunks``,
``configuration_value`` as ``float.hex``), plus a SHA-256 of the installed
configuration's chunk ids in insertion order.  Seeds 7 and 101.

``engine_clean`` (the ``"engine_clean"`` entry, with its own
``generated_at_commit``): the shape of ``bench/run.py --workload
engine_clean`` — 2 regions × 256 closed-loop Agar clients × 160 reads over
300 × 1 MiB objects with a 10 MiB cache, one ``EventEngine.execute`` of a
fresh deployment seeded as the harness seeds it.  Per region it records the
``LatencyStats`` hit classes and chunk totals, the cache's ``ChunkCache.stats``
hits, misses, insertions and evictions, the node's ``requests_seen`` and a
SHA-256 of ``latencies_array()``; per run the simulated duration and the
jitter stream's position (its next four draws).  Seeds 7 and 101.

``engine_faulted`` (the ``"engine_faulted"`` entry, with its own
``generated_at_commit``): the shape of ``bench/run.py --workload
engine_faulted`` — 2 regions × 128 resilient Agar clients × 110 reads over
the same objects and cache, ``sao_paulo`` down from 20 s to 50 s, one retry,
hedging and emergency reconfiguration.  Per region it records what the
``engine_clean`` edition does plus the degraded and unavailable reads, the
retries, hedged reads and hedge wins, and one entry per reconfiguration —
periodic or emergency — with the record's counts, value bits and installed
chunk digest (the emergency re-solves run under a down region, which the
``reconfig`` edition never does); per run the same stream position.
Seeds 7 and 101.

Only public API is driven, so the same script runs unchanged on any commit.

Generate the editions missing from the file (refuses to overwrite one
without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_work_counts.py

``tests/core/test_work_counts_golden.py`` replays both editions and compares
them with the committed ``tests/golden/work_counts.json``.  A change that
moves a count on purpose regenerates the file and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.backend import ErasureCodedStore
from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.core.agar_node import AgarNode
from repro.geo import default_topology
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.workload.workload import (WorkloadSpec, generate_request_ranks,
                                     zipfian_workload)

GOLDEN_PATH = Path(__file__).with_name("work_counts.json")

MEBIBYTE = 1024 * 1024
REGION = "frankfurt"
OBJECTS = 1024
CACHE_BYTES = 34 * MEBIBYTE
READS_PER_PERIOD = 3000
PERIOD_S = 30.0
PERIODS = 30
SKEW = 1.1
SEEDS = (7, 101)
EDITIONS = ("reconfig", "engine_clean", "engine_faulted")

# Spelled out rather than read off the dataclass: a field added later must
# not silently change the file.
COUNT_FIELDS = ("candidate_keys", "options_generated", "options_stamped",
                "keys_processed", "relax_scans", "relax_pruned", "relax_improved",
                "configured_chunks")


def installed_digest(configuration) -> str:
    """SHA-256 of ``key:index,index,…`` per installed option, in insertion order."""
    text = ";".join(f"{option.key}:{','.join(map(str, option.chunk_indices))}"
                    for option in configuration.options)
    return hashlib.sha256(text.encode()).hexdigest()


def record_entry(record, configuration) -> dict:
    """A record's counts, its value bits and the configuration it installed."""
    entry = {name: getattr(record, name) for name in COUNT_FIELDS}
    entry["configuration_value"] = record.configuration_value.hex()
    entry["installed"] = installed_digest(configuration)
    return entry


def run_seed(seed: int) -> list[dict]:
    """One entry per period: the record's counts, its value bits, the install."""
    store = ErasureCodedStore(default_topology(seed=seed))
    store.populate(object_count=OBJECTS, object_size=MEBIBYTE)
    node = AgarNode(REGION, store, cache_capacity_bytes=CACHE_BYTES)
    record_request = node.request_monitor.record_request
    periods = []
    for period in range(PERIODS):
        workload = zipfian_workload(SKEW, request_count=READS_PER_PERIOD,
                                    object_count=OBJECTS, seed=seed + period)
        for rank in generate_request_ranks(workload).tolist():
            record_request(workload.key_for_rank(rank))
        record = node.reconfigure(PERIOD_S * (period + 1))
        periods.append(record_entry(record, node.current_configuration))
    return periods


def engine_config(seed: int, faulted: bool = False) -> EngineConfig:
    """``bench/run.py --workload engine_clean`` (or ``engine_faulted``)'s deployment."""
    clients, reads, faults = (128, 110, {
        "faults": FaultSchedule([RegionOutage("sao_paulo", 20.0, 50.0)]),
        "client": ClientConfig(resilience=ResilienceConfig(
            retry_budget=1, timeout_factor=1.1, hedge=True, hedge_quantile=0.7,
            hedge_min_samples=8, emergency_reconfiguration=True)),
    }) if faulted else (256, 160, {})
    return EngineConfig(
        workload=WorkloadSpec(object_count=300, object_size=MEBIBYTE,
                              request_count=reads, seed=seed),
        regions=(RegionSpec("frankfurt", clients=clients),
                 RegionSpec("dublin", clients=clients)),
        cache_capacity_bytes=10 * MEBIBYTE, topology_seed=seed, **faults)


@contextmanager
def watching_reconfigurations():
    """Inside, every node logs each reconfiguration it runs: trigger, install.

    Wraps ``AgarNode``'s public ``reconfigure`` and ``emergency_reconfigure``
    on the class (an emergency re-solve runs through ``reconfigure`` too) and
    appends to the node's own ``reconfiguration_log`` list, so the log
    travels with the node out of whichever process ran its region.
    """
    reconfigure, emergency_reconfigure = AgarNode.reconfigure, AgarNode.emergency_reconfigure
    trigger = ["periodic"]

    def logged_reconfigure(node, now):
        record = reconfigure(node, now)
        node.__dict__.setdefault("reconfiguration_log", []).append(
            {"trigger": trigger[0], **record_entry(record, node.current_configuration)})
        return record

    def logged_emergency_reconfigure(node, now, down_regions):
        trigger[0] = "emergency"
        try:
            return emergency_reconfigure(node, now, down_regions)
        finally:
            trigger[0] = "periodic"

    AgarNode.reconfigure = logged_reconfigure
    AgarNode.emergency_reconfigure = logged_emergency_reconfigure
    try:
        yield
    finally:
        AgarNode.reconfigure = reconfigure
        AgarNode.emergency_reconfigure = emergency_reconfigure


def run_engine(seed: int, faulted: bool = False) -> dict:
    """One ``execute`` of a fresh ``engine_clean`` / ``engine_faulted`` deployment."""
    config = engine_config(seed, faulted)
    engine = EventEngine(config)
    latency = engine.topology.latency
    latency.reseed(config.topology_seed + seed)
    deployment = engine.build_deployment()
    with watching_reconfigurations():
        result = engine.execute(deployment, seed)
    regions = {}
    for strategy in deployment.strategies:
        stats = result.regions[strategy.client_region].stats
        cache = strategy.cache.stats
        region = regions[strategy.client_region] = {
            "full_hits": stats.full_hits,
            "partial_hits": stats.partial_hits,
            "misses": stats.misses,
            "cache_chunks_total": stats.cache_chunks_total,
            "backend_chunks_total": stats.backend_chunks_total,
            "cache_hits": cache.chunk_hits,
            "cache_misses": cache.chunk_misses,
            "cache_insertions": cache.insertions,
            "cache_evictions": cache.evictions,
            "requests_seen": strategy.node.request_monitor.requests_seen,
            "latencies": hashlib.sha256(
                stats.latencies_array().tobytes()).hexdigest(),
        }
        if faulted:
            region.update({
                "degraded_reads": stats.degraded_reads,
                "unavailable_reads": stats.unavailable_reads,
                "retries": stats.retries_total,
                "hedged_reads": stats.hedged_reads,
                "hedge_wins": stats.hedge_wins,
                "reconfigurations": getattr(strategy.node, "reconfiguration_log", []),
            })
    return {"regions": regions,
            "duration_s": result.duration_s.hex(),
            "next_draws": [latency.next_standard_normal().hex() for _ in range(4)]}


def build(edition: str) -> dict:
    if edition == "reconfig":
        return {f"seed{seed}": run_seed(seed) for seed in SEEDS}
    return {f"seed{seed}": run_engine(seed, edition == "engine_faulted") for seed in SEEDS}


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="regenerate the editions work_counts.json already has")
    args = parser.parse_args(argv)
    existing = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    engines = EDITIONS[1:]
    editions = {edition: existing[edition] for edition in engines if edition in existing}
    if "seed7" in existing:
        editions["reconfig"] = {name: existing[name] for name in existing
                                if name not in engines}
    todo = [edition for edition in EDITIONS if args.force or edition not in editions]
    if not todo:
        print(f"{GOLDEN_PATH} has every edition; pass --force to regenerate them",
              file=sys.stderr)
        return 2
    commit = _commit()
    for edition in todo:
        editions[edition] = {"generated_at_commit": commit, **build(edition)}
    reconfig = editions["reconfig"]
    # One period (or one engine seed) per line: a moved count shows as one
    # changed line.
    lines = [f' "generated_at_commit": {json.dumps(reconfig["generated_at_commit"])}']
    for name in sorted(set(reconfig) - {"generated_at_commit"}):
        periods = ",\n  ".join(json.dumps(entry, sort_keys=True, separators=(",", ":"))
                               for entry in reconfig[name])
        lines.append(f" {json.dumps(name)}: [\n  {periods}\n ]")
    for edition in engines:
        runs = ",\n  ".join(
            f"{json.dumps(name)}: "
            f"{json.dumps(editions[edition][name], sort_keys=True, separators=(',', ':'))}"
            for name in sorted(editions[edition]))
        lines.append(f' {json.dumps(edition)}: {{\n  {runs}\n }}')
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {', '.join(todo)} to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
