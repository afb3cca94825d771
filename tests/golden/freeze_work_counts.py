"""Freeze the exact work counts of two end-to-end benchmark shapes.

A timer can only see a regression of about twice its run-to-run spread; the
work a run does is exact for a seed.  The file holds two editions.

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
from pathlib import Path

from repro.backend import ErasureCodedStore
from repro.core.agar_node import AgarNode
from repro.geo import default_topology
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
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
EDITIONS = ("reconfig", "engine_clean")

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
        entry = {name: getattr(record, name) for name in COUNT_FIELDS}
        entry["configuration_value"] = record.configuration_value.hex()
        entry["installed"] = installed_digest(node.current_configuration)
        periods.append(entry)
    return periods


def engine_clean_config(seed: int) -> EngineConfig:
    """``bench/run.py --workload engine_clean``'s deployment for ``seed``."""
    return EngineConfig(
        workload=WorkloadSpec(object_count=300, object_size=MEBIBYTE,
                              request_count=160, seed=seed),
        regions=(RegionSpec("frankfurt", clients=256),
                 RegionSpec("dublin", clients=256)),
        cache_capacity_bytes=10 * MEBIBYTE, topology_seed=seed)


def run_engine_clean(seed: int) -> dict:
    """One ``execute`` of a fresh ``engine_clean`` deployment: what it did."""
    config = engine_clean_config(seed)
    engine = EventEngine(config)
    latency = engine.topology.latency
    latency.reseed(config.topology_seed + seed)
    deployment = engine.build_deployment()
    result = engine.execute(deployment, seed)
    regions = {}
    for strategy in deployment.strategies:
        stats = result.regions[strategy.client_region].stats
        cache = strategy.cache.stats
        regions[strategy.client_region] = {
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
    return {"regions": regions,
            "duration_s": result.duration_s.hex(),
            "next_draws": [latency.next_standard_normal().hex() for _ in range(4)]}


def build(edition: str) -> dict:
    if edition == "engine_clean":
        return {f"seed{seed}": run_engine_clean(seed) for seed in SEEDS}
    return {f"seed{seed}": run_seed(seed) for seed in SEEDS}


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
    have = {"reconfig": "seed7" in existing, "engine_clean": "engine_clean" in existing}
    todo = [edition for edition in EDITIONS if args.force or not have[edition]]
    if not todo:
        print(f"{GOLDEN_PATH} has every edition; pass --force to regenerate them",
              file=sys.stderr)
        return 2
    commit = _commit()
    reconfig = ({"generated_at_commit": commit, **build("reconfig")}
                if "reconfig" in todo else
                {name: existing[name] for name in existing if name != "engine_clean"})
    engine_clean = ({"generated_at_commit": commit, **build("engine_clean")}
                    if "engine_clean" in todo else existing["engine_clean"])
    # One period (or one engine seed) per line: a moved count shows as one
    # changed line.
    lines = [f' "generated_at_commit": {json.dumps(reconfig["generated_at_commit"])}']
    for name in sorted(set(reconfig) - {"generated_at_commit"}):
        periods = ",\n  ".join(json.dumps(entry, sort_keys=True, separators=(",", ":"))
                               for entry in reconfig[name])
        lines.append(f" {json.dumps(name)}: [\n  {periods}\n ]")
    runs = ",\n  ".join(f"{json.dumps(name)}: "
                        f"{json.dumps(engine_clean[name], sort_keys=True, separators=(',', ':'))}"
                        for name in sorted(engine_clean))
    lines.append(f' "engine_clean": {{\n  {runs}\n }}')
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {', '.join(todo)} to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
