"""Freeze golden outcomes of the reconfiguration path (options → knapsack → install).

Every case drives one Agar node through two popularity periods and records,
per period, every ``ReconfigurationRecord`` field, the installed
``(key, weight)`` list in insertion order and ``float.hex`` of the winning
configuration's value.  The cases cross three seeds with three placements
(the paper's round-robin, the per-key-offset spread, and an explicit
placement whose per-key region sets differ so that the Fig. 5 relaxation
*does* improve states), three conditions before the second period (healthy,
``sao_paulo`` down, options discounted by a neighbour's announcement) and
every solver setting (``use_relax`` on/off × ``stop_after_extra_keys``
None/0/25).  Only public API is driven, so the same script runs unchanged on
any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_reconfig.py

``tests/core/test_reconfig_golden.py`` recomputes every case and compares it
with the committed ``tests/golden/reconfig.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

from repro.backend import ErasureCodedStore
from repro.backend.placement import (
    ExplicitPlacement,
    RoundRobinPlacement,
    SpreadPlacement,
)
from repro.core.agar_node import AgarNode, AgarNodeConfig
from repro.core.cache_manager import CacheManagerConfig
from repro.core.knapsack import KnapsackSolver, configuration_summary
from repro.erasure.chunk import ChunkId
from repro.extensions.collaboration import NeighborAnnouncement, discount_options
from repro.geo import default_topology
from repro.workload.workload import generate_request_ranks, zipfian_workload

GOLDEN_PATH = Path(__file__).with_name("reconfig.json")

MEGABYTE = 1024 * 1024
REGION = "frankfurt"
OBJECTS = 96
CACHE_BYTES = 5 * MEGABYTE          # 45 chunks of a 1 MB object's 9
READS_PER_PERIOD = 1500
NEIGHBOR_READ_MS = 120.0

SEEDS = (3, 7, 11)
PLACEMENTS = ("round_robin", "spread", "explicit")
CONDITIONS = ("healthy", "sao_paulo_down", "collab")
RELAX = (True, False)
STOPS = (None, 0, 25)

# Spelled out rather than read off the dataclass: a field added later must
# not silently change every golden entry.
RECORD_FIELDS = ("period_index", "candidate_keys", "options_generated",
                 "configured_objects", "configured_chunks",
                 "configuration_value", "keys_processed", "stopped_early",
                 "chunk_histogram")

#: Chunks per region (twelve in all) of the explicit placement's key shapes.
#: Their option ladders have different weights — {1,3,5,7,9}, {1,5,9},
#: {2,3,5,…} — so a shrunk replacement of exactly the freed weight exists and
#: relaxation improves states, which it never does when every key shares one
#: ladder.
_SHAPES = ((2, 2, 2, 2, 2, 2), (4, 4, 4, 0, 0, 0), (1, 1, 2, 2, 3, 3),
           (3, 3, 3, 3, 0, 0), (6, 6, 0, 0, 0, 0), (1, 2, 3, 1, 2, 3))


def cases() -> list[tuple]:
    """Every (seed, placement, condition, use_relax, stop) the file covers."""
    return list(product(SEEDS, PLACEMENTS, CONDITIONS, RELAX, STOPS))


def case_name(seed, placement, condition, use_relax, stop) -> str:
    return (f"seed{seed}/{placement}/{condition}/"
            f"{'relax' if use_relax else 'norelax'}/stop{stop}")


def _explicit_placement(keys: list[str], regions: list[str], seed: int):
    assignments = {}
    for position, key in enumerate(keys):
        shape = _SHAPES[(position * 7 + seed) % len(_SHAPES)]
        turn = (position * 5 + seed) % len(regions)
        rotated = regions[turn:] + regions[:turn]
        hosts = [region for region, count in zip(rotated, shape)
                 for _ in range(count)]
        assignments[key] = dict(enumerate(hosts))
    return ExplicitPlacement(assignments)


def build_node(seed: int, placement: str, use_relax: bool, stop) -> AgarNode:
    """A populated store and its frankfurt node under one solver setting."""
    topology = default_topology(seed=seed)
    keys = [f"object-{index}" for index in range(OBJECTS)]
    policy = {"round_robin": RoundRobinPlacement, "spread": SpreadPlacement,
              "explicit": lambda: _explicit_placement(
                  keys, topology.region_names, seed)}[placement]()
    store = ErasureCodedStore(topology, placement=policy)
    store.populate(object_count=OBJECTS, object_size=MEGABYTE)
    config = AgarNodeConfig(manager=CacheManagerConfig(
        use_relax=use_relax, stop_after_extra_keys=stop))
    return AgarNode(REGION, store, CACHE_BYTES, config=config)


def feed_period(node: AgarNode, seed: int, period: int) -> None:
    """One period's Zipf 1.1 reads, recorded by the request monitor."""
    workload = zipfian_workload(1.1, request_count=READS_PER_PERIOD,
                                object_count=OBJECTS, seed=seed + 100 * period)
    for rank in generate_request_ranks(workload).tolist():
        node.request_monitor.record_request(workload.key_for_rank(rank))


def neighbour_of(node: AgarNode) -> NeighborAnnouncement:
    """A dublin cache pinning every other object the node itself configured."""
    configured = node.current_configuration.options[0::2]
    return NeighborAnnouncement(region="dublin", pinned_chunks=frozenset(
        ChunkId(key=option.key, index=index)
        for option in configured for index in option.chunk_indices))


def entry_of(record: dict, best) -> dict:
    """One period's golden entry: JSON-safe record, installed list, value bits."""
    record = dict(record, configuration_value=record["configuration_value"].hex(),
                  chunk_histogram=sorted(record["chunk_histogram"].items()))
    return {"record": record,
            "installed": [[option.key, option.weight] for option in best.options],
            "best_value": best.value.hex()}


def recorded_period(node: AgarNode, now: float) -> dict:
    """``AgarNode.reconfigure`` and the record it appended."""
    record = node.reconfigure(now)
    return entry_of({name: getattr(record, name) for name in RECORD_FIELDS},
                    node.current_configuration)


def discounted_period(node: AgarNode, neighbours, use_relax: bool, stop) -> dict:
    """A §VI round spelled out from its public pieces, under the case's settings."""
    manager = node.cache_manager
    popularity = node.request_monitor.end_period()
    options = discount_options(manager.generate_options(popularity),
                               neighbours, NEIGHBOR_READ_MS)
    result = KnapsackSolver(manager.capacity_chunks, use_relax=use_relax,
                            stop_after_extra_keys=stop).solve(options)
    manager.install(result.best)
    return entry_of({
        "period_index": 1,
        "candidate_keys": len(options),
        "options_generated": sum(len(ladder) for ladder in options.values()),
        "configured_objects": len(result.best),
        "configured_chunks": result.best.weight,
        "configuration_value": result.best.value,
        "keys_processed": result.keys_processed,
        "stopped_early": result.stopped_early,
        "chunk_histogram": configuration_summary(result.best),
    }, result.best)


def run_case(seed, placement, condition, use_relax, stop) -> list[dict]:
    """The two periods of one case: a healthy one, then one under ``condition``."""
    node = build_node(seed, placement, use_relax, stop)
    feed_period(node, seed, 0)
    periods = [recorded_period(node, 30.0)]
    neighbours = [neighbour_of(node)]
    feed_period(node, seed, 1)
    if condition == "collab":
        periods.append(discounted_period(node, neighbours, use_relax, stop))
    else:
        if condition == "sao_paulo_down":
            node.region_manager.set_down_regions(frozenset({"sao_paulo"}))
        periods.append(recorded_period(node, 60.0))
    return periods


def build() -> dict:
    return {case_name(*case): run_case(*case) for case in cases()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing reconfig.json")
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
    # One case per line: the file stays diffable without one line per number.
    lines = [f' "generated_at_commit": {json.dumps(commit)}']
    lines += [f" {json.dumps(name)}: "
              f"{json.dumps(golden[name], sort_keys=True, separators=(',', ':'))}"
              for name in sorted(golden)]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
