"""Freeze the exact work counts of the ``reconfig`` workload's reconfigurations.

A timer can only see a regression of about twice its run-to-run spread; the
work a reconfiguration does is exact for a seed.  This script drives the
shape of ``bench/run.py --workload reconfig`` — one frankfurt Agar node,
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
configuration's chunk ids in insertion order.  Seeds 7 and 101.  Only public
API is driven, so the same script runs unchanged on any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_work_counts.py

``tests/core/test_work_counts_golden.py`` replays both seeds and compares
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
from repro.workload.workload import generate_request_ranks, zipfian_workload

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


def build() -> dict:
    return {f"seed{seed}": run_seed(seed) for seed in SEEDS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing work_counts.json")
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
    # One period per line: a moved count shows as one changed line.
    lines = [f' "generated_at_commit": {json.dumps(commit)}']
    for name in sorted(golden):
        periods = ",\n  ".join(json.dumps(entry, sort_keys=True, separators=(",", ":"))
                               for entry in golden[name])
        lines.append(f" {json.dumps(name)}: [\n  {periods}\n ]")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({sum(map(len, golden.values()))} periods)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
