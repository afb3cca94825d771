"""Freeze golden caching options (what ``CacheManager.generate_options`` returns).

``reconfig.json`` pins what the knapsack *decides*, and the DP reaches only
the head of the popularity ranking — about one candidate key in twenty.  This
file pins the options themselves: every field of every option of every
candidate key, floats as ``float.hex``, keys in the order the mapping yields
them.  Per key it keeps the option count and the first 64 bits of a SHA-256
over the option rows (the rows themselves would be a megabyte; a mismatch
names the key, and the rows to compare are one ``options_of`` call away on
either commit).  The cases cross three seeds with the three placements of
``freeze_reconfig.py`` (the paper's round-robin, the per-key-offset spread,
the explicit placement whose keys have differently shaped ladders) and two
views of the topology (healthy, ``sao_paulo`` down), after two popularity
periods so that the EWMA popularities are not small integers.  The mapping is
materialised in full — ``dict(table.items())`` — so an implementation that
stamps options lazily is pinned on the keys nothing else ever touches.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_options.py

``tests/core/test_options_golden.py`` recomputes every case and compares it
with the committed ``tests/golden/options.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("options.json")

# The deployment, placements and period feed are the reconfiguration golden's.
_spec = importlib.util.spec_from_file_location(
    "freeze_reconfig", Path(__file__).with_name("freeze_reconfig.py"))
reconfig = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reconfig)

CONDITIONS = ("healthy", "sao_paulo_down")

# Spelled out rather than read off the dataclass: a field added later must
# not silently change every golden entry.
OPTION_FIELDS = ("key", "chunk_indices", "weight", "latency_improvement_ms",
                 "marginal_improvement_ms", "popularity", "residual_latency_ms")


def cases() -> list[tuple]:
    """Every (seed, placement, condition) the file covers."""
    return list(product(reconfig.SEEDS, reconfig.PLACEMENTS, CONDITIONS))


def case_name(seed, placement, condition) -> str:
    return f"seed{seed}/{placement}/{condition}"


def row_of(option) -> list:
    """One option, JSON-safe: floats as hex, the index tuple as a list."""
    values = (getattr(option, name) for name in OPTION_FIELDS)
    return [value.hex() if isinstance(value, float) else
            list(value) if isinstance(value, tuple) else value
            for value in values]


def options_of(seed, placement, condition) -> dict:
    """The full options mapping of one case, materialised."""
    node = reconfig.build_node(seed, placement, True, 25)
    for period in (0, 1):
        reconfig.feed_period(node, seed, period)
        popularity = node.request_monitor.end_period()
    if condition == "sao_paulo_down":
        node.region_manager.set_down_regions(frozenset({"sao_paulo"}))
    return dict(node.cache_manager.generate_options(popularity).items())


def run_case(seed, placement, condition) -> list:
    """``[[key, option count, digest of the option rows], …]`` in key order."""
    return [[key, len(options), hashlib.sha256(json.dumps(
                [row_of(option) for option in options]).encode()).hexdigest()[:16]]
            for key, options in options_of(seed, placement, condition).items()]


def build() -> dict:
    return {case_name(*case): run_case(*case) for case in cases()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing options.json")
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
    # One key per line: the file stays diffable without one line per number.
    lines = [f' "generated_at_commit": {json.dumps(commit)}']
    for name in sorted(golden):
        rows = ",\n".join(f"  {json.dumps(entry, separators=(',', ':'))}"
                          for entry in golden[name])
        lines.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    options = sum(count for case in golden.values() for _, count, _ in case)
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases, {options} options)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
