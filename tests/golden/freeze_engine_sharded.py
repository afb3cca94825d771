"""Freeze golden digests of ``EventEngine.execute_sharded``.

The equivalence suite pins sharded runs fork ≡ in-process and run ≡ rerun —
two executions of the *same* code.  This file pins them across versions: for
five deployment shapes (mixed agar / lfu-5 / backend regions; an outage plus a
brownout; Poisson open loop; hedged and retried reads under an outage; §VI
collaboration) it runs ``execute_sharded(deployment, seed)`` twice against one cold
parent deployment with ``keep_results=True`` and records, per run, a SHA-256
over the run's ``repr(duration_s)`` and, per region, the name,
``repr(duration_s)``, the bytes of ``stats.latencies_array()``, the sorted
``stats.summary()``, the cache snapshot's sorted ``chunks_per_key``, the
``repr`` of every kept ``ReadResult`` and — on collaborative shapes — the
parent coordinator's ``latest_overlap()``.  Only public API is driven, so the
same script runs unchanged on any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_engine_sharded.py

``tests/sim/test_engine_sharded_golden.py`` replays every shape through the
in-process transport (``processes=False``) and through forked workers and
compares both with the committed ``tests/golden/engine_sharded.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import BackendBrownout, FaultSchedule, RegionOutage
from repro.workload.workload import poisson_arrivals, zipfian_workload

GOLDEN_PATH = Path(__file__).with_name("engine_sharded.json")

MEGABYTE = 1024 * 1024
SEED = 5
RUNS = 2


def _config(regions, requests=80, **overrides) -> EngineConfig:
    return EngineConfig(
        workload=zipfian_workload(1.1, request_count=requests, object_count=30,
                                  seed=11),
        regions=regions,
        cache_capacity_bytes=5 * MEGABYTE,
        **overrides,
    )


def shapes() -> dict[str, EngineConfig]:
    """Every deployment shape the file covers, by name."""
    return {
        "mixed_strategies": _config(
            (RegionSpec("frankfurt", clients=4),
             RegionSpec("sydney", clients=4, strategy="lfu-5"),
             RegionSpec("tokyo", clients=3, strategy="backend"))),
        "outage_and_brownout": _config(
            (RegionSpec("frankfurt", clients=4),
             RegionSpec("dublin", clients=4, strategy="lfu-5")),
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0),
                                  BackendBrownout("tokyo", 15.0, 50.0)])),
        "poisson_open_loop": _config(
            (RegionSpec("frankfurt", clients=3),
             RegionSpec("sydney", clients=3)),
            arrival=poisson_arrivals(4.0)),
        "hedged_retried_outage": _config(
            (RegionSpec("frankfurt", clients=2),
             RegionSpec("dublin", clients=2, strategy="lfu-5")),
            requests=120,
            client=ClientConfig(resilience=ResilienceConfig(
                retry_budget=2, timeout_factor=1.05, backoff_base_ms=4.0,
                hedge=True, hedge_quantile=0.7, hedge_min_samples=8)),
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0)])),
        "collaborative": _config(
            (RegionSpec("frankfurt", clients=4),
             RegionSpec("sydney", clients=4)),
            requests=120, collaboration=True),
    }


def run_digest(result, deployment) -> str:
    """SHA-256 over everything one sharded run reports."""
    digest = hashlib.sha256(repr(result.duration_s).encode())
    for name, region in result.regions.items():
        snapshot = region.cache_snapshot
        for part in (
            name,
            repr(region.duration_s),
            region.stats.latencies_array().tobytes(),
            repr(sorted(region.stats.summary().items())),
            repr(None if snapshot is None else sorted(snapshot.chunks_per_key.items())),
            "\n".join(repr(read) for read in region.results),
        ):
            digest.update(part if isinstance(part, bytes) else part.encode())
            digest.update(b"\0")
    if deployment.coordinator is not None:
        digest.update(repr(sorted(deployment.coordinator.latest_overlap().items())).encode())
    return digest.hexdigest()


def run_case(name: str, processes: bool | None = None) -> dict:
    """``RUNS`` consecutive sharded runs of shape ``name`` on one cold parent."""
    config = shapes()[name]
    engine = EventEngine(config, keep_results=True)
    engine.topology.latency.reseed(config.topology_seed + SEED)
    deployment = engine.build_deployment()
    digests, requests = [], 0
    for _ in range(RUNS):
        result = engine.execute_sharded(deployment, SEED, processes=processes)
        digests.append(run_digest(result, deployment))
        requests = result.total_requests
    return {"requests": requests, "runs": digests}


def build() -> dict:
    return {name: run_case(name) for name in shapes()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing engine_sharded.json")
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
