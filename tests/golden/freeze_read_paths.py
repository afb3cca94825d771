"""Freeze golden digests of the read path (strategies, engine, wire).

The digests pin *bit-identity across versions*: every ``ReadResult`` field,
the final cache contents and the jitter-stream position of seeded runs through
both strategy entry points (``read`` and ``read_indexed``), the chunk lists
the decision sink receives, two small ``EventEngine.execute`` runs and one
wire exchange with its ledger.  Only public API is driven, so the same script
runs unchanged on any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_read_paths.py

A scenario added to the tables below is frozen *at the parent commit, before
the change it is meant to pin* with ``--add-missing``: only the strategy
cases the file lacks are computed, every existing digest stays as committed,
and ``added_at_commit`` records where each late case was frozen.

``--force`` recomputes every digest and keeps the provenance of each entry
whose digests did not move (``generated_at_commit``, ``added_at_commit``);
an entry whose digests moved is stamped in ``regenerated_at_commit``, so a
deliberate change to some digests leaves the rest of the file's history as
it was (see :func:`merge_provenance`).

``tests/client/test_read_path_golden.py`` recomputes every digest and compares
it with the committed ``tests/golden/read_paths.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import subprocess
import sys
import zlib
from pathlib import Path

from repro.backend import ErasureCodedStore
from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig, make_strategy
from repro.erasure.chunk import ChunkId
from repro.geo import default_topology, table1_topology
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import ledger_to_lines
from repro.serve.protocol import hang_up, read_response
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import CLEAR_STATE, FaultSchedule, FaultState, RegionOutage
from repro.workload.workload import (
    WorkloadSpec,
    generate_request_ranks,
    zipfian_workload,
)

GOLDEN_PATH = Path(__file__).with_name("read_paths.json")

MEGABYTE = 1024 * 1024
REGION = "frankfurt"
STRATEGIES = ("backend", "lru-3", "lfu-online-3", "lfu-5", "agar")
ENTRIES = ("read", "read_indexed")

READS = 2000
OBJECTS = 50
STEP_S = 0.05          # 2,000 reads span 100 s: three piggybacked periods
FAULT_ON, TICK_AT, FAULT_OFF = 500, 1000, 1500

RESILIENCE = ResilienceConfig(retry_budget=1, timeout_factor=1.1, hedge=True,
                              hedge_quantile=0.7, hedge_min_samples=8)

# Spelled out rather than read off ``ReadResult.__slots__``: a field added
# later must not silently change every digest.
RESULT_FIELDS = ("key", "latency_ms", "hit_type", "chunks_from_cache",
                 "chunks_from_backend", "chunks_from_neighbors",
                 "backend_regions", "started_at_s", "degraded", "failed",
                 "retries", "hedged", "hedge_won")

#: scenario -> shape: the ``fault`` state installed for reads
#: [FAULT_ON, FAULT_OFF), ``resilient`` reads, the zero-jitter ``table1``
#: topology, a neighbour ``catalog`` kind with its ``sigma``.  ``sao_paulo`` sits inside frankfurt's nearest-k plan; two regions down
#: (four of twelve chunks) leaves fewer than k = 9 reachable.
SCENARIOS: dict[str, dict] = {
    "clean": {},
    "outage": {"fault": FaultState(down_backends=frozenset({"sao_paulo"}))},
    "brownout": {"fault": FaultState(brownouts=(("n_virginia", 3.0),))},
    "az_failure": {"fault": FaultState(down_caches=frozenset({REGION}))},
    "below_k": {"fault": FaultState(
        down_backends=frozenset({"sao_paulo", "n_virginia"}))},
    "outage_resilient": {
        "fault": FaultState(down_backends=frozenset({"sao_paulo"})),
        "resilient": True},
    "table1_zero_jitter": {"table1": True},
    "table1_outage": {
        "table1": True,
        "fault": FaultState(down_backends=frozenset({"sao_paulo"}))},
    # Added at 3e4f674 (--add-missing), before the resilient composer was
    # rewritten: a multiplier on every timeout and sample, and links that
    # draw nothing at all.
    "brownout_resilient": {
        "fault": FaultState(brownouts=(("n_virginia", 3.0),)),
        "resilient": True},
    "table1_resilient": {"table1": True, "resilient": True},
}
#: §VI neighbour catalogs only exist on Agar deployments.
AGAR_SCENARIOS: dict[str, dict] = {
    "neighbor_flat_sigma0": {"catalog": "flat", "sigma": 0.0},
    "neighbor_flat_sigma": {"catalog": "flat", "sigma": 0.06},
    "neighbor_map_sigma0": {
        "catalog": "map", "sigma": 0.0,
        "fault": FaultState(down_backends=frozenset({"tokyo"}),
                            down_caches=frozenset({"tokyo"}))},
    "neighbor_map_sigma": {
        "catalog": "map", "sigma": 0.06,
        "fault": FaultState(down_backends=frozenset({"tokyo"}),
                            down_caches=frozenset({"tokyo"}))},
    "neighbor_resilient": {
        "catalog": "map", "sigma": 0.06, "resilient": True,
        "fault": FaultState(down_backends=frozenset({"sao_paulo"}))},
}


def cases() -> list[tuple[str, str]]:
    """Every (strategy, scenario) pair the golden file covers."""
    out = [(strategy, scenario) for strategy in STRATEGIES
           for scenario in SCENARIOS]
    out += [("agar", scenario) for scenario in AGAR_SCENARIOS]
    return out


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _catalog(store: ErasureCodedStore, keys: list[str], kind: str):
    """Every chunk of the even-ranked hot keys, flat or split by owner."""
    chunk_ids = [ChunkId(key=key, index=index)
                 for key in keys[:20:2]
                 for indices in store.chunks_by_region(key).values()
                 for index in indices]
    if kind == "flat":
        return frozenset(chunk_ids)
    return {"dublin": frozenset(chunk_ids[0::2]),
            "tokyo": frozenset(chunk_ids[1::2])}


def strategy_digests(strategy_name: str, scenario: str, entry: str,
                     ) -> tuple[str, str]:
    """``(results digest, sink digest)`` of one seeded strategy run."""
    shape = {**SCENARIOS, **AGAR_SCENARIOS}[scenario]
    topology = (table1_topology(seed=3) if shape.get("table1")
                else default_topology(seed=3))
    store = ErasureCodedStore(topology)
    store.populate(object_count=OBJECTS, object_size=MEGABYTE)
    client = ClientConfig(
        resilience=RESILIENCE if shape.get("resilient") else None)
    strategy = make_strategy(strategy_name, store, REGION, 5 * MEGABYTE,
                             client_config=client)
    workload = zipfian_workload(1.1, request_count=READS,
                                object_count=OBJECTS, seed=11)
    keys = [workload.key_for_rank(rank) for rank in range(OBJECTS)]
    ranks = generate_request_ranks(workload).tolist()
    if "catalog" in shape:
        strategy.set_neighbor_catalog(
            _catalog(store, keys, shape["catalog"]), 120.0, shape["sigma"])

    sink_hash = hashlib.sha256()

    # The digest covers the cache and backend lists; the neighbour list
    # defaults so that the script also runs where the sink had three
    # arguments.
    def sink(result, cache_chunks, backend_chunks, neighbor_chunks=()) -> None:
        sink_hash.update((
            ",".join(str(placed.index) for placed in cache_chunks) + "|"
            + ",".join(str(placed.index) for placed in backend_chunks) + "\n"
        ).encode())

    strategy.set_decision_sink(sink)
    if entry == "read_indexed":
        strategy.prepare_indexed_reads(keys)
    fault = shape.get("fault")
    results_hash = hashlib.sha256()
    for position, rank in enumerate(ranks):
        now = position * STEP_S
        if fault is not None and position in (FAULT_ON, FAULT_OFF):
            strategy.set_fault_state(
                fault if position == FAULT_ON else CLEAR_STATE)
            strategy.react_to_fault(now)
        if position == TICK_AT:
            strategy.tick(now)
        if entry == "read":
            result = strategy.read(keys[rank], now)
        else:
            result = strategy.read_indexed(rank, now)
        results_hash.update(("|".join(
            _text(getattr(result, field)) for field in RESULT_FIELDS
        ) + "\n").encode())
    snapshot = strategy.cache_snapshot()
    if snapshot is not None:
        results_hash.update(repr((snapshot.capacity_bytes, snapshot.used_bytes,
                                  sorted(snapshot.chunks_per_key.items()))
                                 ).encode())
    # The next draws pin the stream position the run left behind.
    results_hash.update(repr(topology.latency.take_standard_normals(5)).encode())
    return results_hash.hexdigest(), sink_hash.hexdigest()


def engine_digest(faulted: bool) -> str:
    """One small kept ``EventEngine.execute`` run, clean or faulted+hedged."""
    config = EngineConfig(
        workload=zipfian_workload(1.1, request_count=150, object_count=30,
                                  seed=11),
        regions=(RegionSpec(REGION, clients=3),
                 RegionSpec("sydney", clients=3, strategy="lfu-5"),
                 RegionSpec("dublin", clients=2, strategy="backend")),
        cache_capacity_bytes=5 * MEGABYTE,
        client=ClientConfig(resilience=RESILIENCE if faulted else None),
        faults=(FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0)])
                if faulted else None),
    )
    engine = EventEngine(config, keep_results=True)
    engine.topology.latency.reseed(config.topology_seed + 3)
    deployment = engine.build_deployment()
    digest = hashlib.sha256()
    for seed in (3, 4):            # second run hits the warm deployment
        outcome = engine.execute(deployment, seed)
        digest.update(repr(outcome.duration_s).encode())
        for region in sorted(outcome.regions):
            run = outcome.regions[region]
            for result in run.results:
                digest.update(("|".join(
                    _text(getattr(result, field)) for field in RESULT_FIELDS
                ) + "\n").encode())
            digest.update(run.stats.latencies_array().tobytes())
            snapshot = run.cache_snapshot
            if snapshot is not None:
                digest.update(repr(sorted(snapshot.chunks_per_key.items())).encode())
    return digest.hexdigest()


async def _wire_exchange() -> str:
    config = EngineConfig(
        workload=WorkloadSpec(object_count=24, object_size=32 * 1024,
                              request_count=512, seed=7),
        regions=[RegionSpec(region=REGION, clients=1, strategy="agar")],
        cache_capacity_bytes=MEGABYTE,
    )
    ranks = generate_request_ranks(config.workload).tolist()
    body = bytes(range(256)) * 128      # a new 32 KiB object, PUT mid-stream
    requests = []
    for position, rank in enumerate(ranks):
        at = position * 0.25
        if position == 200:
            requests.append((f"PUT /objects/fresh-0 HTTP/1.1\r\nHost: g\r\n"
                             f"Content-Length: {len(body)}\r\n\r\n").encode()
                            + body)
        key = "fresh-0" if position in (201, 300, 301) else \
            config.workload.key_for_rank(rank)
        requests.append((f"GET /objects/{key} HTTP/1.1\r\nHost: g\r\n"
                         f"X-Replay-At: {at!r}\r\n\r\n").encode())
    cluster = ServeCluster.from_config(config, payloads=True)
    await cluster.start()
    try:
        reader, writer = await asyncio.open_connection(
            *cluster.addresses[REGION])

        async def send() -> None:
            # Concurrent with the reads below: 16 MB of pipelined responses
            # would otherwise fill both socket buffers and deadlock.
            for request in requests:
                writer.write(request)
                await writer.drain()

        sender = asyncio.ensure_future(send())
        buffer = bytearray()
        digest = hashlib.sha256()
        for _ in requests:
            status, headers, payload = await read_response(reader, buffer)
            digest.update(repr((status, sorted(
                (name, value) for name, value in headers.items()
                if name.startswith("x-agar-")), zlib.crc32(payload))).encode())
        await sender
        await hang_up(writer)
        digest.update(ledger_to_lines(cluster.gateways[REGION].ledger).encode())
        return digest.hexdigest()
    finally:
        await cluster.stop()


def wire_digest() -> str:
    """512 pipelined GETs (+ one PUT of a new key) and the gateway's ledger."""
    return asyncio.run(_wire_exchange())


def strategy_case(strategy: str, scenario: str) -> dict[str, str]:
    """The three digests the file keeps per (strategy, scenario) case."""
    entry_digests = {}
    for entry in ENTRIES:
        results, sink = strategy_digests(strategy, scenario, entry)
        entry_digests[entry] = results
        if entry == "read":
            entry_digests["sink"] = sink
    return entry_digests


def build() -> dict:
    golden: dict = {"strategies": {}}
    for strategy, scenario in cases():
        golden["strategies"][f"{strategy}/{scenario}"] = strategy_case(
            strategy, scenario)
    golden["engine"] = {"clean": engine_digest(False),
                        "faulted_hedged": engine_digest(True)}
    golden["wire"] = {"agar_512": wire_digest()}
    return golden


def _head_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _write(golden: dict) -> None:
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _entries(golden: dict) -> dict[str, object]:
    """Every entry of a golden by its provenance key: a strategy case by its
    name, an engine or wire digest as ``section/name``."""
    entries = dict(golden.get("strategies", {}))
    for section in ("engine", "wire"):
        entries.update({f"{section}/{name}": digest
                        for name, digest in golden.get(section, {}).items()})
    return entries


def merge_provenance(old: dict, new: dict, commit: str) -> dict:
    """``new``'s digests under ``old``'s provenance, restamped where they moved.

    ``generated_at_commit`` and the ``added_at_commit`` and
    ``regenerated_at_commit`` stamps of every entry still built are kept;
    an entry whose digests moved is stamped ``regenerated_at_commit[key] =
    commit``, an entry ``old`` lacks ``added_at_commit[key] = commit``.
    """
    before, after = _entries(old), _entries(new)
    stamps = {field: {key: stamp for key, stamp in old.get(field, {}).items()
                      if key in after}
              for field in ("added_at_commit", "regenerated_at_commit")}
    for key, digests in after.items():
        if key not in before:
            stamps["added_at_commit"][key] = commit
        elif before[key] != digests:
            stamps["regenerated_at_commit"][key] = commit
    merged = dict(new, generated_at_commit=old.get("generated_at_commit", commit))
    merged.update({field: stamped for field, stamped in stamps.items() if stamped})
    return merged


def add_missing() -> int:
    """Freeze the strategy cases the file lacks; keep every digest it has."""
    golden = json.loads(GOLDEN_PATH.read_text())
    missing = [(strategy, scenario) for strategy, scenario in cases()
               if f"{strategy}/{scenario}" not in golden["strategies"]]
    if not missing:
        print(f"{GOLDEN_PATH} already covers every case", file=sys.stderr)
        return 2
    commit = _head_commit()
    added = golden.setdefault("added_at_commit", {})
    for strategy, scenario in missing:
        case = f"{strategy}/{scenario}"
        golden["strategies"][case] = strategy_case(strategy, scenario)
        added[case] = commit
    _write(golden)
    print(f"added {len(missing)} strategy cases to {GOLDEN_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--force", action="store_true",
                      help="overwrite an existing read_paths.json")
    mode.add_argument("--add-missing", action="store_true",
                      help="freeze only the strategy cases the file lacks")
    args = parser.parse_args(argv)
    if args.add_missing:
        return add_missing()
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it",
              file=sys.stderr)
        return 2
    golden = build()
    commit = _head_commit()
    if GOLDEN_PATH.exists():
        golden = merge_provenance(json.loads(GOLDEN_PATH.read_text()), golden, commit)
    else:
        golden["generated_at_commit"] = commit
    _write(golden)
    print(f"wrote {GOLDEN_PATH} ({len(golden['strategies'])} strategy cases, "
          f"{len(golden.get('regenerated_at_commit', {}))} restamped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
