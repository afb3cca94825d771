#!/usr/bin/env python3
"""Serving-tier tour: a live gateway, wire load, and a verified replay.

Three stops, all on loopback sockets with ephemeral ports:

1. deploy a one-region :class:`~repro.serve.gateway.ServeCluster`, PUT an
   object over the wire and GET it back, showing the strategy decision the
   gateway reports in its ``X-Agar-*`` headers;
2. drive the cluster with the wire load generator and print the measured
   p50/p95/p99 table next to the simulated table for the same workload;
3. run the seeded event engine on the identical configuration, replay its
   trace through a fresh cluster, and diff the decision ledgers — they must
   be bit-identical (the PR 9 equivalence oracle).

Run with:  PYTHONPATH=src python examples/serve_demo.py
"""

from __future__ import annotations

import asyncio

from repro.analysis.report import Table
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import diff_ledgers
from repro.serve.loadgen import WireLoadSpec, run_wire_load, wire_report_table
from repro.serve.protocol import exchange, parse_response, render_request
from repro.serve.replay import replay_trace
from repro.serve.trace import run_and_trace
from repro.sim.engine import EngineConfig, EngineResult, RegionSpec
from repro.workload.workload import WorkloadSpec

MEGABYTE = 1024 * 1024
SEED = 11

CONFIG = EngineConfig(
    workload=WorkloadSpec(object_count=50, object_size=32 * 1024,
                          request_count=400, seed=SEED),
    # Online LRU caches on the read path, so the free-running wire load shows
    # hits without a tick driver (the Agar optimiser reconfigures on a
    # simulated-clock period, which wall-clock wire traffic barely advances).
    regions=[RegionSpec(region="frankfurt", clients=1, strategy="lru-3"),
             RegionSpec(region="dublin", clients=1, strategy="lru-3")],
    cache_capacity_bytes=MEGABYTE,
    topology_seed=SEED,
)


async def http(address: tuple[str, int], request: bytes,
               ) -> tuple[int, dict, bytes]:
    parsed = parse_response(await exchange(address, request))
    assert parsed is not None, "gateway sent no parseable response"
    return parsed[0]


async def put_and_get(cluster: ServeCluster) -> None:
    address = cluster.addresses["frankfurt"]
    body = b"breaking-news " * 64
    put = render_request("PUT", "/objects/demo-article", "demo", body=body)
    status, _, _ = await http(address, put)
    print(f"PUT /objects/demo-article           -> {status}")

    get = render_request("GET", "/objects/demo-article", "demo")
    for attempt in ("first read (cold)", "second read    "):
        status, headers, payload = await http(address, get)
        decision = {name: value for name, value in headers.items()
                    if name.startswith("x-agar-")}
        print(f"GET  /objects/demo-article {attempt:>15s} -> {status}, "
              f"{len(payload)} bytes, {decision}")
        assert payload == body


def simulated_table(result: EngineResult) -> Table:
    table = Table(title="Simulated latency (same workload, event engine)",
                  columns=["region", "requests", "mean ms", "p50 ms",
                           "p95 ms", "p99 ms", "hit %"])
    for region, run in result.regions.items():
        stats = run.stats
        table.add_row(region, stats.count, stats.mean_latency_ms,
                      stats.p50_latency_ms, stats.p95_latency_ms,
                      stats.p99_latency_ms, stats.hit_ratio * 100.0)
    return table


async def wire_load(cluster: ServeCluster) -> None:
    spec = WireLoadSpec(workload=CONFIG.workload, connections=2,
                        pipeline_depth=16)
    results = await run_wire_load(cluster.addresses, spec, seed=SEED)
    print(wire_report_table(results).render())


async def main() -> None:
    print("== 1. one PUT and two GETs over the wire ==")
    async with ServeCluster.from_config(CONFIG, seed=SEED,
                                        payloads=True) as cluster:
        await put_and_get(cluster)

        print("\n== 2. measured wire load vs the simulated run ==")
        await wire_load(cluster)

    result, trace, expected = run_and_trace(CONFIG, seed=SEED)
    print(simulated_table(result).render())
    print("(wire latencies are loopback wall-clock; simulated latencies are "
          "modeled geo RTTs — decisions, not latencies, are comparable)")

    print("\n== 3. replaying the simulated trace through fresh gateways ==")
    async with ServeCluster.from_config(CONFIG, seed=SEED) as fresh:
        live = await replay_trace(fresh.addresses, trace)
    for region in sorted(expected):
        divergence = diff_ledgers(expected[region], live[region])
        verdict = "bit-identical" if divergence is None else divergence
        print(f"{region}: {len(expected[region])} ledger entries replayed "
              f"over the wire -> {verdict}")
        assert divergence is None


if __name__ == "__main__":
    asyncio.run(main())
