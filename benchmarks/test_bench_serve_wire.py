"""Benchmark of the serving tier's wire path (PR 9 acceptance scenario).

One region gateway serving real erasure-coded payloads over loopback
sockets, driven by the closed-loop wire load generator — client and server
share one process and one core, so the measured rate is a conservative
bound on what the gateway alone sustains.

``run_bench.py`` enables gated mode (``AGAR_BENCH_GATED=1``) for full and
``--compare`` runs: 16,384 requests with the >= 10,000 req/s acceptance
floor asserted.  Smoke mode and plain pytest collection (tier-1 picks this
file up) keep a light 2,048-request shape that proves the wire path runs
without gating on shared-runner socket timing.
"""

import asyncio
import os

from conftest import emit

from repro.serve.chaos import ChaosInjector, ChaosSchedule, GatewayCrash
from repro.serve.gateway import ServeCluster
from repro.serve.loadgen import (WireLoadSpec, WireResilience, run_wire_load,
                                 wire_report_table)
from repro.serve.protocol import parse_request
from repro.serve.supervisor import ClusterSupervisor, SupervisorConfig
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.faults import BackendBrownout, FaultSchedule
from repro.workload.workload import WorkloadSpec

MEGABYTE = 1024 * 1024


def test_bench_serve_wire(benchmark, settings):
    gated = os.environ.get("AGAR_BENCH_GATED") == "1"
    requests = 16384 if gated else 2048
    config = EngineConfig(
        workload=WorkloadSpec(object_count=100, object_size=4096,
                              request_count=requests, seed=settings.seed),
        regions=[RegionSpec(region="frankfurt", clients=1,
                            strategy="backend")],
        cache_capacity_bytes=4 * MEGABYTE,
        topology_seed=settings.seed,
    )
    spec = WireLoadSpec(workload=config.workload, connections=4,
                        pipeline_depth=64)

    async def serve_and_load():
        cluster = ServeCluster.from_config(config, seed=1, payloads=True)
        async with cluster:
            return await run_wire_load(cluster.addresses, spec, seed=1)

    def run():
        return asyncio.run(serve_and_load())

    results = benchmark.pedantic(run, rounds=2 if gated else 1, iterations=1)

    result = results["frankfurt"]
    emit(f"serving tier wire path ({result.requests} requests, "
         "4 connections, loopback)", wire_report_table(results).render())
    assert result.errors == 0
    assert result.requests == spec.connection_requests() * spec.connections
    benchmark.extra_info["requests"] = result.requests
    benchmark.extra_info["throughput_rps"] = round(result.throughput_rps)
    benchmark.extra_info["p99_ms"] = round(result.stats.p99_latency_ms, 2)
    # Light mode only asserts the wire path runs end to end; gated mode
    # enforces the PR 9 rate criterion (>= 10k req/s per region on one box,
    # with the load generator sharing the core).
    floor = 10_000.0 if gated else 1_000.0
    assert result.throughput_rps >= floor, (
        f"wire throughput {result.throughput_rps:.0f} req/s below {floor:.0f}")


def test_bench_gateway_dispatch(benchmark, settings):
    """Per-request server CPU of a hot wire read, without sockets (ISSUE 17).

    One payload-serving ``agar`` gateway and one 32-request pipelined GET
    buffer: each round parses the buffer request by request, hands every
    request to ``_dispatch`` and joins the response fragments once — what
    ``_serve_connection`` does between a socket read and its one write.  No
    event loop and no load generator share the round, so the row is far
    steadier than ``test_bench_serve_wire`` (whose mean is mostly the client).
    After the first round every body comes from the gateway's body cache.
    """
    batch = 32
    config = EngineConfig(
        workload=WorkloadSpec(object_count=batch, object_size=16 * 1024,
                              request_count=batch, seed=settings.seed),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="agar")],
        cache_capacity_bytes=160 * 1024, topology_seed=settings.seed,
        timer_reconfiguration=True)
    cluster = ServeCluster.from_config(config, seed=1, payloads=True)
    gateway = cluster.gateways["frankfurt"]
    buffer = bytearray(b"".join(
        f"GET /objects/object-{rank} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        for rank in range(batch)))

    def drain() -> bytes:
        out = []
        offset = 0
        while (parsed := parse_request(buffer, offset)) is not None:
            request, offset = parsed
            out += gateway._dispatch(request)
        return b"".join(out)

    store = cluster.deployment.store
    replies = drain()
    assert replies.count(b"HTTP/1.1 200 OK\r\n") == batch
    assert all(store.get_object(f"object-{rank}") in replies
               for rank in range(batch))
    gateway.strategy.tick(1.0)      # install a configuration: hits, not misses

    replies = benchmark(drain)
    assert replies.count(b"X-Agar-Body: cached\r\n") == batch
    assert gateway.errors_total == 0
    per_request_us = benchmark.stats.stats.mean / batch * 1e6
    benchmark.extra_info["requests_per_round"] = batch
    benchmark.extra_info["us_per_request"] = round(per_request_us, 2)
    emit("Gateway dispatch, body-cache hits (32 pipelined GETs, no sockets)",
         f"  {per_request_us:6.2f} us per request "
         f"({len(replies) // batch} response bytes each)")


def test_bench_serve_wire_degraded(benchmark, settings):
    """PR 10 degraded-path bench: resilient client under brownout + crash.

    A 2-region cluster in record mode serving under a standing backend
    brownout, driven by the resilient wire client, with one gateway killed
    mid-run and restarted by the supervisor (warm recovery).  The measured
    rate bounds what the wire path sustains while the whole chaos tier —
    injector, supervisor, retries, resends — is active; the conservation
    and recovery assertions are the primary gate, the throughput floor is a
    backstop with its own (wide) tolerance band in the baseline.
    """
    gated = os.environ.get("AGAR_BENCH_GATED") == "1"
    requests = 4096 if gated else 1024
    config = EngineConfig(
        workload=WorkloadSpec(object_count=100, object_size=4096,
                              request_count=2 * requests, seed=settings.seed),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="lru-5"),
                 RegionSpec(region="dublin", clients=1, strategy="lru-5")],
        cache_capacity_bytes=4 * MEGABYTE,
        faults=FaultSchedule([BackendBrownout("sao_paulo", 0.0, 3600.0,
                                              multiplier=3.0)]),
        topology_seed=settings.seed,
    )
    spec = WireLoadSpec(
        workload=config.workload, connections=1, pipeline_depth=64,
        requests_per_connection=requests,
        resilience=WireResilience(base_timeout_ms=250.0, backoff_cap_ms=50.0))
    schedule = ChaosSchedule(wire_faults=(GatewayCrash("frankfurt", 0.3),))

    async def serve_and_load():
        cluster = ServeCluster.from_config(config, seed=1, payloads=True)
        async with cluster:
            supervisor_config = SupervisorConfig(poll_interval_s=0.02)
            async with ClusterSupervisor(cluster,
                                         supervisor_config) as supervisor:
                injector = ChaosInjector(cluster, schedule)
                results, _ = await asyncio.gather(
                    run_wire_load(cluster.addresses, spec, seed=1),
                    injector.run())
                for _ in range(150):
                    if len(supervisor.recoveries) >= len(injector.crash_log):
                        break
                    await asyncio.sleep(0.02)
                return results, list(supervisor.recoveries), injector.crash_log

    def run():
        return asyncio.run(serve_and_load())

    results, recoveries, crash_log = benchmark.pedantic(
        run, rounds=2 if gated else 1, iterations=1)

    emit(f"serving tier degraded wire path ({2 * requests} requests, "
         "brownout + crash/restart, loopback)",
         wire_report_table(results).render())
    # The chaos-tier acceptance accounting: every intended request is a
    # sample, an unavailable read, or a failover completion — and the one
    # scheduled kill ended in exactly one completed recovery.
    for region, result in results.items():
        connections = result.connections
        assert (result.stats.count + result.stats.unavailable_reads
                + connections.failed_over == result.requests), region
    assert len(crash_log) == 1
    assert len(recoveries) == 1
    assert recoveries[0].region == "frankfurt"
    total_rps = sum(result.throughput_rps for result in results.values())
    benchmark.extra_info["requests"] = sum(r.requests for r in results.values())
    benchmark.extra_info["throughput_rps"] = round(total_rps)
    benchmark.extra_info["recovery_ms"] = round(
        recoveries[0].recovery_s * 1000.0, 1)
    # Aggregate floor across both regions; the clean single-region bench
    # holds the high bar, this one proves degraded mode stays serviceable.
    floor = 4_000.0 if gated else 1_000.0
    assert total_rps >= floor, (
        f"degraded wire throughput {total_rps:.0f} req/s below {floor:.0f}")
