"""Chaos acceptance: crash/recovery against a live 2-region cluster.

The tier's end-to-end promise, asserted over real sockets: a seeded
kill/restart schedule completes with zero ledger corruption, request
accounting conserves (``count + unavailable + failed_over == requests``),
the supervisor restores every crashed gateway with warm recovery bringing
back ≥90 % of the pre-crash cache, and the post-recovery tail latency stays
within tolerance of a clean baseline.  Deployments the replay oracle does
not cover (resilient clients, §VI collaboration) are served here too: their
ledgers record every decision, only ``run_and_trace`` refuses them.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.serve.chaos import ChaosInjector, ChaosSchedule, GatewayCrash
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import (KIND_CRASH, KIND_READ, KIND_RECOVERY,
                                ledger_from_lines, ledger_to_lines)
from repro.serve.loadgen import (WireLoadSpec, WireResilience, run_wire_load,
                                 wire_report_table)
from repro.serve.supervisor import (ClusterSupervisor, SupervisorConfig,
                                    recovery_report_table)
from repro.serve.trace import run_and_trace
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import ArrivalSpec, WorkloadSpec

from serve_helpers import MEGABYTE, http_get, start_cluster, tiny_config

RATE_RPS = 400.0
PER_CONNECTION = 120
CRASH_AT_S = 0.08


def two_region_config(strategy: str = "lru-3", **overrides) -> EngineConfig:
    return EngineConfig(
        workload=WorkloadSpec(object_count=20, object_size=16 * 1024,
                              request_count=2 * PER_CONNECTION, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy=strategy),
                 RegionSpec(region="dublin", clients=1, strategy=strategy)],
        cache_capacity_bytes=MEGABYTE,
        **overrides,
    )


def resilient_spec(config: EngineConfig) -> WireLoadSpec:
    return WireLoadSpec(
        workload=config.workload,
        arrival=ArrivalSpec(process="poisson", rate_rps=RATE_RPS),
        connections=1,
        requests_per_connection=PER_CONNECTION,
        resilience=WireResilience(retry_budget=2, base_timeout_ms=120.0,
                                  backoff_cap_ms=25.0),
        keep_samples=True,
    )


async def _chaos_run(config: EngineConfig, spec: WireLoadSpec,
                     schedule: ChaosSchedule | None, warm: bool = True,
                     seed: int = 7):
    """Deploy, drive, disturb; return (results, recoveries, crash_log, cluster)."""
    cluster = ServeCluster.from_config(config, seed=seed, payloads=True)
    supervisor_config = SupervisorConfig(poll_interval_s=0.02,
                                         warm_recovery=warm)
    async with cluster:
        async with ClusterSupervisor(cluster, supervisor_config) as supervisor:
            if schedule is None:
                results = await run_wire_load(cluster.addresses, spec,
                                              seed=seed)
                crash_log = []
            else:
                injector = ChaosInjector(cluster, schedule)
                results, _ = await asyncio.gather(
                    run_wire_load(cluster.addresses, spec, seed=seed),
                    injector.run())
                crash_log = injector.crash_log
            for _ in range(150):
                if len(supervisor.recoveries) >= len(crash_log):
                    break
                await asyncio.sleep(0.02)
            recoveries = list(supervisor.recoveries)
            # The recovered gateway answers health checks on its old port.
            for record in recoveries:
                address = (cluster.gateways[record.region].settings.host,
                           record.port)
                status, _, body = await http_get(address, "/healthz")
                assert status == 200 and body == b"ok\n"
    return results, recoveries, crash_log, cluster


def _assert_conservation(results) -> None:
    for region, result in results.items():
        stats, connections = result.stats, result.connections
        assert (stats.count + stats.unavailable_reads + connections.failed_over
                == result.requests), region
        assert stats.full_hits + stats.partial_hits + stats.misses == stats.count


def _assert_ledger_integrity(cluster) -> None:
    for region, ledger in cluster.ledgers().items():
        # Zero corruption: every entry survives the canonical line codec.
        assert ledger_from_lines(ledger_to_lines(ledger)) == ledger, region
        crashes = [e for e in ledger if e.kind == KIND_CRASH]
        recoveries = [e for e in ledger if e.kind == KIND_RECOVERY]
        assert len(crashes) == len(recoveries), region
        for crash, recovery in zip(crashes, recoveries):
            assert ledger.index(crash) < ledger.index(recovery)
            assert recovery.at >= crash.at


def _p99_after(results, cut_s: float) -> float:
    latencies = [sample.latency_ms
                 for result in results.values()
                 for sample in result.samples
                 if not sample.failed and sample.started_at_s >= cut_s]
    assert latencies, "no post-recovery samples — crash scheduled too late"
    return float(np.percentile(np.asarray(latencies), 99.0))


class TestChaosAcceptance:
    def test_crash_recovery_conservation_and_p99(self, run):
        config = two_region_config()
        spec = resilient_spec(config)
        schedule = ChaosSchedule(
            wire_faults=(GatewayCrash("frankfurt", CRASH_AT_S),), seed=7)

        clean_results, clean_recoveries, _, _ = run(
            _chaos_run(config, spec, None))
        results, recoveries, crash_log, cluster = run(
            _chaos_run(config, spec, schedule))

        # Accounting closes in both runs, crash or no crash.
        _assert_conservation(clean_results)
        _assert_conservation(results)
        _assert_ledger_integrity(cluster)

        # The supervisor recovered every crash the injector logged — and
        # the clean baseline saw neither crashes nor reconnects.
        assert clean_recoveries == []
        assert all(r.connections.reconnects == 0
                   for r in clean_results.values())
        assert len(crash_log) == 1
        assert len(recoveries) == len(crash_log)
        record = recoveries[0]
        assert record.region == "frankfurt"
        assert record.mode == "warm"
        assert record.recovery_s > 0.0
        assert record.cache_chunks_before > 0
        assert record.restored_fraction >= 0.9
        assert record.entries_replayed > 0

        # The resilient client felt the crash: the crashed region's worker
        # reconnected (and possibly retried or failed over), the other
        # region's did not lose its connection to a healthy gateway.
        frankfurt = results["frankfurt"].connections
        assert frankfurt.reconnects >= 1
        disruptions = (frankfurt.reconnects + frankfurt.timeouts
                       + frankfurt.failed_over)
        assert disruptions >= len(crash_log)

        # Post-recovery tail latency returns to within tolerance of the
        # clean baseline (generous: loopback scheduling noise is real).
        cut = record.recovered_at_s + 0.02
        clean_p99 = _p99_after(clean_results, cut)
        chaos_p99 = _p99_after(results, cut)
        assert chaos_p99 <= max(5.0 * clean_p99, clean_p99 + 50.0)

        # Report plumbing renders the run without blowing up.
        report = recovery_report_table(recoveries)
        assert "frankfurt" in report and "warm" in report
        table = wire_report_table(results).render()
        assert "reconn" in table and "failover" in table

    def test_cold_recovery_restores_nothing(self, run):
        async def scenario():
            cluster = await start_cluster(tiny_config(), payloads=True)
            try:
                address = cluster.addresses["frankfurt"]
                for index in range(12):
                    status, _, _ = await http_get(
                        address, f"/objects/object-{index % 6}")
                    assert status == 200
                gateway = cluster.gateways["frankfurt"]
                old_port = gateway.port
                gateway.crash()
                supervisor = ClusterSupervisor(
                    cluster, SupervisorConfig(warm_recovery=False))
                record = await supervisor.recover("frankfurt")
                assert record.mode == "cold"
                assert record.port == old_port
                assert record.cache_chunks_before > 0
                assert record.cache_chunks_restored == 0
                assert record.entries_replayed == 0
                ledger = cluster.gateways["frankfurt"].ledger
                recovery = [e for e in ledger if e.kind == KIND_RECOVERY][-1]
                assert recovery.hit == "cold"
                assert recovery.cache_chunks == 0
                # The reborn gateway serves, appending to the same ledger.
                status, _, _ = await http_get(address, "/objects/object-0")
                assert status == 200
                assert ledger[-1].kind == KIND_READ
            finally:
                await cluster.stop()

        run(scenario())

    def test_warm_recovery_preserves_read_history(self, run):
        async def scenario():
            cluster = await start_cluster(tiny_config(), payloads=True)
            try:
                address = cluster.addresses["frankfurt"]
                for index in range(20):
                    await http_get(address, f"/objects/object-{index % 5}")
                before = list(cluster.gateways["frankfurt"].ledger)
                cluster.gateways["frankfurt"].crash()
                supervisor = ClusterSupervisor(cluster)
                record = await supervisor.recover("frankfurt")
                assert record.restored_fraction >= 0.9
                ledger = cluster.gateways["frankfurt"].ledger
                # The durable log keeps the full pre-crash history, then the
                # crash/recovery pair, in order.
                assert ledger[:len(before)] == before
                kinds = [e.kind for e in ledger[len(before):]]
                assert kinds == [KIND_CRASH, KIND_RECOVERY]
            finally:
                await cluster.stop()

        run(scenario())


class TestRecordedDeployments:
    """Configs ``serve/trace.py`` cannot replay still serve and record."""

    def test_resilient_config_is_served_and_recorded(self, run):
        config = two_region_config(
            client=ClientConfig(resilience=ResilienceConfig(retry_budget=2)))
        with pytest.raises(ValueError, match="resilient"):
            run_and_trace(config, seed=1)

        async def scenario():
            cluster = ServeCluster.from_config(config, payloads=True)
            async with cluster:
                spec = resilient_spec(config)
                results = await run_wire_load(cluster.addresses, spec, seed=3)
                _assert_conservation(results)
                _assert_ledger_integrity(cluster)
                reads = [e for e in cluster.ledgers()["frankfurt"]
                         if e.kind == KIND_READ]
                assert len(reads) == results["frankfurt"].stats.count

        run(scenario())

    def test_collaboration_is_served_and_recorded(self, run):
        config = two_region_config(strategy="agar", collaboration=True)
        with pytest.raises(ValueError, match="collaboration"):
            run_and_trace(config, seed=1)

        async def scenario():
            cluster = ServeCluster.from_config(config, payloads=True)
            async with cluster:
                addresses = cluster.addresses
                for region in addresses:
                    for index in range(10):
                        status, _, _ = await http_get(
                            addresses[region], f"/objects/object-{index}")
                        assert status == 200
                cluster.run_collaboration_round()
                # The round lands a tick in every region's ledger, and the
                # cluster keeps serving afterwards.
                for region, ledger in cluster.ledgers().items():
                    assert ledger[-1].kind == "tick", region
                for region in addresses:
                    status, _, _ = await http_get(
                        addresses[region], "/objects/object-0")
                    assert status == 200

        run(scenario())
