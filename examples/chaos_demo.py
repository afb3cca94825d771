#!/usr/bin/env python3
"""Chaos-tier tour: kill a live gateway and watch it heal itself.

One scenario, all on loopback sockets with ephemeral ports:

1. deploy a 2-region :class:`~repro.serve.gateway.ServeCluster` serving real
   erasure-coded payloads, with a :class:`~repro.serve.supervisor.
   ClusterSupervisor` health-checking both gateways;
2. drive it with the **resilient** wire client (deadlines, deterministic
   backoff, failover to the spare region) while a seeded
   :class:`~repro.serve.chaos.ChaosSchedule` kills the Frankfurt gateway
   mid-run;
3. print what happened: the supervisor's crash→recovery cycle (detection
   lag, entries replayed, fraction of the pre-crash cache warm recovery
   restored), the client's reconnect/retry/failover counters, and the
   conservation check — every intended request is a latency sample, an
   unavailable read, or a failover completion;
4. show the decision ledger around the cut: reads, then ``crash``, then
   ``recovery``, then reads again — one in-memory history across two gateway
   instances of the same process.

Run with:  PYTHONPATH=src python examples/chaos_demo.py
"""

from __future__ import annotations

import asyncio

from repro.serve.chaos import ChaosInjector, ChaosSchedule, GatewayCrash
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import KIND_CRASH, KIND_RECOVERY
from repro.serve.loadgen import (WireLoadSpec, WireResilience, run_wire_load,
                                 wire_report_table)
from repro.serve.supervisor import (ClusterSupervisor, SupervisorConfig,
                                    recovery_report_table)
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import ArrivalSpec, WorkloadSpec

MEGABYTE = 1024 * 1024
SEED = 11
CRASH_AT_S = 0.15

CONFIG = EngineConfig(
    workload=WorkloadSpec(object_count=40, object_size=16 * 1024,
                          request_count=400, seed=SEED),
    regions=[RegionSpec(region="frankfurt", clients=1, strategy="lru-3"),
             RegionSpec(region="dublin", clients=1, strategy="lru-3")],
    cache_capacity_bytes=MEGABYTE,
    topology_seed=SEED,
)

SPEC = WireLoadSpec(
    workload=CONFIG.workload,
    arrival=ArrivalSpec(process="poisson", rate_rps=500.0),
    connections=1,
    requests_per_connection=200,
    resilience=WireResilience(base_timeout_ms=150.0, backoff_cap_ms=25.0),
)


async def main() -> None:
    schedule = ChaosSchedule(
        wire_faults=(GatewayCrash("frankfurt", CRASH_AT_S),))
    print("== chaos schedule ==")
    print(schedule.describe())

    cluster = ServeCluster.from_config(CONFIG, seed=SEED, payloads=True)
    supervisor_config = SupervisorConfig(poll_interval_s=0.02,
                                         warm_recovery=True)
    async with cluster:
        async with ClusterSupervisor(cluster, supervisor_config) as supervisor:
            injector = ChaosInjector(cluster, schedule)
            results, events = await asyncio.gather(
                run_wire_load(cluster.addresses, SPEC, seed=SEED),
                injector.run())
            for _ in range(100):  # let a late recovery finish
                if len(supervisor.recoveries) >= len(injector.crash_log):
                    break
                await asyncio.sleep(0.02)
            recoveries = list(supervisor.recoveries)
        ledger = cluster.gateways["frankfurt"].ledger

    print("\n== what the injector did ==")
    for event in events:
        print(f"  t={event.executed_at_s:6.3f}s  {event.kind:<7s} "
              f"{event.region:<10s} ok={event.ok} {event.detail}")

    print("\n== what the supervisor saw ==")
    print(recovery_report_table(recoveries))

    print("\n== what the client measured ==")
    print(wire_report_table(results).render())
    for region, result in results.items():
        stats, conns = result.stats, result.connections
        completed = stats.count + conns.failed_over
        print(f"{region}: {completed}/{result.requests} completed "
              f"({stats.count} home, {conns.failed_over} failed over, "
              f"{stats.unavailable_reads} unavailable), "
              f"{conns.reconnects} reconnects, "
              f"{conns.requests_per_connection:.0f} requests/connection")
        assert (stats.count + stats.unavailable_reads + conns.failed_over
                == result.requests), "conservation must hold"

    print("\n== the ledger around the cut (frankfurt) ==")
    cut = next(i for i, e in enumerate(ledger) if e.kind == KIND_CRASH)
    for entry in ledger[max(cut - 2, 0):cut + 4]:
        marker = " <--" if entry.kind in (KIND_CRASH, KIND_RECOVERY) else ""
        print(f"  {entry.to_line()}{marker}")
    record = recoveries[0]
    print(f"\nwarm recovery replayed {record.entries_replayed} ledger reads "
          f"and restored {record.restored_fraction:.0%} of the pre-crash "
          f"cache in {record.recovery_s * 1000.0:.1f} ms")


if __name__ == "__main__":
    asyncio.run(main())
