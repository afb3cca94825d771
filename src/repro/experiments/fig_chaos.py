"""Live-cluster chaos experiment: availability and recovery over real sockets.

The wire analogue of ``fig_failures``: instead of scheduling modeled faults
inside the discrete-event engine, this experiment deploys a live 2-region
:class:`~repro.serve.gateway.ServeCluster`, drives it with the **resilient**
wire client (retries, deterministic backoff, failover to the spare region),
and injects real disturbances — gateway crashes, connection resets, socket
stalls — while a :class:`~repro.serve.supervisor.ClusterSupervisor`
health-checks the gateways and restarts the dead ones with warm (ledger
replay) or cold recovery.

Each variant reports what the paper's story needs under real failures:

* **availability** — the fraction of intended requests completed anywhere
  (home region or failover), out of the conservation-accounted total;
* **recovery lag** — supervisor detection-to-serving wall time per crash,
  plus the fraction of pre-crash cache contents warm recovery restored;
* **p99 before / during / after** — wire percentiles partitioned around the
  crash, so the cost of a cold cache (and the payoff of warm recovery) is
  visible where a run-wide percentile would smear it out.

The sweep compares a clean baseline, a warm-recovered crash, a
cold-recovered crash, and a compound scenario (crash + connection reset +
socket stall across both regions).
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.report import Table
from repro.client.stats import _nearest_rank
from repro.experiments.common import ExperimentSettings
from repro.serve.chaos import (ChaosInjector, ChaosSchedule, ConnectionReset,
                               GatewayCrash, SocketStall)
from repro.serve.gateway import ServeCluster
from repro.serve.loadgen import (RegionWireResult, WireLoadSpec,
                                 WireResilience, run_wire_load)
from repro.serve.supervisor import (ClusterSupervisor, RecoveryRecord,
                                    SupervisorConfig)
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import poisson_arrivals

#: The window around a crash used for the "during" percentile (seconds).
DISRUPTION_WINDOW_S = 0.25

#: The two regions of the cluster: the first crashes.
CHAOS_REGIONS = ("frankfurt", "dublin")
STRATEGY = "lru-5"
CONNECTIONS = 2
#: Open-loop rate per connection.
RATE_RPS = 300.0
#: Crash time as a fraction of the run.
CRASH_FRACTION = 0.35
BASE_TIMEOUT_MS = 150.0


@dataclass(frozen=True, slots=True)
class ChaosVariantResult:
    """One chaos variant's measured outcome."""

    name: str
    requests: int
    completed: int                   #: measured reads + failover completions
    unavailable: int
    failed_over: int
    reconnects: int
    crashes: int
    recoveries: tuple[RecoveryRecord, ...]
    p99_before_ms: float
    p99_during_ms: float
    p99_after_ms: float

    @property
    def availability(self) -> float:
        if self.requests == 0:
            return 1.0
        return self.completed / self.requests

    @property
    def mean_recovery_ms(self) -> float:
        if not self.recoveries:
            return 0.0
        return float(np.mean([r.recovery_s for r in self.recoveries])) * 1000.0

    @property
    def mean_restored_fraction(self) -> float:
        if not self.recoveries:
            return 0.0
        return float(np.mean([r.restored_fraction for r in self.recoveries]))


def _partition_p99(results: dict[str, RegionWireResult],
                   crash_at_s: float | None,
                   ) -> tuple[float, float, float]:
    """p99 of the samples before / during / after the (first) crash."""
    before: list[float] = []
    during: list[float] = []
    after: list[float] = []
    for result in results.values():
        for sample in result.samples:
            if sample.failed:
                continue
            if crash_at_s is None or sample.started_at_s < crash_at_s:
                before.append(sample.latency_ms)
            elif sample.started_at_s < crash_at_s + DISRUPTION_WINDOW_S:
                during.append(sample.latency_ms)
            else:
                after.append(sample.latency_ms)
    return tuple(_nearest_rank(np.sort(part), 99.0) if part else 0.0
                 for part in (before, during, after))


async def _run_variant(name: str, config: EngineConfig, spec: WireLoadSpec,
                       schedule: ChaosSchedule | None, warm: bool,
                       seed: int) -> ChaosVariantResult:
    cluster = ServeCluster.from_config(config, seed=seed, payloads=True)
    faults = schedule.wire_faults if schedule is not None else ()
    crash_times = [fault.at_s for fault in faults if isinstance(fault, GatewayCrash)]
    crash_count, crash_at = len(crash_times), min(crash_times, default=None)
    async with cluster:
        supervisor_config = SupervisorConfig(poll_interval_s=0.02,
                                             warm_recovery=warm)
        async with ClusterSupervisor(cluster, supervisor_config) as supervisor:
            if schedule is not None:
                injector = ChaosInjector(cluster, schedule)
                results, _log = await asyncio.gather(
                    run_wire_load(cluster.addresses, spec, seed=seed),
                    injector.run())
            else:
                results = await run_wire_load(cluster.addresses, spec,
                                              seed=seed)
            # A crash close to the end of the run can leave the supervisor
            # mid-recovery when the load generator drains; give it a bounded
            # window to converge so the recovery table is complete.
            for _ in range(100):
                if len(supervisor.recoveries) >= crash_count:
                    break
                await asyncio.sleep(0.02)
            recoveries = tuple(supervisor.recoveries)
    regions = results.values()
    failed_over = sum(result.connections.failed_over for result in regions)
    p99_before, p99_during, p99_after = _partition_p99(results, crash_at)
    return ChaosVariantResult(
        name=name, requests=sum(result.requests for result in regions),
        completed=sum(result.stats.count for result in regions) + failed_over,
        unavailable=sum(result.stats.unavailable_reads for result in regions),
        failed_over=failed_over,
        reconnects=sum(result.connections.reconnects for result in regions),
        crashes=crash_count, recoveries=recoveries, p99_before_ms=p99_before,
        p99_during_ms=p99_during, p99_after_ms=p99_after)


def check_regions(regions: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``regions`` names the cluster's two regions."""
    if len(regions) != 2:
        raise ValueError("fig_chaos drives a 2-region cluster; pass exactly "
                         "two regions in --regions")


def run_fig_chaos(settings: ExperimentSettings,
                  regions: Sequence[str] = CHAOS_REGIONS,
                  ) -> list[ChaosVariantResult]:
    """Sweep crash/restart schedules against a live 2-region cluster."""
    check_regions(regions)
    workload = settings.wire_workload()
    config = settings.deployment(
        [RegionSpec(region=name, strategy=STRATEGY) for name in regions],
        workload=workload)
    per_connection = max(workload.request_count // CONNECTIONS, 1)
    spec = WireLoadSpec(
        workload=workload,
        arrival=poisson_arrivals(RATE_RPS),
        connections=CONNECTIONS,
        requests_per_connection=per_connection,
        resilience=WireResilience(base_timeout_ms=BASE_TIMEOUT_MS,
                                  backoff_cap_ms=50.0),
        keep_samples=True,
    )
    duration_s = per_connection / RATE_RPS
    crash_at = CRASH_FRACTION * duration_s
    primary, secondary = regions
    crash = ChaosSchedule(wire_faults=(GatewayCrash(primary, crash_at),))
    compound = ChaosSchedule(wire_faults=(
        GatewayCrash(primary, crash_at),
        ConnectionReset(secondary, crash_at * 0.6),
        SocketStall(secondary, crash_at * 1.4,
                    min(0.1, BASE_TIMEOUT_MS / 2000.0)),
    ))
    variants = [
        ("clean", None, True),
        ("crash-warm", crash, True),
        ("crash-cold", crash, False),
        ("crash+reset+stall", compound, True),
    ]
    out = []
    for name, schedule, warm in variants:
        out.append(asyncio.run(_run_variant(
            name, config, spec, schedule, warm, settings.seed)))
    return out


def render_fig_chaos(results: list[ChaosVariantResult]) -> Table:
    """Availability / recovery-lag / p99-phase table, one row per variant."""
    return Table.from_rows(
        "Chaos tier — availability and recovery over live gateways",
        (("variant", "name"), ("requests", "requests"),
         ("avail %", lambda result: result.availability * 100.0),
         ("unavail", "unavailable"), ("failover", "failed_over"),
         ("reconn", "reconnects"), ("crashes", "crashes"),
         ("recovery ms", "mean_recovery_ms"),
         ("restored %", lambda result: result.mean_restored_fraction * 100.0),
         ("p99 before", "p99_before_ms"), ("p99 during", "p99_during_ms"),
         ("p99 after", "p99_after_ms")), results)
