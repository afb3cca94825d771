"""Serving tier: per-region asyncio HTTP gateways over the strategy stack.

The package turns the simulated deployment into a real networked service
while keeping the *decisions* — cache hit/miss, chunk placement, degraded
flags, reconfiguration points — bit-identical to a seeded
:class:`repro.sim.engine.EventEngine` run on the same trace.  That makes the
simulation test suite an oracle for the served path:

- :mod:`repro.serve.protocol` — minimal dependency-free HTTP/1.1 framing
  with pipelining, size caps and clean 4xx error mapping.
- :mod:`repro.serve.ledger` — the canonical per-request decision ledger the
  equivalence harness compares.
- :mod:`repro.serve.gateway` — one asyncio gateway per region, mounted
  directly on ``ReadStrategy``/``ChunkCache``/``ErasureCodec``.
- :mod:`repro.serve.trace` — build a replayable trace (reads + tick/fault
  timers) and the expected ledgers from a kept-results engine run.
- :mod:`repro.serve.replay` — drive a trace through live gateways over real
  sockets and collect their ledgers.
- :mod:`repro.serve.loadgen` — open/closed-loop wire load generation with
  ``LatencyStats``-based reporting, plus the resilient wire client
  (deadlines, backoff, failover) for chaos runs.
- :mod:`repro.serve.chaos` — seeded wire-level fault injection against a
  live cluster: gateway crashes, connection resets, socket stalls,
  slowloris peers, and dynamically delivered modeled fault windows.
- :mod:`repro.serve.supervisor` — the supervising process manager:
  ``/healthz`` probing, crash detection, and warm (ledger-replay) or
  cold gateway recovery on the old port.
"""

from repro.serve.chaos import (ChaosEvent, ChaosInjector, ChaosSchedule,
                               ConnectionReset, GatewayCrash, SlowlorisPeer,
                               SocketStall)
from repro.serve.gateway import GatewaySettings, RegionGateway, ServeCluster
from repro.serve.ledger import LedgerEntry, ledger_from_lines, ledger_to_lines
from repro.serve.loadgen import (ConnectionStats, RegionWireResult,
                                 WireLoadSpec, WireResilience, run_wire_load,
                                 wire_report_table)
from repro.serve.replay import replay_trace
from repro.serve.supervisor import (ClusterSupervisor, RecoveryRecord,
                                    SupervisorConfig, recovery_report_table)
from repro.serve.trace import SimTrace, TraceOp, trace_and_ledgers

__all__ = [
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "ClusterSupervisor",
    "ConnectionReset",
    "ConnectionStats",
    "GatewayCrash",
    "GatewaySettings",
    "LedgerEntry",
    "RecoveryRecord",
    "RegionGateway",
    "RegionWireResult",
    "ServeCluster",
    "SimTrace",
    "SlowlorisPeer",
    "SocketStall",
    "SupervisorConfig",
    "TraceOp",
    "WireLoadSpec",
    "WireResilience",
    "ledger_from_lines",
    "ledger_to_lines",
    "recovery_report_table",
    "replay_trace",
    "run_wire_load",
    "trace_and_ledgers",
    "wire_report_table",
]
