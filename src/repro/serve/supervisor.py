"""Supervised self-healing for a live serve cluster.

The :class:`ClusterSupervisor` plays the role of a process manager
(systemd, a Kubernetes kubelet): it health-checks every gateway over real
sockets via ``GET /healthz``, detects crashes, and restarts dead gateways
on their old port with a **warm-recovery protocol**:

1.  Build a fresh strategy exactly as a cold restart would
    (:meth:`ServeCluster.rebuild_strategy` — shared durable store and
    clock, empty cache, cold popularity state).
2.  Replay the tail of the region's decision ledger — the crashed
    instance's in-memory record log, handed on within the same process (it
    is not durable; ROADMAP item 1 A2) — through the fresh strategy, walking
    back from the end only as far as the tail reaches.  Two passes when the
    strategy reconfigures on a timer (first pass rebuilds popularity
    statistics, a ``tick`` re-solves the caching configuration, the second
    pass fills the cache under that configuration); one pass for plain
    LRU/LFU whose caches fill on read.
3.  Reinstall the fault state the dead gateway was operating under and
    carry its ledger and dynamic-fault queue into the new gateway, then
    rebind the old port (``SO_REUSEADDR`` makes the rebind immediate) so
    resilient clients retrying the published address reconnect without
    learning anything changed.

Recovery is accounted honestly: the supervisor snapshots the corpse's
cache before rebuilding (accounting only — the recovery itself uses
nothing but the ledger) and reports what fraction of the pre-crash cache
contents the replay restored, plus detection-to-recovery wall time, in a
:class:`RecoveryRecord`.  ``warm_recovery=False`` gives the cold-start
fallback: same restart, no replay, an empty cache.

Warm recovery is a heuristic, not bit-restoration: replaying reads
re-observes each tail key once per pass, so popularity counters can differ
from the pre-crash state (a key read five times counts once).  The ≥90 %
cache-restoration target in the chaos acceptance test is the measure that
matters — the cache is what the paper's latency claims ride on.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from repro.serve.gateway import RegionGateway, ServeCluster
from repro.serve.ledger import (KIND_READ, LedgerEntry, crash_entry,
                                recovery_entry)
from repro.serve.protocol import ProtocolError, fetch, render_request

_HEALTH_REQUEST = render_request("GET", "/healthz", "supervisor",
                                 {"Connection": "close"})
#: Per-probe deadline: a gateway that cannot answer ``/healthz`` within it
#: has failed (this covers stalls, not just refused connections), and the
#: first failed probe starts its recovery.
HEALTH_TIMEOUT_S = 0.25
#: Trailing successful read entries a warm recovery replays.
REPLAY_TAIL = 512


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Health-checking and recovery policy.

    Attributes:
        poll_interval_s: wall seconds between health-check sweeps.
        warm_recovery: replay the ledger tail into the fresh strategy; when
            False the gateway restarts cold (empty cache).
    """

    poll_interval_s: float = 0.03
    warm_recovery: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.poll_interval_s)
                and self.poll_interval_s > 0):
            raise ValueError("poll_interval_s must be finite and positive")


@dataclass(frozen=True, slots=True)
class RecoveryRecord:
    """One completed crash→restart cycle, with recovery accounting."""

    region: str
    detected_at_s: float        #: cluster time the crash was detected
    recovered_at_s: float       #: cluster time the new gateway was serving
    mode: str                   #: "warm" or "cold"
    port: int                   #: the (re-bound) listening port
    entries_replayed: int       #: ledger read entries replayed (all passes)
    cache_chunks_before: int    #: chunks cached at the moment of death
    cache_chunks_restored: int  #: of those, chunks the replay brought back

    @property
    def recovery_s(self) -> float:
        """Detection-to-serving wall time."""
        return self.recovered_at_s - self.detected_at_s

    @property
    def restored_fraction(self) -> float:
        """Fraction of the pre-crash cache the replay restored (1.0 if empty)."""
        if self.cache_chunks_before == 0:
            return 1.0
        return self.cache_chunks_restored / self.cache_chunks_before


def _chunk_set(strategy) -> set[tuple[str, int]]:
    """The (key, chunk index) pairs currently cached by a strategy."""
    snapshot = strategy.cache_snapshot()
    if snapshot is None:
        return set()
    return {(key, index)
            for key, indices in snapshot.chunks_per_key.items()
            for index in indices}


class ClusterSupervisor:
    """Watch a live cluster over the wire and restart crashed gateways."""

    def __init__(self, cluster: ServeCluster,
                 config: SupervisorConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config or SupervisorConfig()
        self.recoveries: list[RecoveryRecord] = []
        self.probes_total = 0
        self.probe_failures = 0
        self._task: asyncio.Task | None = None
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin the health-check loop (idempotent)."""
        if self._task is None:
            self._stopping = False
            self._task = asyncio.ensure_future(self._watch())

    async def stop(self) -> None:
        if self._task is not None:
            # Belt and braces: on 3.11, wait_for can swallow a cancellation
            # that races an inner completion (bpo-42130 family), leaving the
            # watch task alive.  The flag guarantees the loop still exits at
            # its next iteration, so awaiting the task always terminates.
            self._stopping = True
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def __aenter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Health checking
    # ------------------------------------------------------------------ #
    async def _watch(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.poll_interval_s)
            for region in list(self.cluster.gateways):
                if self._stopping:
                    return
                gateway = self.cluster.gateways[region]
                healthy = await self._probe(gateway)
                self.probes_total += 1
                if not healthy:
                    self.probe_failures += 1
                    await self.recover(region)

    async def _probe(self, gateway: RegionGateway) -> bool:
        """One ``GET /healthz`` over a real socket; False on refuse/timeout."""
        if gateway.port is None:
            return False
        try:
            status, _headers, _body = await asyncio.wait_for(
                fetch((gateway.settings.host, gateway.port), _HEALTH_REQUEST),
                timeout=HEALTH_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, ProtocolError):
            return False
        return status == 200

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    async def recover(self, region: str) -> RecoveryRecord:
        """Restart a dead gateway on its old port via warm (or cold) recovery."""
        cluster = self.cluster
        config = self.config
        corpse = cluster.gateways[region]
        detected_at = cluster.now_s()
        old_port = corpse.port
        corpse.crash()  # idempotent: make sure the old instance is fully dead
        chunks_before = _chunk_set(corpse.strategy)

        strategy = cluster.rebuild_strategy(region)
        mode = "warm" if config.warm_recovery else "cold"
        entries_replayed = 0
        if config.warm_recovery:
            tail = read_tail(corpse.ledger, REPLAY_TAIL)
            # Pass 1 rebuilds popularity statistics (and, for LRU/LFU, the
            # cache itself).  The fresh strategy has no decision sink and
            # does not touch the shared clock, so replay reads are invisible
            # to the rest of the live cluster.
            for entry in tail:
                strategy.read(entry.key, entry.at)
            entries_replayed = len(tail)
            if strategy.reconfiguration_period_s is not None:
                # Timer strategies cache according to a solved configuration:
                # re-solve it from the replayed statistics, then a second
                # pass fills the cache under it.
                strategy.tick(cluster.now_s())
                for entry in tail:
                    strategy.read(entry.key, entry.at)
                entries_replayed += len(tail)
        chunks_restored = len(chunks_before & _chunk_set(strategy))

        gateway = RegionGateway(
            region, strategy, corpse.store, corpse.clock,
            fault_states=corpse._fault_states, settings=corpse.settings,
            epoch=corpse.started_at)
        # The ledger is the crashed instance's in-memory record log, not a
        # durable one (ROADMAP item 1 A2): the new instance appends to the
        # same `Ledger` the old one wrote.  The dynamic-fault queue rides
        # along so wire-installed windows still expire on schedule.
        gateway.ledger = corpse.ledger
        gateway._dynamic_faults = list(corpse._dynamic_faults)
        gateway._dynamic_transitions = list(corpse._dynamic_transitions)
        if corpse.current_fault_state is not None:
            # Reinstall silently: the install is already in the ledger.
            strategy.set_fault_state(corpse.current_fault_state)
            strategy.react_to_fault(cluster.now_s())
            gateway.current_fault_state = corpse.current_fault_state
        gateway.ledger.append(crash_entry(detected_at))
        await gateway.start(port=old_port)
        recovered_at = cluster.now_s()
        gateway.ledger.append(recovery_entry(recovered_at, chunks_restored,
                                             mode))
        cluster.adopt_gateway(region, gateway)

        record = RecoveryRecord(
            region=region, detected_at_s=detected_at,
            recovered_at_s=recovered_at, mode=mode, port=gateway.port,
            entries_replayed=entries_replayed,
            cache_chunks_before=len(chunks_before),
            cache_chunks_restored=chunks_restored)
        self.recoveries.append(record)
        return record


def read_tail(ledger: Sequence[LedgerEntry],
              count: int) -> list[LedgerEntry]:
    """The last ``count`` successful reads of ``ledger``, in event order.

    Walks the ledger backwards and stops at the ``count``-th read, so a
    recovery decodes the tail it replays, not the whole history.
    """
    tail = list(islice((entry for entry in reversed(ledger)
                        if entry.kind == KIND_READ and not entry.failed),
                       count))
    tail.reverse()
    return tail


def recovery_report_table(recoveries: list[RecoveryRecord]) -> str:
    """Fixed-width table of crash→recovery cycles (for fig_chaos reports)."""
    header = (f"{'region':<14} {'mode':<5} {'detected s':>10} "
              f"{'recovery ms':>11} {'replayed':>8} {'restored':>9}")
    lines = [header, "-" * len(header)]
    for record in recoveries:
        lines.append(
            f"{record.region:<14} {record.mode:<5} "
            f"{record.detected_at_s:>10.2f} "
            f"{record.recovery_s * 1000.0:>11.1f} "
            f"{record.entries_replayed:>8d} "
            f"{record.restored_fraction * 100.0:>8.1f}%")
    if not recoveries:
        lines.append("(no recoveries)")
    return "\n".join(lines)
