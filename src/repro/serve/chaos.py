"""Wire-level chaos: disturbance schedules against a live cluster.

The simulator's fault vocabulary (:mod:`repro.sim.faults`) perturbs the
*model* — which backends answer, how slow the links are.  This module adds
the disturbances only a real serving tier can experience, and compiles both
kinds into one wall-clock-ordered action list executed against a
running :class:`~repro.serve.gateway.ServeCluster`:

* :class:`GatewayCrash` — the region's gateway dies like a SIGKILL'd
  process: listening socket closed, every accepted connection aborted,
  in-flight pipelined requests lost.  A supervisor
  (:mod:`repro.serve.supervisor`) is expected to notice and restart it.
* :class:`ConnectionReset` — every accepted connection of the region is
  aborted (RST); the gateway itself keeps serving, clients must reconnect.
* :class:`SocketStall` — the gateway freezes for a window (stop-the-world
  pause): connections stay open but nothing makes progress, exercising
  client deadlines and retries.
* :class:`SlowlorisPeer` — the injector itself becomes a misbehaving peer,
  dribbling an eternally incomplete request one byte at a time to occupy a
  connection without ever issuing a request.
* Engine faults (``RegionOutage``/``BackendBrownout``/``AZFailure``) riding
  on a :class:`~repro.sim.faults.FaultSchedule` are delivered **over the
  wire** as dynamic ``POST /admin/fault`` installs at each window's start —
  the same validated JSON path any external operator would use.

A schedule compiles to the same action list every time.  Execution is
wall-clock ordered; installs that fail because a gateway is down are retried
until they land (the supervisor restarts gateways on their old port, so
addresses stay stable).  An install a gateway refuses (a 400: a region it
does not serve) is logged as a failed event with the gateway's answer and
not retried.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass

from repro.serve.protocol import (ProtocolError, fetch, hang_up,
                                  render_request)
from repro.sim.faults import FaultSchedule, fault_to_dict

#: Wall seconds between retries of fault installs that found no gateway.
RETRY_INTERVAL_S = 0.05
#: How long a finished schedule keeps retrying those installs.
DRAIN_TIMEOUT_S = 3.0


def _validate_at(what: str, at_s: float) -> None:
    if not (math.isfinite(at_s) and at_s >= 0):
        raise ValueError(
            f"{what}: at_s must be finite and non-negative, got {at_s}")


def _validate_duration(what: str, duration_s: float) -> None:
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"{what}: duration_s must be finite and positive")


@dataclass(frozen=True, slots=True)
class GatewayCrash:
    """Kill the region's gateway at ``at_s`` (wall seconds from chaos start)."""

    region: str
    at_s: float

    def __post_init__(self) -> None:
        _validate_at("GatewayCrash", self.at_s)


@dataclass(frozen=True, slots=True)
class ConnectionReset:
    """Abort every accepted connection of the region at ``at_s``."""

    region: str
    at_s: float

    def __post_init__(self) -> None:
        _validate_at("ConnectionReset", self.at_s)


@dataclass(frozen=True, slots=True)
class SocketStall:
    """Freeze the region's request processing for ``duration_s``."""

    region: str
    at_s: float
    duration_s: float = 0.2

    def __post_init__(self) -> None:
        _validate_at("SocketStall", self.at_s)
        _validate_duration("SocketStall", self.duration_s)


@dataclass(frozen=True, slots=True)
class SlowlorisPeer:
    """Hold a gateway connection open with a never-completing request."""

    region: str
    at_s: float
    duration_s: float = 0.5

    def __post_init__(self) -> None:
        _validate_at("SlowlorisPeer", self.at_s)
        _validate_duration("SlowlorisPeer", self.duration_s)


#: Any single wire-level disturbance.
WireFault = GatewayCrash | ConnectionReset | SocketStall | SlowlorisPeer

_WIRE_KINDS = {GatewayCrash: "crash", ConnectionReset: "reset",
               SocketStall: "stall", SlowlorisPeer: "slowloris"}


@dataclass(frozen=True, slots=True)
class ChaosAction:
    """One compiled, wall-clock-scheduled action of a chaos run."""

    at_s: float
    kind: str               #: crash | reset | stall | slowloris | fault
    region: str             #: target region ("" = every gateway, fault installs)
    duration_s: float = 0.0
    fault_body: str = ""    #: JSON body of a dynamic /admin/fault install


@dataclass(frozen=True)
class ChaosSchedule:
    """A timeline of wire disturbances plus optional engine faults.

    ``wire_faults`` act on the live gateways directly; ``fault_schedule``
    windows are delivered over the wire as dynamic ``/admin/fault`` installs
    at their start times (validated server-side exactly like engine-side
    schedules).
    """

    wire_faults: tuple[WireFault, ...] = ()
    fault_schedule: FaultSchedule | None = None

    def __post_init__(self) -> None:
        for fault in self.wire_faults:
            if not isinstance(fault, (GatewayCrash, ConnectionReset,
                                      SocketStall, SlowlorisPeer)):
                raise TypeError(f"not a wire fault: {fault!r}")

    def compile(self) -> tuple[ChaosAction, ...]:
        """The sorted wall-clock action list this schedule executes as."""
        actions: list[ChaosAction] = []
        for fault in self.wire_faults:
            kind = _WIRE_KINDS[type(fault)]
            duration = getattr(fault, "duration_s", 0.0)
            actions.append(ChaosAction(at_s=fault.at_s, kind=kind,
                                       region=fault.region,
                                       duration_s=duration))
        if self.fault_schedule is not None:
            for fault in self.fault_schedule.faults:
                actions.append(ChaosAction(
                    at_s=fault.start_s, kind="fault", region="",
                    fault_body=json.dumps(fault_to_dict(fault))))
        return tuple(sorted(actions, key=lambda a: (a.at_s, a.kind, a.region)))

    def describe(self) -> str:
        """Human-readable listing (the wire twin of FaultSchedule.describe)."""
        lines = ["chaos schedule:"]
        for action in self.compile():
            target = action.region or "<all regions>"
            detail = ""
            if action.duration_s:
                detail = f" for {action.duration_s:g}s"
            if action.fault_body:
                detail = f" {action.fault_body}"
            lines.append(f"  t={action.at_s:6.2f}s  {action.kind:<9} "
                         f"{target}{detail}")
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)


@dataclass(slots=True)
class ChaosEvent:
    """One executed (or attempted) chaos action, for the injector's log."""

    at_s: float             #: scheduled start
    executed_at_s: float    #: wall time (from injector start) it actually ran
    kind: str
    region: str
    ok: bool
    detail: str = ""


class ChaosInjector:
    """Execute a compiled chaos schedule against a live cluster.

    Crash/reset/stall actions act on the in-process gateway objects (the
    injector plays the role of the machine the process runs on); fault
    installs and the slowloris peer go over real sockets.  Fault installs
    that fail because a gateway is down are queued and retried before every
    subsequent action and in a bounded drain loop at the end, so a schedule
    always converges once the supervisor has restarted the crashed gateways.
    An install the gateway answers with a refusal is logged failed, with the
    status and the gateway's reason, and never retried.
    """

    def __init__(self, cluster, schedule: ChaosSchedule) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.log: list[ChaosEvent] = []
        self._pending_installs: list[tuple[str, str]] = []  # (region, body)
        self._peers: list[asyncio.Task] = []

    @property
    def crash_log(self) -> list[ChaosEvent]:
        """The crashes this injector actually delivered."""
        return [event for event in self.log
                if event.kind == "crash" and event.ok]

    async def run(self) -> list[ChaosEvent]:
        """Execute every action at its wall-clock time; returns the log."""
        actions = self.schedule.compile()
        origin = time.perf_counter()
        for action in actions:
            delay = action.at_s - (time.perf_counter() - origin)
            if delay > 0:
                await asyncio.sleep(delay)
            await self._retry_pending(origin)
            await self._execute(action, origin)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self._pending_installs and time.perf_counter() < deadline:
            await asyncio.sleep(RETRY_INTERVAL_S)
            await self._retry_pending(origin)
        for peer in self._peers:
            try:
                await peer
            except Exception:  # noqa: BLE001 — peers are best-effort noise
                pass
        return self.log

    # ------------------------------------------------------------------ #
    # Action execution
    # ------------------------------------------------------------------ #
    async def _execute(self, action: ChaosAction, origin: float) -> None:
        now = time.perf_counter() - origin
        if action.kind == "fault":
            for region in self.cluster.gateways:
                outcome = await self._install_fault(region, action.fault_body)
                if outcome is None:
                    self._pending_installs.append((region, action.fault_body))
                    outcome = False, "queued for retry"
                ok, detail = outcome
                self.log.append(ChaosEvent(
                    at_s=action.at_s, executed_at_s=now, kind="fault",
                    region=region, ok=ok, detail=detail or action.fault_body))
            return
        gateway = self.cluster.gateways.get(action.region)
        if gateway is None:
            self.log.append(ChaosEvent(
                at_s=action.at_s, executed_at_s=now, kind=action.kind,
                region=action.region, ok=False, detail="unknown region"))
            return
        if action.kind == "crash":
            already = gateway.crashed
            gateway.crash()
            self.log.append(ChaosEvent(
                at_s=action.at_s, executed_at_s=now, kind="crash",
                region=action.region, ok=not already,
                detail="already down" if already else ""))
        elif action.kind == "reset":
            aborted = gateway.reset_connections()
            self.log.append(ChaosEvent(
                at_s=action.at_s, executed_at_s=now, kind="reset",
                region=action.region, ok=True,
                detail=f"{aborted} connections aborted"))
        elif action.kind == "stall":
            gateway.stall_for(action.duration_s)
            self.log.append(ChaosEvent(
                at_s=action.at_s, executed_at_s=now, kind="stall",
                region=action.region, ok=True,
                detail=f"{action.duration_s:g}s"))
        elif action.kind == "slowloris":
            address = (gateway.settings.host, gateway.port)
            self._peers.append(asyncio.ensure_future(
                _slowloris_peer(address, action.duration_s)))
            self.log.append(ChaosEvent(
                at_s=action.at_s, executed_at_s=now, kind="slowloris",
                region=action.region, ok=True,
                detail=f"{action.duration_s:g}s"))

    async def _retry_pending(self, origin: float) -> None:
        still_pending: list[tuple[str, str]] = []
        for region, body in self._pending_installs:
            outcome = await self._install_fault(region, body)
            if outcome is None:
                still_pending.append((region, body))
                continue
            ok, detail = outcome
            self.log.append(ChaosEvent(
                at_s=-1.0, executed_at_s=time.perf_counter() - origin,
                kind="fault", region=region, ok=ok,
                detail=detail or "retried install landed"))
        self._pending_installs = still_pending

    async def _install_fault(self, region: str, body: str,
                             ) -> tuple[bool, str] | None:
        """Whether the window landed and, if refused, the gateway's answer;
        ``None`` when the gateway could not be reached (retry later)."""
        gateway = self.cluster.gateways.get(region)
        if gateway is None or gateway.port is None:
            return None
        request = render_request("POST", "/admin/fault", "chaos",
                                 {"Content-Type": "application/json",
                                  "Connection": "close"},
                                 body.encode())
        try:
            status, _headers, reason = await asyncio.wait_for(
                fetch((gateway.settings.host, gateway.port), request),
                timeout=1.0)
        except (OSError, asyncio.TimeoutError, ProtocolError):
            return None
        # A 409 means this window already landed on this gateway (e.g. a
        # retry raced a successful install): converged, not failed.
        if status == 200 or status == 409:
            return True, ""
        return False, f"refused: {status} {reason.decode('latin-1')}"


#: The eternally incomplete header the slowloris peer dribbles.
_SLOWLORIS_PREFIX = b"GET /objects/slow HTTP/1.1\r\nHost: slow\r\n"
_SLOWLORIS_FILLER = b"X-Slow: aaaaaaaa\r\n"


async def _slowloris_peer(address: tuple[str, int], duration_s: float,
                          byte_interval_s: float = 0.02) -> None:
    """Dribble an incomplete request one byte at a time, then hang up."""
    try:
        reader, writer = await asyncio.open_connection(*address)
    except OSError:
        return
    deadline = time.monotonic() + duration_s
    position = 0
    try:
        while time.monotonic() < deadline:
            if position < len(_SLOWLORIS_PREFIX):
                byte = _SLOWLORIS_PREFIX[position:position + 1]
            else:
                filler_at = (position - len(_SLOWLORIS_PREFIX)) % len(
                    _SLOWLORIS_FILLER)
                byte = _SLOWLORIS_FILLER[filler_at:filler_at + 1]
            writer.write(byte)
            await writer.drain()
            position += 1
            await asyncio.sleep(byte_interval_s)
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass  # the gateway crashed under us — mission accomplished anyway
    finally:
        await hang_up(writer)
