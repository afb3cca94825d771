"""Per-region asyncio HTTP gateways mounted on the strategy stack.

Each :class:`RegionGateway` owns one region's :class:`ReadStrategy` (and
through it the region's :class:`ChunkCache`) plus the shared
:class:`ErasureCodedStore` and :class:`SimulationClock`.  A request handler
runs *synchronously* inside one event-loop step — strategy read, payload
decode and response assembly happen with no ``await`` in between — so
concurrent connections can never interleave halfway through a decision.
That single-threaded serialization is what makes the per-region decision
ledger well-defined and bit-comparable to a seeded engine run.

Two time modes coexist per request:

- **wall** (default): ``now`` is seconds since cluster start; the shared
  clock only moves forward.  This is the live-serving mode the wire
  benchmark measures.
- **replay**: an ``X-Replay-At`` header (or ``at=`` query on admin
  endpoints) carries the simulated timestamp; the clock is set to it before
  the strategy runs, so cache recency — and with it every decision — matches
  the simulation exactly.

:data:`ROUTES` is the one table of what a gateway serves.  Each handler
returns ``(status, body, content type, header lines)``, and
:meth:`RegionGateway._dispatch` frames every response once, for the
request's ``Connection``: refusals and a raising handler's 500 included.

:class:`ServeCluster` builds one gateway per region from an
:class:`~repro.sim.engine.EngineConfig`, mirroring the engine's deployment
sequence (reseed, build, initial fault install, external-reconfiguration
handover) so the served system starts in the simulator's exact initial
state.

The ledger always records every decision.  Whether it is also *replayable* —
bit-identical to a seeded engine run on the same trace — is a property of the
configuration, judged where the claim is made
(:func:`repro.serve.trace.run_and_trace` rejects §VI collaboration and active
resilience, whose decisions depend on global-order jitter draws); crash and
recovery cycles of the chaos tier likewise consume draws no replay reproduces.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import re
import time
from dataclasses import dataclass, field

from repro.backend.object_store import (ErasureCodedStore,
                                        ObjectNotFoundError)
from repro.client.stats import LatencyStats, ReadResult
from repro.serve.ledger import (DYNAMIC_FAULT_INDEX, Ledger, LedgerEntry,
                                fault_entry, read_entry, tick_entry)
from repro.serve.protocol import (READ_BYTES, HttpRequest, ProtocolError,
                                  build_response, error_response, hang_up,
                                  parse_decimal, parse_request)
from repro.sim.clock import SimulationClock
from repro.sim.engine import (EngineConfig, EngineDeployment, EventEngine,
                              _install_neighbor_catalogs, make_region_strategy)
from repro.sim.faults import FaultSchedule, fault_from_dict

_KEY_PATTERN = re.compile(r"[A-Za-z0-9._-]{1,200}")
_OBJECTS_PREFIX = "/objects/"
_TEXT = "text/plain"
#: What a route handler answers: status, body, content type and any extra
#: header lines (rendered, each ending in CRLF).  ``_dispatch`` frames it.
Answer = tuple[int, bytes, str, bytes]
#: Decision patterns whose header lines a gateway keeps rendered (cleared
#: when full); a whole ``wire_hot`` run sees five.
DECISION_HEADS_CAP = 256
#: Decoded objects kept in a gateway's own body cache, keyed by
#: ``(key, version)`` — standard serving-tier design: the erasure decode runs
#: once per object version, not once per request.  The cache never touches
#: strategy decisions (the strategy is consulted on every read and its chunk
#: decision is recorded either way).
BODY_CACHE_OBJECTS = 4096


@dataclass(slots=True)
class GatewaySettings:
    """What every gateway of a cluster shares: the address it binds."""

    host: str = "127.0.0.1"


class RegionGateway:
    """One region's HTTP endpoint over its strategy, cache and the store."""

    def __init__(self, region: str, strategy, store: ErasureCodedStore,
                 clock: SimulationClock,
                 fault_states: tuple = (),
                 settings: GatewaySettings | None = None,
                 epoch: float | None = None) -> None:
        self.region = region
        self.strategy = strategy
        self.store = store
        self.clock = clock
        self.settings = settings or GatewaySettings()
        self.ledger = Ledger()
        self.wire_stats = LatencyStats()
        self.requests_total = 0
        self.puts_total = 0
        self.errors_total = 0
        self.started_at = time.perf_counter() if epoch is None else epoch
        self.crashed = False
        self.current_fault_state = None
        self._fault_states = fault_states
        self._dynamic_faults: list = []
        self._dynamic_transitions: list[tuple[float, object]] = []
        self._body_cache: dict[tuple[str, int], bytes] = {}
        self._decision_heads: dict[tuple, bytes] = {}
        self._decided: tuple[list, list, list] | None = None
        self._last_result: ReadResult | None = None
        self._server: asyncio.AbstractServer | None = None
        #: Each accepted connection and the task that serves it.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._stall_until = 0.0
        self.port: int | None = None
        strategy.set_decision_sink(self._decision_sink)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, port: int | None = None) -> tuple[str, int]:
        """Bind the listening socket and start serving.

        ``port=None`` binds an ephemeral port; a supervisor restarting a
        crashed gateway passes the old port so clients retrying against the
        region's published address reconnect transparently (the listening
        socket uses ``SO_REUSEADDR``, so the rebind succeeds immediately
        after a crash).
        """
        self.crashed = False
        self._server = await asyncio.start_server(
            self._serve_connection, self.settings.host, port or 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.settings.host, self.port

    async def stop(self) -> None:
        """Stop listening, close every accepted connection, and return once
        each of their handlers has.

        An idle keep-alive client would otherwise keep its handler alive:
        past the end of the event loop (which then cancels it), or, where
        ``wait_closed`` waits for accepted connections, forever.
        """
        if self._server is None:
            return
        self._server.close()
        while self._connections:
            handlers = list(self._connections.values())
            self.reset_connections()
            await asyncio.wait(handlers)
        await self._server.wait_closed()
        self._server = None

    # ------------------------------------------------------------------ #
    # Chaos hooks (wire-level fault injection)
    # ------------------------------------------------------------------ #
    def crash(self) -> None:
        """Kill the gateway as a process death would: no goodbye on any socket.

        The listening socket closes (new connections are refused) and every
        accepted connection is aborted mid-stream (RST, not FIN) — in-flight
        pipelined requests are simply lost, exactly what a SIGKILL does.
        Because request handlers run synchronously within one event-loop
        step, the strategy and ledger are never cut mid-decision: the ledger
        stays well-formed across any crash point.  Idempotent.
        """
        self.crashed = True
        if self._server is not None:
            self._server.close()
            self._server = None
        self.reset_connections()

    def reset_connections(self) -> int:
        """Abort every accepted connection (connection-reset disturbance).

        The gateway itself keeps serving; clients see a reset and must
        reconnect.  Returns the number of connections aborted.
        """
        aborted = 0
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
                aborted += 1
        self._connections.clear()
        return aborted

    def stall_for(self, duration_s: float) -> None:
        """Freeze request processing for ``duration_s`` wall seconds.

        Models a stop-the-world pause (GC, CPU starvation, packet-level
        stall): accepted connections stay open but no request makes progress
        until the stall elapses.  Clients with deadlines will time out and
        retry.
        """
        self._stall_until = max(self._stall_until,
                                time.monotonic() + duration_s)

    # ------------------------------------------------------------------ #
    # Connection loop (pipelining-aware)
    # ------------------------------------------------------------------ #
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        buffer = bytearray()
        perf = time.perf_counter
        self._connections[writer] = asyncio.current_task()
        try:
            while not self.crashed:
                stall = self._stall_until - time.monotonic()
                if stall > 0:
                    await asyncio.sleep(stall)
                data = await reader.read(READ_BYTES)
                if not data:
                    if buffer:
                        # Truncated request (EOF mid-headers or mid-body):
                        # best-effort clean 400 before closing.
                        self.errors_total += 1
                        writer.write(b"".join(error_response(
                            ProtocolError(400, "truncated request"))))
                        with contextlib.suppress(OSError):
                            await writer.drain()
                    break
                buffer += data
                offset = 0
                # Fragments of every response of this batch, joined once: a
                # cached body is copied once on its way to the socket.
                out: list[bytes] = []
                close = False
                while True:
                    try:
                        parsed = parse_request(buffer, offset)
                    except ProtocolError as error:
                        self.errors_total += 1
                        out += error_response(error)
                        close = True
                        break
                    if parsed is None:
                        break
                    request, offset = parsed
                    started = perf()
                    out += self._dispatch(request)
                    result = self._last_result
                    if result is not None:
                        self._last_result = None
                        self.wire_stats.record_read(
                            (perf() - started) * 1000.0, result.hit_type,
                            result.chunks_from_cache,
                            result.chunks_from_backend,
                            result.chunks_from_neighbors,
                            result.degraded, result.failed,
                            result.retries, result.hedged, result.hedge_won)
                    if not request.keep_alive:
                        close = True
                        break
                if offset:
                    del buffer[:offset]
                if out:
                    writer.write(b"".join(out))
                    await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            await hang_up(writer)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, request: HttpRequest) -> tuple[bytes, bytes]:
        """Route one request and frame its answer for the request's
        connection; never raises (a raising handler gets a 500)."""
        self.requests_total += 1
        method = request.method
        path = request.path
        try:
            # The prefix first: object reads are the hot path.
            route = _OBJECTS_PREFIX if path.startswith(_OBJECTS_PREFIX) else path
            handler = _ROUTES.get((method, route))
            if handler is None:
                if method in _METHODS:
                    raise ProtocolError(404, f"no route for {method} {path}")
                raise ProtocolError(405, f"method {method} not supported")
            status, body, content_type, headers = handler(self, request)
        except ProtocolError as error:
            self.errors_total += 1
            return error_response(error, keep_alive=request.keep_alive)
        except Exception as error:  # noqa: BLE001 — the 5xx contract
            self.errors_total += 1
            status, body, content_type, headers = (
                500, f"{type(error).__name__}: {error}".encode(), _TEXT, b"")
        return build_response(status, body, headers,
                              keep_alive=request.keep_alive,
                              content_type=content_type)

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    def _request_time(self, request: HttpRequest) -> float:
        """The simulated ``now`` for this request (replay header or wall)."""
        header = request.headers.get("x-replay-at")
        if header is None:
            header = request.query.get("at")
        clock = self.clock
        if header is not None:
            try:
                at = float(header)
            except ValueError:
                raise ProtocolError(400, "invalid replay timestamp") from None
            if not math.isfinite(at) or at < 0.0:
                raise ProtocolError(
                    400, "replay timestamp must be finite and non-negative")
            clock._now_s = at
        else:
            at = time.perf_counter() - self.started_at
            if at > clock._now_s:
                clock._now_s = at
            else:
                at = clock._now_s
        self._apply_dynamic_faults(at)
        return at

    def _apply_dynamic_faults(self, at: float) -> None:
        """Install any dynamically scheduled fault transitions due by ``at``.

        Wire-installed fault windows (see :meth:`_admin_fault`) compile into
        future transitions applied lazily on the next request at or after
        their time — the wire twin of the engine's fault timer events, with
        ``fault_index=-2`` marking the entries as dynamic.
        """
        transitions = self._dynamic_transitions
        while transitions and transitions[0][0] <= at:
            when, state = transitions.pop(0)
            self._install_fault_state(state, when, DYNAMIC_FAULT_INDEX)

    def _install_fault_state(self, state, at: float, index: int) -> None:
        self.strategy.set_fault_state(state)
        self.strategy.react_to_fault(at)
        self.current_fault_state = state
        self.ledger.append(fault_entry(at, index))

    # ------------------------------------------------------------------ #
    # Object routes
    # ------------------------------------------------------------------ #
    def _object_key(self, path: str) -> str:
        key = path[len(_OBJECTS_PREFIX):]
        if not _KEY_PATTERN.fullmatch(key):
            raise ProtocolError(400, "invalid object key")
        return key

    def _decision_sink(self, result: ReadResult, cache_chunks: list,
                       backend_chunks: list, neighbor_chunks: list) -> None:
        self._decided = (cache_chunks, backend_chunks, neighbor_chunks)

    def _get_object(self, request: HttpRequest) -> Answer:
        key = self._object_key(request.path)
        store = self.store
        try:
            metadata = store.metadata(key)
        except ObjectNotFoundError:
            # Reject before touching the strategy: unknown keys must never
            # perturb popularity tracking or cache state.
            raise ProtocolError(404, f"unknown object {key!r}") from None
        at = self._request_time(request)
        self._decided = None
        result = self.strategy.read(key, at)
        self.ledger.append(read_entry(result))
        self._last_result = result
        decided = self._decided
        self._decided = None

        body = b""
        body_kind = "none"
        indices: list[int] = []
        if result.failed:
            return (503, b"read unavailable under faults\n", _TEXT,
                    self._decision_headers(result, indices))
        if decided is not None:
            indices = [placed.index for chunks in decided for placed in chunks]
            body, body_kind = self._object_body(key, metadata, indices)
        return 200, body, "application/octet-stream", self._decision_headers(
            result, indices, f"X-Agar-Body: {body_kind}\r\n")

    def _object_body(self, key: str, metadata, indices: list[int],
                     ) -> tuple[bytes, str]:
        """The object's bytes, from exactly the chunks the decision named.

        The decode runs once per ``(key, version)`` and lands in the bounded
        body cache; repeat reads serve the cached bytes (the chunk decision
        is still taken — and recorded — per request).  The codec rebuilds
        only the data chunks the decision left out and concatenates the rest.
        """
        cache_slot = (key, metadata.version)
        body_cache = self._body_cache
        body = body_cache.get(cache_slot)
        if body is not None:
            return body, "cached"
        store = self.store
        needed = store.params.data_chunks
        take = indices[:needed]
        if len(take) < needed:
            return b"", "short"
        chunks = store.get_chunks(key, take)
        if chunks.block is None:
            return b"", "virtual"
        body = store.codec.decode(metadata, chunks)
        if len(body_cache) >= BODY_CACHE_OBJECTS:
            del body_cache[next(iter(body_cache))]
        body_cache[cache_slot] = body
        return body, "decoded"

    def _decision_headers(self, result: ReadResult, indices: list[int],
                          tail: str = "") -> bytes:
        """The ``X-Agar-*`` header lines of one read, then ``tail``.

        Everything but the modelled latency is a function of the decision
        pattern, so those lines are rendered once per pattern.
        """
        pattern = (result.hit_type, result.chunks_from_cache,
                   result.chunks_from_backend, result.chunks_from_neighbors,
                   result.backend_regions, result.degraded, tuple(indices))
        heads = self._decision_heads
        lines = heads.get(pattern)
        if lines is None:
            if len(heads) >= DECISION_HEADS_CAP:
                heads.clear()
            lines = heads[pattern] = (
                f"X-Agar-Hit: {result.hit_type.value}\r\n"
                f"X-Agar-Cache-Chunks: {result.chunks_from_cache}\r\n"
                f"X-Agar-Backend-Chunks: {result.chunks_from_backend}\r\n"
                f"X-Agar-Neighbor-Chunks: {result.chunks_from_neighbors}\r\n"
                f"X-Agar-Regions: {','.join(result.backend_regions)}\r\n"
                f"X-Agar-Degraded: {'1' if result.degraded else '0'}\r\n"
                f"X-Agar-Chunks: {','.join(map(str, indices))}\r\n"
            ).encode("latin-1")
        return lines + (f"X-Agar-Model-Ms: {result.latency_ms!r}\r\n"
                        f"{tail}").encode("latin-1")

    def _put_object(self, request: HttpRequest) -> Answer:
        key = self._object_key(request.path)
        body = request.body
        if not body:
            raise ProtocolError(400, "empty object body")
        store = self.store
        try:
            existing = store.metadata(key)
        except ObjectNotFoundError:
            existing = None
        if existing is not None and existing.size != len(body):
            # Size is immutable: per-key read plans cache chunk counts and
            # expected latencies derived from it.
            raise ProtocolError(
                409, f"object {key!r} exists with size {existing.size}")
        version = existing.version + 1 if existing is not None else 1
        store.put(key, body, version=version)
        if existing is not None:
            # No request can ask for the superseded version again.
            self._body_cache.pop((key, existing.version), None)
        self.puts_total += 1
        return 204 if existing is not None else 201, b"", _TEXT, b""

    # ------------------------------------------------------------------ #
    # Introspection routes
    # ------------------------------------------------------------------ #
    def _get_stats(self, request: HttpRequest) -> Answer:
        summary = self.wire_stats.summary()
        payload = {
            "region": self.region,
            "requests_total": self.requests_total,
            "puts_total": self.puts_total,
            "errors_total": self.errors_total,
            "ledger_entries": len(self.ledger),
            "wire": dict(summary,
                         count=self.wire_stats.count,
                         p50_ms=summary["median_latency_ms"],
                         p95_ms=summary["p95_latency_ms"],
                         p99_ms=summary["p99_latency_ms"]),
        }
        return 200, json.dumps(payload).encode(), "application/json", b""

    def _get_ledger(self, request: HttpRequest) -> Answer:
        start = parse_decimal(request.query.get("start", "0"))
        if start is None:
            raise ProtocolError(400, "invalid ledger start")
        return 200, self.ledger.lines(start).encode(), _TEXT, b""

    # ------------------------------------------------------------------ #
    # Admin routes (trace replay)
    # ------------------------------------------------------------------ #
    def _admin_tick(self, request: HttpRequest) -> Answer:
        if request.body:
            raise ProtocolError(400, "tick takes no body")
        at = self._request_time(request)
        self.strategy.tick(at)
        self.ledger.append(tick_entry(at))
        return 200, b"", _TEXT, b""

    def _admin_fault(self, request: HttpRequest) -> Answer:
        """Install a fault state: precompiled by index, or dynamic by body.

        The index form (``?index=k``) installs entry ``k`` of the schedule
        the cluster was deployed with — the trace-replay path.  The body
        form POSTs a fault window in the wire form of
        :func:`~repro.sim.faults.fault_from_dict` (times relative to cluster
        start) which is validated like an engine-side :class:`FaultSchedule`
        — malformed definitions get a 400, windows overlapping an
        already-installed dynamic window of the same kind and region get a
        409 — and then compiled into lazily applied transitions
        (``fault_index=-2`` ledger entries).  Mixing both forms in one
        request is a 400.
        """
        index_text = request.query.get("index")
        if index_text is not None and request.body:
            raise ProtocolError(
                400, "pass either a fault index or a fault body, not both")
        if index_text is None and not request.body:
            raise ProtocolError(400, "missing fault index")
        if index_text is not None:
            try:
                index = int(index_text)
            except ValueError:
                raise ProtocolError(400, "invalid fault index") from None
            if not 0 <= index < len(self._fault_states):
                raise ProtocolError(400, f"fault index {index} out of range")
            at = self._request_time(request)
            self._install_fault_state(self._fault_states[index], at, index)
            return 200, b"", _TEXT, b""
        try:
            fault = fault_from_dict(json.loads(request.body),
                                    self.store.topology.has_region)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ProtocolError(400, "malformed fault body (not JSON)") from None
        except ValueError as error:
            raise ProtocolError(400, str(error)) from None
        try:
            schedule = FaultSchedule([*self._dynamic_faults, fault])
        except ValueError as error:
            # The same overlap rule the engine enforces at config time:
            # same-kind same-region windows must not overlap.
            raise ProtocolError(409, str(error)) from None
        at = self._request_time(request)
        self._dynamic_faults.append(fault)
        self._dynamic_transitions = [
            (when, state) for when, state in schedule.transitions if when > at]
        self._install_fault_state(schedule.state_at(at), at,
                                  DYNAMIC_FAULT_INDEX)
        payload = {"installed": len(self._dynamic_faults),
                   "pending_transitions": len(self._dynamic_transitions)}
        return 200, json.dumps(payload).encode(), "application/json", b""


#: Every route the gateway serves, one row each: method, path, handler.  The
#: ``/objects/`` rows match by prefix (``/objects/<key>``), the others the
#: whole path.  ``_dispatch`` answers a path no row of the request's method
#: names with a 404, and a method no row names with a 405.
ROUTES = (
    ("GET", _OBJECTS_PREFIX, RegionGateway._get_object),
    ("PUT", _OBJECTS_PREFIX, RegionGateway._put_object),
    ("GET", "/healthz", lambda gateway, request: (200, b"ok\n", _TEXT, b"")),
    ("GET", "/stats", RegionGateway._get_stats),
    ("GET", "/ledger", RegionGateway._get_ledger),
    ("POST", "/admin/tick", RegionGateway._admin_tick),
    ("POST", "/admin/fault", RegionGateway._admin_fault),
)
_ROUTES = {(method, path): handler for method, path, handler in ROUTES}
_METHODS = frozenset(method for method, _ in _ROUTES)


class ServeCluster:
    """One gateway per region, deployed exactly like a seeded engine run."""

    def __init__(self, config: EngineConfig, deployment: EngineDeployment,
                 gateways: dict[str, RegionGateway],
                 epoch: float | None = None,
                 neighbor_profiles: dict[str, tuple[float, float]] | None = None,
                 ) -> None:
        self.config = config
        self.deployment = deployment
        self.gateways = gateways
        self.epoch = time.perf_counter() if epoch is None else epoch
        self._neighbor_profiles = neighbor_profiles

    @classmethod
    def from_config(cls, config: EngineConfig, *, seed: int | None = None,
                    payloads: bool = False,
                    settings: GatewaySettings | None = None) -> "ServeCluster":
        """Deploy gateways from an engine config, in the engine's own order.

        Mirrors :meth:`EventEngine.run` deployment-side: reseed the shared
        jitter stream with ``topology_seed + seed``, build the store and the
        strategies in region order, install the initial fault state, and hand
        reconfiguration to the external driver when the config resolves to
        timer mode.  With ``payloads=True`` the store carries real encoded
        bytes (placement — and thus every decision — is unchanged).

        §VI collaboration and active resilience configs deploy like any
        other; their ledgers document what happened rather than what a seeded
        engine run would reproduce (see the module docstring).
        """
        names = [spec.region for spec in config.regions]
        if len(set(names)) != len(names):
            raise ValueError("serving tier requires unique region names")
        engine = EventEngine(config)
        effective_seed = (config.workload.seed if seed is None else seed)
        engine.topology.latency.reseed(config.topology_seed + effective_seed)
        deployment = engine.build_deployment(payloads=payloads)
        if config.uses_timer_reconfiguration:
            for strategy in deployment.strategies:
                strategy.set_external_reconfiguration(True)
        neighbor_profiles = (engine._neighbor_profiles()
                             if config.collaboration else None)
        faults = config.faults
        fault_states = ()
        if faults is not None and not faults.is_empty:
            fault_states = tuple(state for _, state in faults.transitions)
        settings = settings or GatewaySettings()
        epoch = time.perf_counter()
        gateways = {
            spec.region: RegionGateway(
                spec.region, strategy, deployment.store, deployment.clock,
                fault_states=fault_states, settings=settings, epoch=epoch)
            for spec, strategy in zip(config.regions, deployment.strategies)
        }
        if faults is not None and not faults.is_empty:
            # The engine's t=0 install, ledgered with ``fault_index=-1``.
            for name in names:
                gateways[name]._install_fault_state(
                    faults.initial_state, 0.0, -1)
        return cls(config, deployment, gateways, epoch=epoch,
                   neighbor_profiles=neighbor_profiles)

    # ------------------------------------------------------------------ #
    # Cluster time and recovery support
    # ------------------------------------------------------------------ #
    def now_s(self) -> float:
        """Wall-mode cluster time: seconds since deployment, clock-monotone."""
        at = time.perf_counter() - self.epoch
        return at if at > self.deployment.clock._now_s \
            else self.deployment.clock._now_s

    def region_index(self, region: str) -> int:
        for index, spec in enumerate(self.config.regions):
            if spec.region == region:
                return index
        raise KeyError(f"unknown region {region!r}")

    def rebuild_strategy(self, region: str):
        """A fresh strategy for ``region``, as a cold restart would build it.

        Shares the live store and clock (those model the durable backend and
        real time, which survive a gateway process death) but starts with an
        empty cache, cold popularity state and no pinned configuration —
        exactly the state a restarted process boots into.  The supervisor's
        warm-recovery protocol then replays the ledger tail on top.
        """
        strategy = make_region_strategy(
            self.config, self.config.regions[self.region_index(region)],
            self.deployment.store, self.deployment.clock)
        if self.config.uses_timer_reconfiguration:
            strategy.set_external_reconfiguration(True)
        return strategy

    def adopt_gateway(self, region: str, gateway: RegionGateway) -> None:
        """Swap a recovered gateway (and its strategy) into the cluster."""
        self.gateways[region] = gateway
        self.deployment.strategies[self.region_index(region)] = gateway.strategy

    def run_collaboration_round(self, now: float | None = None) -> None:
        """One §VI collaborative reconfiguration round over the live cluster.

        Record mode only (collaboration never deploys in replay mode): runs
        the coordinator's staggered round and installs the fresh neighbour
        catalogs, so subsequent reads may be served from neighbour caches —
        the wire twin of the engine's collaboration-period timer.
        """
        coordinator = self.deployment.coordinator
        if coordinator is None:
            raise RuntimeError("cluster deployed without collaboration")
        at = self.now_s() if now is None else now
        coordinator.reconfigure_all(at)
        _install_neighbor_catalogs(self.deployment, self._neighbor_profiles)
        for gateway in self.gateways.values():
            gateway.ledger.append(tick_entry(at))

    @property
    def addresses(self) -> dict[str, tuple[str, int]]:
        """Region name → bound ``(host, port)`` (after :meth:`start`)."""
        out = {}
        for name, gateway in self.gateways.items():
            if gateway.port is None:
                raise RuntimeError("cluster not started")
            out[name] = (gateway.settings.host, gateway.port)
        return out

    async def start(self) -> dict[str, tuple[str, int]]:
        for gateway in self.gateways.values():
            await gateway.start()
        return self.addresses

    async def stop(self) -> None:
        for gateway in self.gateways.values():
            await gateway.stop()

    async def __aenter__(self) -> "ServeCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    def ledgers(self) -> dict[str, list[LedgerEntry]]:
        """Per-region decision ledgers recorded so far."""
        return {name: list(gateway.ledger)
                for name, gateway in self.gateways.items()}
