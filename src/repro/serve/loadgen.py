"""Wire-level load generation against live gateways.

Repurposes the workload machinery the event engine runs on — the same
Zipfian/uniform rank streams (:func:`generate_request_ranks`, one stream per
connection seeded like an engine lane) and the same
:class:`~repro.workload.workload.ArrivalSpec` pacing — but issues real HTTP
requests over real sockets and measures *wall-clock* latency into the same
:class:`~repro.client.stats.LatencyStats` the simulated reports use.

Closed loop keeps ``pipeline_depth`` requests in flight per connection
(YCSB-style, but windowed so one core can be saturated without one-at-a-time
round trips).  Open loop (Poisson) pre-draws each connection's arrival
schedule and records latency from the *scheduled* send time, the standard
coordinated-omission-free convention for open-loop generators.

With a :class:`WireResilience` policy on the spec, each connection becomes a
**resilient client** — the wire port of the simulator's
:class:`~repro.client.resilience.ResilienceConfig` semantics:

* per-request deadlines from an EWMA-quantile tracker of the home
  gateway's p95, times :data:`TIMEOUT_FACTOR` (``base_timeout_ms`` until the
  tracker warms up);
* deterministic seeded exponential backoff between reconnect attempts
  (:class:`~repro.client.resilience.BackoffPolicy`, keyed by lane);
* **failover**: requests that exhaust :data:`RETRY_BUDGET` against a dead or
  stalled home gateway complete against the spare gateway instead.

Retries flow into the shared :class:`LatencyStats` counters;
connection-level accounting (opens, reconnects, requests per connection,
timeouts, failovers) lands in :class:`ConnectionStats` — both surface in
:func:`wire_report_table`.  The conservation invariant of a resilient run is
``stats.count + stats.unavailable_reads + connections.failed_over ==
requests``: every intended request is recorded exactly once, as a measured
read, an unavailable read, or a failover completion.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.analysis.report import Table
from repro.client.resilience import BackoffPolicy, EwmaQuantileTracker
from repro.client.stats import HitType, LatencyStats, ReadResult
from repro.serve.protocol import (ProtocolError, hang_up, parse_read_headers,
                                  pop_response, read_response, render_request)
from repro.workload.workload import (ArrivalSpec, WorkloadSpec,
                                     generate_request_ranks)

#: Per-connection seed stride; mirrors the engine's lane seeding so
#: connection 0 replays exactly the single-client stream.
CONNECTION_SEED_STRIDE = 7919


#: Resends of one request (across reconnects) before it fails over to the
#: spare gateway.
RETRY_BUDGET = 2
#: Floor under the tracked deadline.
MIN_TIMEOUT_MS = 20.0
#: A warmed-up deadline is the home gateway's tracked p95 times this.
TIMEOUT_FACTOR = 4.0


@dataclass(frozen=True, slots=True)
class WireResilience:
    """Resilient wire-client policy (the wire port of ResilienceConfig).

    Attributes:
        base_timeout_ms: per-request deadline before the home gateway's
            latency tracker warms up; also bounds each spare read.
        backoff_cap_ms: ceiling on any single reconnect backoff sleep (a
            wire client facing a supervised cluster should re-probe briskly).
    """

    base_timeout_ms: float = 250.0
    backoff_cap_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.base_timeout_ms <= 0:
            raise ValueError("base_timeout_ms must be positive")


@dataclass(slots=True)
class ConnectionStats:
    """Keep-alive and resilience accounting for one region's wire run."""

    connections_opened: int = 0
    reconnects: int = 0
    requests_sent: int = 0       #: wire sends, including resends
    timeouts: int = 0            #: deadline expiries that forced a reconnect
    failed_over: int = 0         #: requests completed via the spare gateway

    @property
    def requests_per_connection(self) -> float:
        """Mean requests sent per opened connection (keep-alive reuse)."""
        if self.connections_opened == 0:
            return 0.0
        return self.requests_sent / self.connections_opened


@dataclass(slots=True)
class WireLoadSpec:
    """One region's wire workload: streams, pacing and connection shape."""

    workload: WorkloadSpec
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    connections: int = 4
    pipeline_depth: int = 32
    requests_per_connection: int | None = None
    resilience: WireResilience | None = None
    keep_samples: bool = False

    def connection_requests(self) -> int:
        """Requests each connection issues."""
        if self.requests_per_connection is not None:
            return self.requests_per_connection
        per = -(-self.workload.request_count // max(self.connections, 1))
        return max(per, 1)


@dataclass(slots=True)
class RegionWireResult:
    """Measured outcome of one region's wire run."""

    region: str
    stats: LatencyStats
    duration_s: float
    requests: int
    errors: int
    connections: ConnectionStats = field(default_factory=ConnectionStats)
    samples: list = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.stats.throughput_rps(self.duration_s)

    @property
    def availability(self) -> float:
        """Fraction of intended requests that completed somewhere."""
        if self.requests == 0:
            return 1.0
        completed = self.stats.count + self.connections.failed_over
        return completed / self.requests


def _request_bytes(key: str) -> bytes:
    return render_request("GET", f"/objects/{key}", "loadgen")


class _RegionRun:
    """Shared accounting for one region's worker connections."""

    __slots__ = ("stats", "errors", "connections", "samples")

    def __init__(self, keep_samples: bool = False) -> None:
        self.stats = LatencyStats()
        self.errors = 0
        self.connections = ConnectionStats()
        self.samples: list[ReadResult] | None = [] if keep_samples else None

    def record(self, latency_ms: float, status: int,
               headers: Mapping[str, str], *, key: str = "",
               started_at_s: float = 0.0, retries: int = 0) -> None:
        """One response: a read as its ``X-Agar-*`` headers tell it, or an
        error when its status is neither 200 nor 503 or a header is missing
        or malformed."""
        if status != 200 and status != 503:
            self.errors += 1
            return
        try:
            decision = parse_read_headers(headers)
        except ValueError:
            self.errors += 1
            return
        self.add(ReadResult(key, latency_ms, started_at_s=started_at_s,
                            failed=status == 503, retries=retries,
                            **decision))

    def add(self, result: ReadResult) -> None:
        """Record one read, and keep it when the run keeps samples."""
        self.stats.record(result)
        if self.samples is not None:
            self.samples.append(result)


async def _drain_responses(reader: asyncio.StreamReader, buffer: bytearray,
                           pending: deque, run: _RegionRun,
                           origin: float) -> int:
    """Consume the next response and every further one already buffered.

    Returns the number of responses consumed — callers must count completions
    from this value, not from ``len(pending)`` deltas, because a concurrent
    sender task may append to ``pending`` while this coroutine awaits.
    """
    perf = time.perf_counter
    consumed = 0
    response = await read_response(reader, buffer)
    while response is not None:
        status, headers, _body = response
        started, key = pending.popleft()
        run.record((perf() - started) * 1000.0, status, headers, key=key,
                   started_at_s=started - origin)
        consumed += 1
        response = pop_response(buffer)
    return consumed


async def _closed_worker(address: tuple[str, int], keys: list[str],
                         depth: int, run: _RegionRun, origin: float) -> None:
    reader, writer = await asyncio.open_connection(*address)
    run.connections.connections_opened += 1
    perf = time.perf_counter
    buffer = bytearray()
    pending: deque[tuple[float, str]] = deque()
    total = len(keys)
    sent = 0
    done = 0
    # Zipfian streams repeat keys heavily; render each request once.
    rendered: dict[str, bytes] = {}
    try:
        while done < total:
            if sent < total and len(pending) < depth:
                batch = []
                now = perf()
                while sent < total and len(pending) < depth:
                    key = keys[sent]
                    request = rendered.get(key)
                    if request is None:
                        rendered[key] = request = _request_bytes(key)
                    batch.append(request)
                    pending.append((now, key))
                    sent += 1
                writer.write(b"".join(batch))
            await writer.drain()
            done += await _drain_responses(reader, buffer, pending, run,
                                           origin)
    finally:
        run.connections.requests_sent += sent
        await hang_up(writer)


async def _open_worker(address: tuple[str, int], keys: list[str],
                       schedule: np.ndarray, run: _RegionRun,
                       run_origin: float) -> None:
    reader, writer = await asyncio.open_connection(*address)
    run.connections.connections_opened += 1
    perf = time.perf_counter
    buffer = bytearray()
    pending: deque[tuple[float, str]] = deque()
    total = len(keys)
    origin = perf()
    absolute = origin + schedule
    sent_total = 0

    async def sender() -> None:
        nonlocal sent_total
        position = 0
        while position < total:
            now = perf()
            wrote = False
            while position < total and absolute[position] <= now:
                writer.write(_request_bytes(keys[position]))
                pending.append((absolute[position], keys[position]))
                position += 1
                wrote = True
            if wrote:
                sent_total = position
                await writer.drain()
            if position < total:
                await asyncio.sleep(
                    max(absolute[position] - perf(), 0.0))

    async def receiver() -> None:
        done = 0
        while done < total:
            if not pending:
                await asyncio.sleep(0.001)
                continue
            done += await _drain_responses(reader, buffer, pending, run,
                                           run_origin)

    try:
        await asyncio.gather(sender(), receiver())
    finally:
        run.connections.requests_sent += sent_total
        await hang_up(writer)


# --------------------------------------------------------------------- #
# Resilient wire client
# --------------------------------------------------------------------- #
class _Pending:
    """One intended request's lifecycle across resends."""

    __slots__ = ("key", "origin", "sent_at", "attempts")

    def __init__(self, key: str, origin: float, sent_at: float) -> None:
        self.key = key
        self.origin = origin     #: perf time latency is measured from
        self.sent_at = sent_at   #: perf time of the latest (re)send
        self.attempts = 0        #: resends after the first send


class _ResilientWorker:
    """One connection's resilient request loop (closed or open loop).

    A single sequential task owns the home connection: it sends due
    requests, consumes pipelined responses, and reacts to deadline expiry,
    connection loss and gateway refusal by reconnecting with deterministic
    backoff, resending undone requests in order, and failing requests over
    to the spare gateway once their budget is spent.  Response alignment is
    positional (HTTP/1.1 pipelining), so ``pending`` holds exactly the
    undone requests of the home connection, oldest first, and a reconnect
    voids the old pipeline: every pending request is resent.
    """

    def __init__(self, address, spare, keys, schedule, depth,
                 run: _RegionRun, res: WireResilience, lane: int,
                 run_origin: float) -> None:
        self.address = address
        self.spare = spare
        self.keys = keys
        self.schedule = schedule      # absolute perf send times, or None
        self.depth = depth
        self.region_run = run
        self.res = res
        self.lane = lane
        self.run_origin = run_origin
        self.backoff = BackoffPolicy()
        #: The home gateway's p95, which the deadline scales.
        self.tracker = EwmaQuantileTracker()
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.buffer = bytearray()
        self.pending: deque[_Pending] = deque()
        self.sent = 0
        self.finished = 0
        self.connect_failures = 0
        self.ever_connected = False
        self.rendered: dict[str, bytes] = {}
        self.read_task: asyncio.Task | None = None
        self.spare_reader: asyncio.StreamReader | None = None
        self.spare_writer: asyncio.StreamWriter | None = None
        self.spare_buffer = bytearray()

    def _render(self, key: str) -> bytes:
        request = self.rendered.get(key)
        if request is None:
            self.rendered[key] = request = _request_bytes(key)
        return request

    def _timeout_s(self) -> float:
        tracker = self.tracker
        if tracker.ready:
            return max(tracker.estimate * TIMEOUT_FACTOR,
                       MIN_TIMEOUT_MS) / 1000.0
        return self.res.base_timeout_ms / 1000.0

    def _finish(self, entry: _Pending, status: int, headers) -> None:
        self.finished += 1
        latency_ms = (time.perf_counter() - entry.origin) * 1000.0
        self.region_run.record(latency_ms, status, headers, key=entry.key,
                        started_at_s=entry.origin - self.run_origin,
                        retries=entry.attempts)

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def _lost_connection(self) -> None:
        if self.writer is not None:
            transport = self.writer.transport
            if transport is not None:
                transport.abort()
        self.writer = None
        self.reader = None
        self.buffer.clear()
        if self.read_task is not None:
            self.read_task.cancel()
            self.read_task = None

    async def _reconnect(self) -> None:
        """One reconnect attempt; on repeated refusal, drain via the spare."""
        conn = self.region_run.connections
        try:
            self.reader, self.writer = await asyncio.open_connection(
                *self.address)
        except OSError:
            self.connect_failures += 1
            if (self.spare is not None
                    and self.connect_failures > RETRY_BUDGET):
                await self._drain_via_spare()
            delay_ms = self.backoff.delay_ms(
                self.lane, min(self.connect_failures, 16))
            delay_ms = min(max(delay_ms, 1.0), self.res.backoff_cap_ms)
            await asyncio.sleep(delay_ms / 1000.0)
            return
        conn.connections_opened += 1
        if self.ever_connected:
            conn.reconnects += 1
        self.ever_connected = True
        self.connect_failures = 0
        self.buffer.clear()
        # The old pipeline is void: resend every pending entry in order
        # (reads are idempotent); budget-exhausted entries fail over instead.
        survivors: deque[_Pending] = deque()
        batch: list[bytes] = []
        now = time.perf_counter()
        for entry in self.pending:
            entry.attempts += 1
            if entry.attempts > RETRY_BUDGET and self.spare is not None:
                await self._failover(entry)
                continue
            entry.sent_at = now
            survivors.append(entry)
            batch.append(self._render(entry.key))
        self.pending = survivors
        if batch:
            conn.requests_sent += len(batch)
            try:
                self.writer.write(b"".join(batch))
                await self.writer.drain()
            except (OSError, ConnectionError):
                self._lost_connection()

    async def _drain_via_spare(self) -> None:
        """Home is refusing connections: push stuck work to the spare."""
        survivors: deque[_Pending] = deque()
        for entry in self.pending:
            entry.attempts += 1
            if entry.attempts > RETRY_BUDGET:
                await self._failover(entry)
            else:
                survivors.append(entry)
        self.pending = survivors
        # New work that came due during the outage goes straight over,
        # one pipeline window at a time so a brief crash does not dump the
        # whole stream onto the spare.
        moved = 0
        perf = time.perf_counter
        total = len(self.keys)
        while self.sent < total and moved < self.depth:
            now = perf()
            if self.schedule is None:
                if self.pending:
                    break
                origin = now
            else:
                if self.schedule[self.sent] > now:
                    break
                origin = float(self.schedule[self.sent])
            entry = _Pending(self.keys[self.sent], origin, now)
            entry.attempts = RETRY_BUDGET + 1
            self.sent += 1
            moved += 1
            await self._failover(entry)

    async def _failover(self, entry: _Pending) -> None:
        """Complete one entry via the spare gateway (or as unavailable)."""
        self.finished += 1
        if await self._spare_fetch(entry.key):
            self.region_run.connections.failed_over += 1
            return
        # Both endpoints unreachable: an honest unavailable read.
        self.region_run.add(ReadResult(
            entry.key, 0.0, HitType.MISS, 0, 0,
            started_at_s=entry.origin - self.run_origin, failed=True,
            retries=entry.attempts))

    async def _spare_fetch(self, key: str) -> bool:
        """One request over the persistent spare connection (two attempts).

        True once the spare has answered, whatever its status.
        """
        if self.spare is None:
            return False
        conn = self.region_run.connections
        request = self._render(key)
        timeout_s = self.res.base_timeout_ms / 1000.0
        for _ in range(2):
            if self.spare_writer is None:
                try:
                    self.spare_reader, self.spare_writer = (
                        await asyncio.open_connection(*self.spare))
                except OSError:
                    await asyncio.sleep(0.005)
                    continue
                conn.connections_opened += 1
                self.spare_buffer.clear()
            try:
                self.spare_writer.write(request)
                await self.spare_writer.drain()
                conn.requests_sent += 1
                await asyncio.wait_for(
                    read_response(self.spare_reader, self.spare_buffer),
                    timeout=timeout_s)
                return True
            except (OSError, asyncio.TimeoutError, ProtocolError):
                transport = self.spare_writer.transport
                if transport is not None:
                    transport.abort()
                self.spare_writer = None
                self.spare_reader = None
        return False

    # ------------------------------------------------------------------ #
    # Send / receive / timers
    # ------------------------------------------------------------------ #
    async def _send_due(self) -> None:
        total = len(self.keys)
        batch: list[bytes] = []
        now = time.perf_counter()
        while self.sent < total:
            if self.schedule is None:
                if len(self.pending) >= self.depth:
                    break
                origin = now
            else:
                if self.schedule[self.sent] > now:
                    break
                origin = float(self.schedule[self.sent])
            entry = _Pending(self.keys[self.sent], origin, now)
            self.pending.append(entry)
            batch.append(self._render(entry.key))
            self.sent += 1
        if batch:
            self.region_run.connections.requests_sent += len(batch)
            try:
                self.writer.write(b"".join(batch))
                await self.writer.drain()
            except (OSError, ConnectionError):
                self._lost_connection()

    def _consume(self, response) -> None:
        """Account ``response`` and every further one already buffered."""
        perf = time.perf_counter
        while response is not None:
            status, headers, _body = response
            response = pop_response(self.buffer)
            entry = self.pending.popleft()
            if status == 200:
                self.tracker.observe((perf() - entry.sent_at) * 1000.0)
            self._finish(entry, status, headers)

    async def _wait_for_event(self) -> None:
        perf = time.perf_counter
        wait_until = float("inf")
        if self.pending:
            wait_until = self.pending[0].sent_at + self._timeout_s()
        if self.schedule is not None and self.sent < len(self.keys):
            wait_until = min(wait_until, float(self.schedule[self.sent]))
        if wait_until == float("inf"):
            return  # closed loop with an empty window: send immediately
        if self.read_task is None:
            self.read_task = asyncio.ensure_future(
                read_response(self.reader, self.buffer))
        done, _ = await asyncio.wait({self.read_task},
                                     timeout=max(wait_until - perf(), 0.0))
        if done:
            task = self.read_task
            self.read_task = None
            try:
                response = task.result()
            except (OSError, ProtocolError):
                self._lost_connection()
                return
            self._consume(response)
        elif (self.pending
              and perf() >= self.pending[0].sent_at + self._timeout_s()):
            # Deadline expired: declare the connection suspect, force a
            # reconnect (which resends or fails over the stuck entries).
            self.region_run.connections.timeouts += 1
            self._lost_connection()

    async def run(self) -> None:
        total = len(self.keys)
        try:
            while self.finished < total:
                if self.writer is None:
                    await self._reconnect()
                    continue
                await self._send_due()
                if self.writer is None:
                    continue
                await self._wait_for_event()
        finally:
            if self.read_task is not None:
                self.read_task.cancel()
            for writer in (self.writer, self.spare_writer):
                if writer is not None:
                    await hang_up(writer)


async def run_wire_load(addresses: Mapping[str, tuple[str, int]],
                        spec: WireLoadSpec, seed: int = 0,
                        ) -> dict[str, RegionWireResult]:
    """Run the wire workload against every region concurrently."""
    results: dict[str, RegionWireResult] = {}
    per_connection = spec.connection_requests()
    ordered = list(addresses.items())

    async def _region(index: int, region: str,
                      address: tuple[str, int]) -> None:
        run = _RegionRun(keep_samples=spec.keep_samples)
        spare = (ordered[(index + 1) % len(ordered)][1]
                 if spec.resilience is not None and len(ordered) > 1
                 else None)
        origin = time.perf_counter()
        workers = []
        for connection in range(spec.connections):
            lane = index * spec.connections + connection
            lane_seed = seed + CONNECTION_SEED_STRIDE * lane
            ranks = generate_request_ranks(spec.workload, seed=lane_seed)
            keys = [spec.workload.key_for_rank(int(rank))
                    for rank in ranks[:per_connection]]
            schedule = None
            if spec.arrival.is_open_loop:
                rng = np.random.default_rng((lane_seed, 0x5e7e))
                gaps = rng.exponential(spec.arrival.mean_interarrival_s,
                                       len(keys))
                schedule = np.cumsum(gaps)
            if spec.resilience is not None:
                absolute = origin + schedule if schedule is not None else None
                workers.append(_ResilientWorker(
                    address, spare, keys, absolute, spec.pipeline_depth,
                    run, spec.resilience, lane, origin).run())
            elif schedule is not None:
                workers.append(_open_worker(address, keys, schedule, run,
                                            origin))
            else:
                workers.append(_closed_worker(address, keys,
                                              spec.pipeline_depth, run,
                                              origin))
        started = time.perf_counter()
        await asyncio.gather(*workers)
        duration = time.perf_counter() - started
        stats = run.stats
        results[region] = RegionWireResult(
            region=region, stats=stats, duration_s=duration,
            requests=per_connection * spec.connections, errors=run.errors,
            connections=run.connections,
            samples=run.samples if run.samples is not None else [])

    await asyncio.gather(*(
        _region(index, region, address)
        for index, (region, address) in enumerate(ordered)))
    return results


def wire_report_table(results: Mapping[str, RegionWireResult],
                      title: str = "Wire-level serving latency") -> Table:
    """The wire twin of the simulated report tables (same stats source)."""
    table = Table(title=title, columns=[
        "region", "requests", "req/s", "mean ms", "p50 ms", "p95 ms",
        "p99 ms", "hit %", "errors", "retries", "hedged", "failover",
        "conns", "req/conn", "reconn"])
    for region, result in results.items():
        stats = result.stats
        conn = result.connections
        table.add_row(
            region, result.requests, result.throughput_rps,
            stats.mean_latency_ms if stats.count else 0.0,
            stats.p50_latency_ms if stats.count else 0.0,
            stats.p95_latency_ms if stats.count else 0.0,
            stats.p99_latency_ms if stats.count else 0.0,
            stats.hit_ratio * 100.0,
            result.errors,
            stats.retries_total,
            stats.hedged_reads,
            conn.failed_over,
            conn.connections_opened,
            conn.requests_per_connection,
            conn.reconnects)
    return table
