"""The harness's own pipelined HTTP/1.1 client.

The wire workloads must offer the same load whatever happens to
``repro.serve.loadgen`` or ``repro.serve.protocol``, so this client imports
nothing from ``repro``: it samples keys itself, renders request bytes itself
and frames responses itself.  The gateway only ever receives generated bytes.

One :class:`WireClient` holds ``connections`` keep-alive sockets to one
gateway and replays a :class:`SlicePlan` closed-loop with ``depth`` requests
in flight per socket, on the caller's event loop and thread.  Every response
is checked before it counts: status, body length and body CRC32 against what
the harness knows the object holds.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

#: CRC32 of any ``data + crc32(data).to_bytes(4, "little")``: PUT bodies carry
#: their own checksum, so a GET that returns one verifies in a single pass.
_SELF_DESCRIBING_CRC = 0x2144DF1C

_READ_BYTES = 1 << 16


def sample_ranks(rng: np.random.Generator, objects: int, count: int,
                 skew: float | None) -> np.ndarray:
    """``count`` object ranks: Zipf with exponent ``skew``, uniform if None."""
    if skew is None:
        return rng.integers(0, objects, size=count)
    weights = np.arange(1, objects + 1, dtype=np.float64) ** -skew
    return rng.choice(objects, size=count, p=weights / weights.sum())


def put_body(rng: np.random.Generator, size: int) -> bytes:
    """A random ``size``-byte body whose last four bytes are its own CRC32."""
    data = rng.integers(0, 256, size=size - 4, dtype=np.uint8).tobytes()
    return data + zlib.crc32(data).to_bytes(4, "little")


GET, PUT, TICK = range(3)


@dataclass(slots=True)
class SlicePlan:
    """One slice's requests, rendered once and replayed identically each slice.

    Request ``i`` is of ``kinds[i]`` and touches object ``ranks[i]``; it goes
    out on connection ``i % connections``.  With ``tick`` the slice opens
    with a ``POST /admin/tick``: the gateway reconfigures synchronously while
    the rest of the first window queues behind it, as a timer tick would
    land in live traffic.
    """

    requests: list[bytes]
    ranks: list[int]
    kinds: list[int]

    @classmethod
    def build(cls, rng: np.random.Generator, *, objects: int, count: int,
              skew: float | None, put_share: float, object_size: int,
              tick: bool, key_prefix: str = "object") -> "SlicePlan":
        ranks = sample_ranks(rng, objects, count, skew).tolist()
        kinds = (rng.random(count) < put_share).astype(int).tolist()
        if tick:
            ranks[0], kinds[0] = -1, TICK
        requests = []
        for index, (rank, kind) in enumerate(zip(ranks, kinds)):
            tag = f"HTTP/1.1\r\nHost: bench\r\nX-Bench-Id: {index}\r\n"
            if kind == TICK:
                requests.append(f"POST /admin/tick {tag}\r\n".encode())
            elif kind == PUT:
                body = put_body(rng, object_size)
                head = (f"PUT /objects/{key_prefix}-{rank} {tag}"
                        f"Content-Length: {len(body)}\r\n\r\n")
                requests.append(head.encode() + body)
            else:
                requests.append(
                    f"GET /objects/{key_prefix}-{rank} {tag}\r\n".encode())
        return cls(requests, ranks, kinds)


@dataclass(slots=True)
class SliceTally:
    """What one replayed slice observed (all counts exact for a seed)."""

    attempted: int = 0
    failed: int = 0
    reads: int = 0
    hits: int = 0                  #: reads served with >= 1 cached chunk
    body_cached: int = 0           #: reads answered from the gateway body cache
    model_ms: list[float] = field(default_factory=list)
    latency_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(detail)


def _header(head: bytes, name: bytes) -> bytes:
    start = head.find(name)
    if start < 0:
        return b""
    start += len(name)
    end = head.find(b"\r\n", start)
    return head[start:] if end < 0 else head[start:end]


class _Connection:
    __slots__ = ("reader", "writer", "buffer", "indices", "sent", "done",
                 "sent_at")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.buffer = bytearray()
        self.indices: list[int] = []
        self.sent = 0
        self.done = 0
        self.sent_at: list[float] = []


class WireClient:
    """Closed-loop pipelined client for one gateway.

    ``object_crcs[rank]`` and ``object_size`` are what the populated store
    holds; once the client has sent a PUT for a rank, a GET of it may also
    return any self-describing body (another connection's PUT can land first).
    """

    def __init__(self, address: tuple[str, int], object_crcs: list[int],
                 object_size: int, connections: int, depth: int) -> None:
        self._address = address
        self._crcs = object_crcs
        self._size = object_size
        self._depth = depth
        self._count = connections
        self._connections: list[_Connection] = []
        self._put_sent = [False] * len(object_crcs)
        #: ``(request index, sent, verified)`` per request of the current
        #: slice; filled only while a tracer asks for it.
        self.request_log: list[tuple[int, float, float]] | None = None

    async def open(self) -> None:
        for _ in range(self._count):
            reader, writer = await asyncio.open_connection(*self._address)
            self._connections.append(_Connection(reader, writer))

    async def close(self) -> None:
        for connection in self._connections:
            connection.writer.close()
            await connection.writer.wait_closed()
        self._connections.clear()

    async def run_slice(self, plan: SlicePlan) -> SliceTally:
        tally = SliceTally()
        count = self._count
        for offset, connection in enumerate(self._connections):
            connection.indices = list(range(offset, len(plan.requests), count))
            connection.sent = connection.done = 0
            connection.sent_at = [0.0] * len(connection.indices)
        await asyncio.gather(*(self._replay(connection, plan, tally)
                               for connection in self._connections))
        return tally

    async def _replay(self, connection: _Connection, plan: SlicePlan,
                      tally: SliceTally) -> None:
        total = len(connection.indices)
        while connection.done < total:
            if (connection.sent < total
                    and connection.sent - connection.done <= self._depth // 2):
                self._send(connection, plan)
                await connection.writer.drain()
            data = await connection.reader.read(_READ_BYTES)
            if not data:
                raise ConnectionError("gateway closed during a slice")
            self._receive(connection, data, plan, tally)

    def _send(self, connection: _Connection, plan: SlicePlan) -> None:
        """Refill a half-drained pipeline to ``depth`` requests in one write."""
        stop = min(len(connection.indices), connection.done + self._depth)
        batch = connection.indices[connection.sent:stop]
        now = time.perf_counter()
        for position in range(connection.sent, stop):
            connection.sent_at[position] = now
        for index in batch:
            if plan.kinds[index] == PUT:
                self._put_sent[plan.ranks[index]] = True
        connection.writer.write(b"".join(plan.requests[index] for index in batch))
        connection.sent = stop

    def _receive(self, connection: _Connection, data: bytes, plan: SlicePlan,
                 tally: SliceTally) -> None:
        """Frame, verify and account every complete response in the buffer."""
        buffer = connection.buffer
        buffer += data
        offset = 0
        log = self.request_log
        while True:
            head_end = buffer.find(b"\r\n\r\n", offset)
            if head_end < 0:
                break
            head = bytes(buffer[offset:head_end])
            length = int(_header(head, b"\r\nContent-Length: ") or 0)
            body_start = head_end + 4
            body_end = body_start + length
            if len(buffer) < body_end:
                break
            with memoryview(buffer) as view:
                crc = zlib.crc32(view[body_start:body_end])
            offset = body_end
            index = connection.indices[connection.done]
            self._check(head, length, crc, plan.ranks[index],
                        plan.kinds[index], tally)
            now = time.perf_counter()
            sent_at = connection.sent_at[connection.done]
            tally.latency_ms.append((now - sent_at) * 1000.0)
            if log is not None:
                log.append((index, sent_at, now))
            connection.done += 1
        if offset:
            del buffer[:offset]

    def _check(self, head: bytes, length: int, crc: int, rank: int,
               kind: int, tally: SliceTally) -> None:
        tally.attempted += 1
        status = head[9:12]
        if kind == TICK:
            if status != b"200":
                tally.fail(f"tick: status {status!r}")
            return
        if kind == PUT:
            if status != b"204" and status != b"201":
                tally.fail(f"PUT object-{rank}: status {status!r}")
            return
        if status != b"200":
            tally.fail(f"GET object-{rank}: status {status!r}")
            return
        if length != self._size or not (
                crc == self._crcs[rank]
                or (self._put_sent[rank] and crc == _SELF_DESCRIBING_CRC)):
            tally.fail(f"GET object-{rank}: body mismatch "
                       f"({length} bytes, crc {crc:#010x})")
            return
        tally.reads += 1
        tally.model_ms.append(float(_header(head, b"\r\nX-Agar-Model-Ms: ")))
        if _header(head, b"\r\nX-Agar-Cache-Chunks: ") != b"0":
            tally.hits += 1
        if _header(head, b"\r\nX-Agar-Body: ") == b"cached":
            tally.body_cached += 1
