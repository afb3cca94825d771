"""Drive a reconstructed trace through live gateways over real sockets.

One connection per region, operations sent strictly in trace order.  The
requests are pipelined in bounded windows — the gateway processes each
connection's bytes in order, so pipelining preserves the per-region decision
sequence while keeping the replay fast.  Reads carry their simulated
timestamp in ``X-Replay-At``; ticks and fault installs go through the admin
endpoints with ``at=`` timestamps.  Afterwards each gateway's ledger is
fetched and returned for comparison against the simulation's expected
ledgers.
"""

from __future__ import annotations

import asyncio
from typing import Mapping

from repro.serve.ledger import LedgerEntry, ledger_from_lines
from repro.serve.protocol import parse_response
from repro.serve.trace import KIND_FAULT, KIND_READ, SimTrace

_WINDOW = 128


def _op_request(op) -> bytes:
    at = repr(op.at)
    if op.kind == KIND_READ:
        return (f"GET /objects/{op.key} HTTP/1.1\r\n"
                f"Host: replay\r\nX-Replay-At: {at}\r\n\r\n").encode()
    if op.kind == KIND_FAULT:
        return (f"POST /admin/fault?index={op.fault_index}&at={at} "
                f"HTTP/1.1\r\nHost: replay\r\n\r\n").encode()
    return (f"POST /admin/tick?at={at} HTTP/1.1\r\n"
            f"Host: replay\r\n\r\n").encode()


async def _read_responses(reader: asyncio.StreamReader, count: int,
                          region: str) -> None:
    """Consume ``count`` pipelined responses, failing on transport errors.

    Application-level outcomes are allowed to differ per op (a faulted read
    answers 503); only malformed transport or 4xx on admin/read routes —
    which would mean the replay itself is broken — raise.
    """
    buffer = bytearray()
    seen = 0
    offset = 0
    while seen < count:
        parsed = parse_response(buffer, offset)
        if parsed is None:
            if offset:
                del buffer[:offset]
                offset = 0
            data = await reader.read(1 << 16)
            if not data:
                raise ConnectionError(
                    f"gateway {region!r} closed mid-replay "
                    f"({seen}/{count} responses)")
            buffer += data
            continue
        (status, _headers, _body), offset = parsed
        if status not in (200, 503):
            raise RuntimeError(
                f"replay op {seen} on region {region!r} answered {status}")
        seen += 1


async def _replay_region(region: str, address: tuple[str, int],
                         ops) -> list[LedgerEntry]:
    reader, writer = await asyncio.open_connection(*address)
    try:
        for start in range(0, len(ops), _WINDOW):
            window = ops[start:start + _WINDOW]
            writer.write(b"".join(_op_request(op) for op in window))
            await writer.drain()
            await _read_responses(reader, len(window), region)
        writer.write(b"GET /ledger HTTP/1.1\r\nHost: replay\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        parsed = parse_response(raw)
        if parsed is None:
            raise ConnectionError(f"gateway {region!r} truncated its ledger")
        (status, _headers, body), _ = parsed
        if status != 200:
            raise RuntimeError(f"ledger fetch on {region!r} answered {status}")
        return ledger_from_lines(body.decode())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def replay_trace(addresses: Mapping[str, tuple[str, int]],
                       trace: SimTrace) -> dict[str, list[LedgerEntry]]:
    """Replay every region's ops concurrently; return the live ledgers.

    Concurrency across regions is safe: each gateway applies an operation's
    timestamp and decision atomically within one event-loop step, and no
    decision state is shared between regions except the store (immutable
    during replay) and the clock (written per op, before use).
    """
    missing = [name for name in trace.regions if name not in addresses]
    if missing:
        raise ValueError(f"no gateway addresses for regions {missing}")
    names = list(trace.regions)
    results = await asyncio.gather(*(
        _replay_region(name, addresses[name], trace.regions[name])
        for name in names))
    return dict(zip(names, results))
