"""Drive a reconstructed trace through live gateways over real sockets.

One connection per region, operations sent strictly in trace order.  The
requests are pipelined in bounded windows — the gateway processes each
connection's bytes in order, so pipelining preserves the per-region decision
sequence while keeping the replay fast.  Reads carry their simulated
timestamp in ``X-Replay-At``; ticks and fault installs go through the admin
endpoints with ``at=`` timestamps.  Afterwards each gateway's ledger is
fetched on the same connection and returned for comparison against the
simulation's expected ledgers.
"""

from __future__ import annotations

import asyncio
from typing import Mapping

from repro.serve.ledger import (KIND_FAULT, KIND_READ, LedgerEntry,
                                ledger_from_lines)
from repro.serve.protocol import hang_up, read_response, render_request
from repro.serve.trace import SimTrace

_WINDOW = 128


def _op_request(op) -> bytes:
    at = repr(op.at)
    if op.kind == KIND_READ:
        return render_request("GET", f"/objects/{op.key}", "replay",
                              {"X-Replay-At": at})
    if op.kind == KIND_FAULT:
        return render_request(
            "POST", f"/admin/fault?index={op.fault_index}&at={at}", "replay")
    return render_request("POST", f"/admin/tick?at={at}", "replay")


async def _read_responses(reader: asyncio.StreamReader, buffer: bytearray,
                          count: int, region: str) -> None:
    """Consume ``count`` pipelined responses, failing on transport errors.

    Application-level outcomes are allowed to differ per op (a faulted read
    answers 503); only a closed connection or 4xx on admin/read routes —
    which would mean the replay itself is broken — raise.
    """
    for seen in range(count):
        try:
            status, _headers, _body = await read_response(reader, buffer)
        except ConnectionError:
            raise ConnectionError(
                f"gateway {region!r} closed mid-replay "
                f"({seen}/{count} responses)") from None
        if status not in (200, 503):
            raise RuntimeError(
                f"replay op {seen} on region {region!r} answered {status}")


async def _replay_region(region: str, address: tuple[str, int],
                         ops) -> list[LedgerEntry]:
    reader, writer = await asyncio.open_connection(*address)
    buffer = bytearray()
    try:
        for start in range(0, len(ops), _WINDOW):
            window = ops[start:start + _WINDOW]
            writer.write(b"".join(_op_request(op) for op in window))
            await writer.drain()
            await _read_responses(reader, buffer, len(window), region)
        writer.write(render_request("GET", "/ledger", "replay"))
        await writer.drain()
        try:
            status, _headers, body = await read_response(reader, buffer)
        except ConnectionError:
            raise ConnectionError(
                f"gateway {region!r} truncated its ledger") from None
        if status != 200:
            raise RuntimeError(f"ledger fetch on {region!r} answered {status}")
        return ledger_from_lines(body.decode())
    finally:
        await hang_up(writer)


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
