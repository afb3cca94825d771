"""Endpoint behavior of one region gateway over real loopback sockets."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.client.resilience import ResilienceConfig
from repro.client.stats import HitType, ReadResult
from repro.client.strategies import ClientConfig
from repro.serve import gateway as gateway_module
from repro.serve import protocol
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import ledger_from_lines
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.workload.workload import WorkloadSpec

from serve_helpers import (MEGABYTE, http_get, http_post, http_put, raw_exchange,
                           start_cluster, tiny_config)


def _request(text: str, body: bytes = b""):
    """One parsed request, as ``_serve_connection`` hands it to ``_dispatch``."""
    request, _ = protocol.parse_request(text.encode() + body)
    return request


def test_healthz_and_stats(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            status, _, body = await http_get(address, "/healthz")
            assert status == 200 and body == b"ok\n"

            for index in range(6):
                status, _, _ = await http_get(
                    address, f"/objects/object-{index % 2}")
                assert status == 200

            status, _, body = await http_get(address, "/stats")
            assert status == 200
            payload = json.loads(body)
            assert payload["region"] == "frankfurt"
            assert payload["ledger_entries"] == 6
            assert payload["wire"]["count"] == 6
            assert payload["wire"]["p99_ms"] >= payload["wire"]["p50_ms"]
        finally:
            await cluster.stop()

    run(scenario())


def test_stats_body_keys_types_and_counters(run):
    """The exact shape of ``/stats``: key order and value types at the top
    level and under ``wire``, with every counter that does not depend on
    the wall clock checked by value."""
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            for at, key in ((1.0, "object-0"), (2.0, "object-0"),
                            (3.0, "object-1")):
                status, _, _ = await http_get(address, f"/objects/{key}",
                                              {"X-Replay-At": repr(at)})
                assert status == 200
            status, _, _ = await http_get(address, "/objects/never-stored")
            assert status == 404
            status, _, _ = await http_put(address, "/objects/object-2",
                                          b"x" * (32 * 1024))
            assert status == 204
            status, headers, body = await http_get(address, "/stats")
            assert status == 200
            assert headers["content-type"] == "application/json"
            return json.loads(body)
        finally:
            await cluster.stop()

    payload = run(scenario())
    assert list(payload) == ["region", "requests_total", "puts_total",
                             "errors_total", "ledger_entries", "wire"]
    assert {name: payload[name] for name in list(payload)[:5]} == {
        "region": "frankfurt", "requests_total": 6, "puts_total": 1,
        "errors_total": 1, "ledger_entries": 3}
    wire = payload["wire"]
    assert list(wire) == [
        "reads", "mean_latency_ms", "median_latency_ms", "p95_latency_ms",
        "p99_latency_ms", "hit_ratio", "full_hit_ratio", "partial_hit_ratio",
        "cache_chunks", "backend_chunks", "neighbor_chunks",
        "degraded_reads", "unavailable_reads", "retries_total",
        "hedged_reads", "hedge_wins", "count", "p50_ms", "p95_ms", "p99_ms"]
    assert {name: type(value) for name, value in wire.items()} == dict(
        {name: float for name in wire}, count=int)
    wall_clock = {"mean_latency_ms", "median_latency_ms", "p95_latency_ms",
                  "p99_latency_ms", "p50_ms", "p95_ms", "p99_ms"}
    assert {name: value for name, value in wire.items()
            if name not in wall_clock} == {
        "reads": 3.0, "hit_ratio": 1 / 3, "full_hit_ratio": 0.0,
        "partial_hit_ratio": 1 / 3, "cache_chunks": 3.0,
        "backend_chunks": 24.0, "neighbor_chunks": 0.0,
        "degraded_reads": 0.0, "unavailable_reads": 0.0,
        "retries_total": 0.0, "hedged_reads": 0.0, "hedge_wins": 0.0,
        "count": 3}
    assert (wire["p50_ms"], wire["p95_ms"], wire["p99_ms"]) == (
        wire["median_latency_ms"], wire["p95_latency_ms"],
        wire["p99_latency_ms"])


def test_stats_sorts_the_latency_buffer_once(monkeypatch):
    """One ``/stats`` request sorts the recorded latencies once, and its
    percentiles are the ones :meth:`LatencyStats.percentile` gives."""
    cluster = ServeCluster.from_config(tiny_config())
    gateway = cluster.gateways["frankfurt"]
    latencies = np.random.default_rng(7).exponential(2.0, 1000)
    for latency in latencies:
        gateway.wire_stats.record(
            ReadResult("object-0", float(latency), HitType.MISS, 0, 9))
    sorts = []
    real_sort = np.sort

    def counting_sort(*args, **kwargs):
        sorts.append(args[0].shape)
        return real_sort(*args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    _, body = gateway._dispatch(_request("GET /stats HTTP/1.1\r\n\r\n"))
    assert sorts == [(1000,)]
    monkeypatch.undo()
    wire = json.loads(body)["wire"]
    stats = gateway.wire_stats
    assert (wire["p50_ms"], wire["p95_ms"], wire["p99_ms"]) == (
        stats.percentile(50.0), stats.percentile(95.0),
        stats.percentile(99.0))


#: The exact response to a method and path the gateway has no route for.
ROUTE_MISSES = {
    "PUT /nowhere": b"HTTP/1.1 404 Not Found\r\nContent-Length: 25\r\n"
                    b"Content-Type: text/plain\r\nConnection: keep-alive\r\n"
                    b"\r\nno route for PUT /nowhere",
    "POST /nowhere": b"HTTP/1.1 404 Not Found\r\nContent-Length: 26\r\n"
                     b"Content-Type: text/plain\r\nConnection: keep-alive\r\n"
                     b"\r\nno route for POST /nowhere",
    "POST /objects/object-0": b"HTTP/1.1 404 Not Found\r\nContent-Length: 35\r\n"
                              b"Content-Type: text/plain\r\n"
                              b"Connection: keep-alive\r\n"
                              b"\r\nno route for POST /objects/object-0",
    "GET /admin/tick": b"HTTP/1.1 404 Not Found\r\nContent-Length: 28\r\n"
                       b"Content-Type: text/plain\r\nConnection: keep-alive\r\n"
                       b"\r\nno route for GET /admin/tick",
    "HEAD /healthz": b"HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 25\r\n"
                     b"Content-Type: text/plain\r\nConnection: keep-alive\r\n"
                     b"\r\nmethod HEAD not supported",
}


@pytest.mark.parametrize("request_line", ROUTE_MISSES)
def test_route_misses_answer_exactly(run, request_line):
    """The bytes a gateway answers to a method and path it has no route
    for, over a socket, with the connection kept open."""
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            return await protocol.exchange(
                address, f"{request_line} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        finally:
            await cluster.stop()

    assert run(scenario()) == ROUTE_MISSES[request_line]


#: The exact response to a GET whose handler raised, by ``Connection`` header.
HANDLER_EXCEPTIONS = {
    "": b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 26\r\n"
        b"Content-Type: text/plain\r\nConnection: keep-alive\r\n"
        b"\r\nRuntimeError: disk on fire",
    "Connection: close\r\n": b"HTTP/1.1 500 Internal Server Error\r\n"
                               b"Content-Length: 26\r\n"
                               b"Content-Type: text/plain\r\n"
                               b"Connection: close\r\n"
                               b"\r\nRuntimeError: disk on fire",
}


@pytest.mark.parametrize("connection", HANDLER_EXCEPTIONS,
                         ids=["keep-alive", "close"])
def test_handler_exception_answers_500_exactly(run, monkeypatch, connection):
    """A handler that raises gets a 500 naming the exception, framed like
    every other response of the request, and counts as an error."""
    def read(key, at):
        raise RuntimeError("disk on fire")

    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            gateway = cluster.gateways["frankfurt"]
            monkeypatch.setattr(gateway.strategy, "read", read)
            reply = await protocol.exchange(
                cluster.addresses["frankfurt"],
                f"GET /objects/object-0 HTTP/1.1\r\nHost: t\r\n"
                f"{connection}\r\n".encode())
            return reply, gateway.errors_total
        finally:
            await cluster.stop()

    assert run(scenario()) == (HANDLER_EXCEPTIONS[connection], 1)


@pytest.mark.parametrize("request_bytes, connection", [
    (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", "keep-alive"),
    (b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
     "close"),
    (b"GET /healthz HTTP/1.0\r\n\r\n", "close"),
], ids=["http11", "http11-close", "http10"])
def test_healthz_answers_the_connection_the_request_asked_for(
        run, request_bytes, connection):
    """The health probe sends ``Connection: close``; the answer must say
    ``close`` too, as every other route's does."""
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            return await raw_exchange(cluster.addresses["frankfurt"],
                                      request_bytes)
        finally:
            await cluster.stop()

    [(status, headers, body)] = run(scenario())
    assert (status, headers["connection"], body) == (200, connection, b"ok\n")


def test_stop_closes_an_idle_keep_alive_connection(run):
    """``stop()`` returns while a client still holds a keep-alive
    connection, and leaves no connection handler running."""
    async def scenario():
        cluster = await start_cluster(tiny_config())
        address = cluster.addresses["frankfurt"]
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(protocol.render_request("GET", "/healthz", "t"))
            await writer.drain()
            status, headers, _ = await protocol.read_response(
                reader, bytearray())
            assert status == 200 and headers["connection"] == "keep-alive"
            await asyncio.wait_for(cluster.stop(), 2.0)
            return [task for task in asyncio.all_tasks()
                    if task.get_coro().__name__ == "_serve_connection"]
        finally:
            await protocol.hang_up(writer)

    assert run(scenario()) == []


def test_ledger_endpoint_pagination(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            for index in range(5):
                await http_get(address, f"/objects/object-{index}")
            status, _, body = await http_get(address, "/ledger")
            assert status == 200
            entries = ledger_from_lines(body.decode())
            assert len(entries) == 5
            assert all(entry.kind == "read" for entry in entries)
            # The wire ledger is the in-process ledger, byte-for-byte.
            assert entries == cluster.gateways["frankfurt"].ledger
            status, _, tail = await http_get(address, "/ledger?start=3")
            assert ledger_from_lines(tail.decode()) == entries[3:]
            status, _, _ = await http_get(address, "/ledger?start=x")
            assert status == 400
            # More digits than ``int`` converts: a refusal, not a 500.
            status, _, body = await http_get(
                address, "/ledger?start=" + "9" * 4301)
            assert (status, body) == (400, b"invalid ledger start")
        finally:
            await cluster.stop()

    run(scenario())


def test_put_roundtrip_and_immutable_size(run):
    async def scenario():
        cluster = await start_cluster(
            tiny_config(object_size=4096), payloads=True)
        try:
            address = cluster.addresses["frankfurt"]
            blob = bytes(range(256)) * 16  # 4096 bytes
            status, _, _ = await http_put(address, "/objects/fresh", blob)
            assert status == 201
            status, headers, body = await http_get(address, "/objects/fresh")
            assert status == 200
            assert body == blob
            assert headers["x-agar-body"] in ("decoded", "cached")

            # Overwrite with same size: 204, new bytes served.
            other = blob[::-1]
            status, _, _ = await http_put(address, "/objects/fresh", other)
            assert status == 204
            status, _, body = await http_get(address, "/objects/fresh")
            assert body == other

            # Size change refused.
            status, _, body = await http_put(
                address, "/objects/fresh", b"tiny")
            assert status == 409
            assert b"size" in body

            # Empty body refused.
            status, _, _ = await http_put(address, "/objects/empty", b"")
            assert status == 400
        finally:
            await cluster.stop()

    run(scenario())


def test_unknown_key_and_routes(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            gateway = cluster.gateways["frankfurt"]
            status, _, _ = await http_get(address, "/objects/never-stored")
            assert status == 404
            # Unknown keys never reach the strategy.
            assert gateway.ledger == []
            status, _, _ = await http_get(address, "/missing")
            assert status == 404
            responses = await raw_exchange(
                address, b"DELETE /objects/object-0 HTTP/1.1\r\n\r\n")
            assert responses[0][0] == 405
        finally:
            await cluster.stop()

    run(scenario())


def test_pipelined_requests_one_write(run):
    """Several requests in one TCP segment get one response each, in order,
    and the whole batch reaches the transport as one ``write``."""

    async def scenario():
        cluster = ServeCluster.from_config(
            tiny_config(object_size=4096), payloads=True)
        gateway = cluster.gateways["frankfurt"]
        serve_connection = gateway._serve_connection
        writes = []

        async def spying(reader, writer):
            write = writer.write

            def recording(data):
                writes.append(len(data))
                write(data)

            writer.write = recording
            await serve_connection(reader, writer)

        gateway._serve_connection = spying
        await cluster.start()
        try:
            address = cluster.addresses["frankfurt"]
            payload = b"".join(
                f"GET /objects/object-{index} HTTP/1.1\r\nHost: t\r\n\r\n"
                .encode() for index in range(4))
            responses = await raw_exchange(address, payload, responses=4)
            assert [status for status, _, _ in responses] == [200] * 4
            store = cluster.deployment.store
            assert [body for _, _, body in responses] == [
                store.get_object(f"object-{index}") for index in range(4)]
            assert len(gateway.ledger) == 4
            assert len(writes) == 1 and writes[0] > 4 * 4096
        finally:
            await cluster.stop()

    run(scenario())


def test_truncated_request_counts_as_an_error(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            responses = await raw_exchange(
                address, b"GET /objects/object-0 HTTP/1.1\r\nHost: t")
            assert responses[0][0] == 400
            assert responses[0][2] == b"truncated request"
            assert cluster.gateways["frankfurt"].errors_total == 1
        finally:
            await cluster.stop()

    run(scenario())


def test_cached_body_is_handed_over_uncopied():
    """Zero-copy is a property: the body fragment of a body-cache hit *is*
    the cached object, so the batch join is its only copy in user space."""
    cluster = ServeCluster.from_config(
        tiny_config(object_size=4096), payloads=True)
    gateway = cluster.gateways["frankfurt"]
    request = _request("GET /objects/object-0 HTTP/1.1\r\nX-Replay-At: 1.0\r\n\r\n")
    for kind in (b"decoded", b"cached", b"cached"):
        head, body = gateway._dispatch(request)
        assert b"\r\nX-Agar-Body: " + kind + b"\r\n\r\n" in head
        assert body is gateway._body_cache[("object-0", 0)]
    assert body == cluster.deployment.store.get_object("object-0")


def test_decision_head_memo_is_bounded(monkeypatch):
    """More decision patterns than the memo holds: it never outgrows its cap
    and a response rendered after a clear is the one rendered before it."""
    faults = FaultSchedule([RegionOutage("dublin", 10.0, 40.0),
                            RegionOutage("sao_paulo", 20.0, 30.0),
                            RegionOutage("tokyo", 20.0, 30.0)])
    script = ["GET /objects/object-0", "GET /objects/object-0",
              "GET /objects/object-1", "POST /admin/fault?index=0",
              "GET /objects/object-0", "GET /objects/object-2",
              "POST /admin/fault?index=1", "GET /objects/object-0",
              "GET /objects/object-4",      # nothing cached, 6 < k reachable
              "POST /admin/fault?index=2", "GET /objects/object-1",
              "POST /admin/fault?index=3", "GET /objects/object-2",
              "GET /objects/object-0", "GET /objects/object-3"]

    def replay() -> tuple[list, int, int]:
        cluster = ServeCluster.from_config(
            tiny_config(object_size=4096, faults=faults), payloads=True)
        gateway = cluster.gateways["frankfurt"]
        responses, largest, clears = [], 0, 0
        for position, line in enumerate(script):
            held = len(gateway._decision_heads)
            responses.append(gateway._dispatch(_request(
                f"{line} HTTP/1.1\r\nX-Replay-At: {position * 5.0!r}\r\n\r\n")))
            clears += len(gateway._decision_heads) < held
            largest = max(largest, len(gateway._decision_heads))
        return responses, largest, clears

    unbounded, patterns, clears = replay()
    assert patterns > 3 and clears == 0
    assert {head[9:12] for head, _ in unbounded} == {b"200", b"503"}
    monkeypatch.setattr(gateway_module, "DECISION_HEADS_CAP", 3)
    bounded, largest, clears = replay()
    assert largest == 3 and clears >= 1
    assert bounded == unbounded


def test_framing_memo_is_bounded():
    """More body lengths than the framing memo holds (one PUT size each)."""
    cluster = ServeCluster.from_config(tiny_config(), payloads=True)
    gateway = cluster.gateways["frankfurt"]
    protocol._framing.cache_clear()
    sizes = range(1, protocol.FRAMING_MEMO_CAP + 40)
    for size in sizes:
        head, _ = gateway._dispatch(_request(
            f"PUT /objects/sized-{size} HTTP/1.1\r\n"
            f"Content-Length: {size}\r\n\r\n", bytes([size % 251]) * size))
        assert head.startswith(b"HTTP/1.1 201 Created\r\n")
    for size in (*sizes, *sizes[:8]):    # the second lap re-renders evicted blocks
        head, body = gateway._dispatch(_request(
            f"GET /objects/sized-{size} HTTP/1.1\r\n\r\n"))
        assert head.startswith(
            f"HTTP/1.1 200 OK\r\nContent-Length: {size}\r\n"
            "Content-Type: application/octet-stream\r\n"
            "Connection: keep-alive\r\nX-Agar-Hit: ".encode())
        assert body == bytes([size % 251]) * size
        assert (protocol._framing.cache_info().currsize
                <= protocol.FRAMING_MEMO_CAP)
    assert protocol._framing.cache_info().currsize == protocol.FRAMING_MEMO_CAP
    assert gateway.errors_total == 0


def test_replay_header_drives_the_clock(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            gateway = cluster.gateways["frankfurt"]
            status, _, _ = await http_get(address, "/objects/object-0",
                                          headers={"X-Replay-At": "12.5"})
            assert status == 200
            assert gateway.ledger[-1].at == 12.5
            assert gateway.clock.now() == 12.5
            status, _, _ = await http_get(
                address, "/objects/object-0",
                headers={"X-Replay-At": "not-a-float"})
            assert status == 400
        finally:
            await cluster.stop()

    run(scenario())


def test_admin_endpoints_validate_input(run):
    async def scenario():
        cluster = await start_cluster(tiny_config(strategy="lfu-5"))
        try:
            address = cluster.addresses["frankfurt"]
            gateway = cluster.gateways["frankfurt"]
            responses = await raw_exchange(
                address, b"POST /admin/tick?at=30.0 HTTP/1.1\r\n\r\n")
            assert responses[0][0] == 200
            assert gateway.ledger[-1].kind == "tick"
            assert gateway.ledger[-1].at == 30.0
            # No fault schedule configured: every index is out of range.
            responses = await raw_exchange(
                address, b"POST /admin/fault?index=0&at=1.0 HTTP/1.1\r\n\r\n")
            assert responses[0][0] == 400
        finally:
            await cluster.stop()

    run(scenario())


def test_put_evicts_the_superseded_body(run):
    """A PUT bumps the version, so the old ``(key, version)`` body can never
    be asked for again: it must leave the body cache, not pin a slot."""
    async def scenario():
        cluster = await start_cluster(
            tiny_config(object_size=4096, object_count=4), payloads=True)
        try:
            address = cluster.addresses["frankfurt"]
            gateway = cluster.gateways["frankfurt"]
            status, headers, original = await http_get(address, "/objects/object-1")
            assert status == 200 and headers["x-agar-body"] == "decoded"
            live = {"object-1"}
            for generation in range(12):
                blob = bytes([generation]) * 4096
                status, _, _ = await http_put(address, "/objects/object-0", blob)
                assert status == 204
                live.add("object-0")
                for expected in ("decoded", "cached"):
                    status, headers, body = await http_get(
                        address, "/objects/object-0")
                    assert status == 200 and body == blob
                    assert headers["x-agar-body"] == expected
                assert len(gateway._body_cache) <= len(live)
                version = cluster.deployment.store.metadata("object-0").version
                assert set(gateway._body_cache) == {
                    ("object-0", version), ("object-1", 0)}
            # The untouched object kept its slot throughout.
            status, headers, body = await http_get(address, "/objects/object-1")
            assert headers["x-agar-body"] == "cached" and body == original
        finally:
            await cluster.stop()

    run(scenario())


def test_stats_count_retries_and_hedges(run):
    """`/stats` reports the resilience the strategy's decisions carried.

    200 pipelined GETs against a gateway whose client retries and hedges
    aggressively; the test taps the decision sink in front of the gateway's
    own and sums what the strategy decided.
    """
    resilience = ResilienceConfig(retry_budget=2, timeout_factor=1.01, hedge=True,
                                  hedge_quantile=0.5, hedge_min_samples=2)
    decided = {"retries_total": 0, "hedged_reads": 0, "hedge_wins": 0}

    async def scenario():
        cluster = await start_cluster(tiny_config(
            "agar", client=ClientConfig(resilience=resilience)))
        try:
            gateway = cluster.gateways["frankfurt"]

            def tap(result, cache_chunks, backend_chunks, neighbor_chunks):
                decided["retries_total"] += result.retries
                decided["hedged_reads"] += result.hedged
                decided["hedge_wins"] += result.hedge_won
                gateway._decision_sink(result, cache_chunks, backend_chunks,
                                       neighbor_chunks)

            gateway.strategy.set_decision_sink(tap)
            address = cluster.addresses["frankfurt"]
            pipeline = b"".join(
                f"GET /objects/object-{index % 20} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                for index in range(200))
            responses = await raw_exchange(address, pipeline, responses=200)
            assert [status for status, _, _ in responses] == [200] * 200
            _, _, body = await http_get(address, "/stats")
            return json.loads(body)["wire"], gateway.wire_stats
        finally:
            await cluster.stop()

    wire, stats = run(scenario())
    assert decided["retries_total"] > 0 and decided["hedged_reads"] > 0
    assert {name: wire[name] for name in decided} == decided
    assert (stats.retries_total, stats.hedged_reads, stats.hedge_wins) == tuple(
        decided.values())


def _region_b_after_a_put(run) -> tuple[dict, bytes, bytes]:
    """Warm region B's Agar cache on a key, PUT a same-size body through
    region A, and return the headers and body of B's first GET afterwards
    together with the body that was PUT."""
    config = EngineConfig(
        workload=WorkloadSpec(object_count=4, object_size=4096,
                              request_count=60, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="agar"),
                 RegionSpec(region="dublin", clients=1, strategy="agar")],
        cache_capacity_bytes=MEGABYTE)

    async def scenario():
        cluster = await start_cluster(config, payloads=True)
        try:
            region_a = cluster.addresses["frankfurt"]
            region_b = cluster.addresses["dublin"]
            for _ in range(5):
                await http_get(region_b, "/objects/object-0")
            status, _, _ = await http_post(region_b, "/admin/tick?at=30.0")
            assert status == 200
            for _ in range(5):
                _, headers, _ = await http_get(region_b, "/objects/object-0")
                if int(headers["x-agar-cache-chunks"]) > 0:
                    break
            else:
                raise AssertionError("region B never served object-0 from its cache")
            blob = bytes(range(256))[::-1] * 16
            status, _, _ = await http_put(region_a, "/objects/object-0", blob)
            assert status == 204
            status, headers, body = await http_get(region_b, "/objects/object-0")
            assert status == 200
            return headers, body, blob
        finally:
            await cluster.stop()

    return run(scenario())


def test_a_put_in_one_region_reaches_another_regions_body(run):
    _, body, blob = _region_b_after_a_put(run)
    assert body == blob


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_a_put_in_one_region_leaves_no_stale_cache_hit_in_another(run):
    """After a PUT, no region may report cached chunks of the old version."""
    headers, _, _ = _region_b_after_a_put(run)
    assert headers["x-agar-cache-chunks"] == "0"
