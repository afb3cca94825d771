"""Endpoint behavior of one region gateway over real loopback sockets."""

from __future__ import annotations

import json

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.serve import gateway as gateway_module
from repro.serve import protocol
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import ledger_from_lines
from repro.sim.faults import FaultSchedule, RegionOutage

from serve_helpers import http_get, http_put, raw_exchange, start_cluster, tiny_config


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

            def tap(result, cache_chunks, backend_chunks):
                decided["retries_total"] += result.retries
                decided["hedged_reads"] += result.hedged
                decided["hedge_wins"] += result.hedge_won
                gateway._decision_sink(result, cache_chunks, backend_chunks)

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
