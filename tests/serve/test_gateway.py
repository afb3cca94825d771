"""Endpoint behavior of one region gateway over real loopback sockets."""

from __future__ import annotations

import json

from repro.serve.ledger import ledger_from_lines

from serve_helpers import http_get, http_put, raw_exchange, start_cluster, tiny_config


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
    """Several requests in one TCP segment get one response each, in order."""

    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            payload = b"".join(
                f"GET /objects/object-{index} HTTP/1.1\r\nHost: t\r\n\r\n"
                .encode() for index in range(4))
            responses = await raw_exchange(address, payload, responses=4)
            assert [status for status, _, _ in responses] == [200] * 4
            assert len(cluster.gateways["frankfurt"].ledger) == 4
        finally:
            await cluster.stop()

    run(scenario())


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
