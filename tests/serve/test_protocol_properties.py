"""Property tests: the protocol layer never crashes and never corrupts state.

Two layers of defense are exercised: the pure parser (arbitrary bytes must
either parse, ask for more input, or raise :class:`ProtocolError` — nothing
else), and a live gateway (malformed paths, truncated/oversized bodies,
unknown keys and concurrent GET/PUT must always produce clean 4xx/5xx
responses while leaving cache state and the decision ledger untouched).
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (DEFAULT_MAX_BODY_BYTES, ProtocolError,
                                  build_response, parse_request,
                                  parse_response)

from serve_helpers import http_get, http_put, raw_exchange, start_cluster, tiny_config

_SETTINGS = settings(max_examples=120, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: ``Content-Length`` values that pass ``str.isdigit`` after the latin-1 decode
#: but that ``int`` refuses: a Unicode digit, and more digits than ``int``'s
#: 4,300-digit conversion limit.  Random bytes never find either.
_INT_REFUSES = (b"\xb2", b"9" * 4301)


def _put_declaring(length: bytes) -> bytes:
    return b"PUT /objects/k HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"


# --------------------------------------------------------------------- #
# Pure parser properties
# --------------------------------------------------------------------- #
@_SETTINGS
@given(st.binary(max_size=4096))
@example(_put_declaring(_INT_REFUSES[0]))
@example(_put_declaring(_INT_REFUSES[1]))
def test_arbitrary_bytes_never_crash_the_parser(data):
    try:
        parsed = parse_request(data)
    except ProtocolError as error:
        assert 400 <= error.status < 600
        return
    if parsed is not None:
        request, consumed = parsed
        assert 0 < consumed <= len(data)
        assert request.method
        assert request.path.startswith("/")


@_SETTINGS
@given(st.binary(max_size=512), st.binary(max_size=512))
def test_parser_is_prefix_stable(head, tail):
    """A parse that succeeds on a buffer parses identically with bytes appended."""
    try:
        first = parse_request(head)
    except ProtocolError:
        return
    if first is None:
        return
    request, consumed = first
    again, consumed_again = parse_request(head + tail)
    assert consumed_again == consumed
    assert again.method == request.method
    assert again.path == request.path
    assert again.body == request.body


@_SETTINGS
@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=64),
       st.binary(min_size=0, max_size=256))
def test_wellformed_requests_roundtrip(path_text, body):
    raw = (f"PUT /{path_text} HTTP/1.1\r\nHost: x\r\n"
           f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body
    try:
        parsed = parse_request(raw)
    except ProtocolError:
        # Some printable-ASCII paths are still refused (e.g. embedded spaces
        # break the request line into more than three tokens) — that must be
        # a clean refusal, which reaching this branch already proves.
        return
    assert parsed is not None
    request, consumed = parsed
    assert consumed == len(raw)
    assert request.method == "PUT"
    assert request.body == body


@_SETTINGS
@given(st.integers(min_value=100, max_value=599), st.binary(max_size=512))
def test_response_roundtrip(status, body):
    head, same_body = build_response(status, body, b"X-Test: 1\r\n")
    assert same_body is body
    raw = head + body
    parsed = parse_response(raw)
    assert parsed is not None
    (got_status, headers, got_body), consumed = parsed
    assert got_status == status
    assert got_body == body
    assert headers["x-test"] == "1"
    assert consumed == len(raw)


def test_oversized_declared_body_is_413():
    raw = (f"PUT /objects/x HTTP/1.1\r\n"
           f"Content-Length: {DEFAULT_MAX_BODY_BYTES + 1}\r\n\r\n").encode()
    with pytest.raises(ProtocolError) as info:
        parse_request(raw)
    assert info.value.status == 413


@pytest.mark.parametrize("length", [*_INT_REFUSES, b"9" * 19, b"+1", b"1_0"])
def test_content_length_int_would_choke_on_is_400(length):
    with pytest.raises(ProtocolError) as info:
        parse_request(_put_declaring(length))
    assert info.value.status == 400


def test_header_flood_is_431():
    raw = b"GET / HTTP/1.1\r\n" + b"X-Filler: " + b"a" * 50000
    with pytest.raises(ProtocolError) as info:
        parse_request(raw)
    assert info.value.status == 431


def test_chunked_encoding_is_501():
    raw = (b"PUT /objects/x HTTP/1.1\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n")
    with pytest.raises(ProtocolError) as info:
        parse_request(raw)
    assert info.value.status == 501


# --------------------------------------------------------------------- #
# Live-gateway properties
# --------------------------------------------------------------------- #
def _ledger_and_snapshot(cluster):
    gateway = cluster.gateways["frankfurt"]
    return list(gateway.ledger), gateway.strategy.cache_snapshot()


def test_garbage_never_corrupts_cache_state(run):
    """Arbitrary malformed requests: clean error, identical decisions after."""
    malformed = [
        b"\x00\xffnot http at all\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /objects/object-0 HTTP/9.9\r\n\r\n",
        b"GET /objects/../etc/passwd HTTP/1.1\r\n\r\n",
        b"GET /objects/object-0 extra HTTP/1.1\r\n\r\n",
        b"PUT /objects/k HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"FROB /objects/object-0 HTTP/1.1\r\n\r\n",
        b"GET /objects/object-0 HTTP/1.1\r\nBroken Header\r\n\r\n",
        b"GET /nowhere HTTP/1.1\r\n\r\n",
        b"GET /objects/unknown-key-42 HTTP/1.1\r\n\r\n",
        b"POST /admin/fault?index=99&at=1.0 HTTP/1.1\r\n\r\n",
        b"POST /admin/tick?at=bogus HTTP/1.1\r\n\r\n",
    ]

    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            # Drive some legitimate traffic first so there is state to corrupt.
            for index in range(8):
                status, _, _ = await http_get(
                    address, f"/objects/object-{index % 3}")
                assert status == 200
            before = _ledger_and_snapshot(cluster)
            for payload in malformed:
                responses = await raw_exchange(address, payload)
                assert responses, f"no response for {payload!r}"
                status = responses[0][0]
                assert 400 <= status < 600, (payload, status)
            assert _ledger_and_snapshot(cluster) == before
            # The gateway still serves correctly afterwards.
            status, headers, _ = await http_get(address, "/objects/object-0")
            assert status == 200
            assert headers["x-agar-hit"] in ("full", "partial", "miss")
        finally:
            await cluster.stop()

    run(scenario())


@pytest.mark.parametrize("length", _INT_REFUSES)
def test_unparseable_length_behind_a_valid_request(run, length):
    """The refused request gets its 400 and the one pipelined ahead of it
    keeps its response (the handler used to die on ``ValueError``)."""

    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            status, _, _ = await http_get(address, "/objects/object-0")
            assert status == 200
            gateway = cluster.gateways["frankfurt"]
            before = _ledger_and_snapshot(cluster)
            segment = (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                       + _put_declaring(length))
            responses = await raw_exchange(address, segment, responses=2)
            assert [status for status, _, _ in responses] == [200, 400]
            assert responses[0][2] == b"ok\n"
            assert responses[1][2] == b"invalid Content-Length"
            assert gateway.errors_total == 1
            assert _ledger_and_snapshot(cluster) == before
        finally:
            await cluster.stop()

    run(scenario())


def test_truncated_put_body_is_clean_400(run):
    async def scenario():
        cluster = await start_cluster(tiny_config(), payloads=True)
        try:
            address = cluster.addresses["frankfurt"]
            before = _ledger_and_snapshot(cluster)
            # Declare 100 bytes, send 10, then EOF.
            payload = (b"PUT /objects/truncated HTTP/1.1\r\n"
                       b"Content-Length: 100\r\n\r\n" + b"x" * 10)
            responses = await raw_exchange(address, payload)
            assert responses and responses[0][0] == 400
            # The truncated object must not exist.
            status, _, _ = await http_get(address, "/objects/truncated")
            assert status == 404
            assert _ledger_and_snapshot(cluster) == before
        finally:
            await cluster.stop()

    run(scenario())


def test_oversized_put_is_413_live(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            address = cluster.addresses["frankfurt"]
            declared = DEFAULT_MAX_BODY_BYTES + 1
            payload = (f"PUT /objects/too-big HTTP/1.1\r\n"
                       f"Content-Length: {declared}\r\n\r\n").encode()
            responses = await raw_exchange(address, payload)
            assert responses and responses[0][0] == 413
        finally:
            await cluster.stop()

    run(scenario())


def test_concurrent_get_put_on_one_key(run):
    """Interleaved GET/PUT on one key: every response valid, bytes atomic."""

    async def scenario():
        cluster = await start_cluster(
            tiny_config(object_count=5, object_size=2048), payloads=True)
        try:
            address = cluster.addresses["frankfurt"]
            blob_a = b"a" * 2048
            blob_b = b"b" * 2048
            status, _, _ = await http_put(address, "/objects/shared", blob_a)
            assert status == 201

            async def writer(blob):
                for _ in range(10):
                    status, _, _ = await http_put(
                        address, "/objects/shared", blob)
                    assert status in (201, 204)

            async def reader_task():
                outcomes = []
                for _ in range(20):
                    status, headers, body = await http_get(
                        address, "/objects/shared")
                    assert status == 200
                    if headers.get("x-agar-body") in ("decoded", "cached"):
                        # Atomicity: never a torn mix of the two writers.
                        assert body in (blob_a, blob_b)
                    outcomes.append(status)
                return outcomes

            await asyncio.gather(writer(blob_a), writer(blob_b),
                                 reader_task(), reader_task())
            # Cache state is still consistent: another read works.
            status, _, _ = await http_get(address, "/objects/shared")
            assert status == 200
        finally:
            await cluster.stop()

    run(scenario())
