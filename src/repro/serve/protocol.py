"""Minimal dependency-free HTTP/1.1 framing for the serving tier, both sides.

Hand-rolled on purpose: the toolchain ships no HTTP framework, and the
gateway needs pipelining-friendly buffer parsing to reach its throughput
target on one core.  The parser works over an accumulated byte buffer and
returns one complete request at a time (or ``None`` while incomplete), so a
connection handler can drain every pipelined request in a single pass, and
responses are built as fragments so the handler joins a whole batch once and
writes it back in one syscall.

Malformed input never raises anything but :class:`ProtocolError`, which maps
to a clean 4xx/5xx response — the property-test contract of the serving
tier.  The same holds for :func:`parse_response` on whatever a peer answers.
Chunked transfer encoding is deliberately unsupported (501).

The client side lives here too, so every client in the repository — the load
generator, the replay driver, the supervisor's health probe, the chaos
injector, the examples and the test helpers — frames its traffic one way:
:func:`render_request` writes a request, :func:`read_response` reads the next
response off a keep-alive connection (:func:`pop_response` when the bytes are
already buffered), :func:`fetch` sends one request on a connection of its own
and returns as soon as its response is whole, :func:`exchange` returns every
byte a server answers until it hangs up, and :func:`hang_up` closes a
connection.  The end-to-end harness in
``bench/`` keeps a client of its own on purpose: it must offer the same load
whatever this module does.

:data:`READ_HEADERS` is the one table of the ``X-Agar-*`` headers that carry
a read's decision: the gateway renders them from it, and
:func:`parse_read_headers` reads them back for the load generator.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Mapping

from repro.client.stats import HitType

MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 32768
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Distinct ``(status, body length, content type, keep-alive)`` framing blocks
#: kept rendered; a serving run needs a handful.
FRAMING_MEMO_CAP = 256
#: Bytes asked of a socket per read, on either side of a connection.
READ_BYTES = 1 << 16

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}

_SUPPORTED_VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")

#: ``(status, headers with lower-case names, body)`` of one response.
Response = tuple[int, dict[str, str], bytes]


class ProtocolError(Exception):
    """A request the server refuses; maps to one clean error response."""

    def __init__(self, status: int, detail: str = "") -> None:
        super().__init__(f"{status} {_REASONS.get(status, 'Error')}: {detail}")
        self.status = status
        self.detail = detail


@dataclass(slots=True)
class HttpRequest:
    """One parsed request: method, split target, headers and full body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


def _parse_query(raw: str) -> dict[str, str]:
    query: dict[str, str] = {}
    if not raw:
        return query
    for pair in raw.split("&"):
        name, _, value = pair.partition("=")
        if name:
            query[name] = value
    return query


def parse_decimal(text: str) -> int | None:
    """``text`` as a non-negative integer, ``None`` unless 1–18 ASCII digits.

    ``str.isdigit`` alone admits digits ``int`` rejects (``²``), and ``int``
    refuses more than 4,300 of them: either would raise ``ValueError``.
    """
    valid = len(text) <= 18 and text.isascii() and text.isdigit()
    return int(text) if valid else None


def parse_request(buffer: bytes | bytearray, offset: int = 0,
                  ) -> tuple[HttpRequest, int] | None:
    """Parse one complete request starting at ``offset``.

    Returns ``(request, next_offset)`` when a full request (headers and
    declared body) is buffered, ``None`` when more bytes are needed, and
    raises :class:`ProtocolError` on anything malformed or over a cap.
    """
    head_end = buffer.find(b"\r\n\r\n", offset)
    if head_end < 0:
        if len(buffer) - offset > MAX_REQUEST_LINE_BYTES + MAX_HEADER_BYTES:
            raise ProtocolError(431, "headers exceed size cap")
        return None
    if head_end - offset > MAX_REQUEST_LINE_BYTES + MAX_HEADER_BYTES:
        raise ProtocolError(431, "headers exceed size cap")

    lines = bytes(buffer[offset:head_end]).split(b"\r\n")
    request_line = lines[0]
    if len(request_line) > MAX_REQUEST_LINE_BYTES:
        raise ProtocolError(414, "request line exceeds size cap")
    parts = request_line.split(b" ")
    if len(parts) != 3:
        raise ProtocolError(400, "malformed request line")
    method_b, target_b, version_b = parts
    if version_b not in _SUPPORTED_VERSIONS:
        raise ProtocolError(505, "only HTTP/1.0 and HTTP/1.1 are supported")
    if not method_b.isalpha():
        raise ProtocolError(400, "malformed method")
    try:
        method = method_b.decode("ascii")
        target = target_b.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError(400, "non-ASCII request line") from None
    if not target.startswith("/"):
        raise ProtocolError(400, "target must be absolute path")

    headers: dict[str, str] = {}
    for raw in lines[1:]:
        name_b, sep, value_b = raw.partition(b":")
        if not sep or not name_b or name_b.strip() != name_b:
            raise ProtocolError(400, "malformed header line")
        try:
            name = name_b.decode("ascii").lower()
            value = value_b.strip().decode("latin-1")
        except UnicodeDecodeError:
            raise ProtocolError(400, "non-ASCII header name") from None
        headers[name] = value

    if "transfer-encoding" in headers:
        raise ProtocolError(501, "chunked transfer encoding unsupported")
    length = parse_decimal(headers.get("content-length", "0"))
    if length is None:
        raise ProtocolError(400, "invalid Content-Length")
    if length > DEFAULT_MAX_BODY_BYTES:
        raise ProtocolError(413,
                            f"body exceeds {DEFAULT_MAX_BODY_BYTES} byte cap")

    body_start = head_end + 4
    if len(buffer) - body_start < length:
        return None
    # One copy of a PUT body, not a ``bytearray`` slice and a ``bytes`` of it.
    body = (bytes(memoryview(buffer)[body_start:body_start + length])
            if length else b"")

    path, _, query_text = target.partition("?")
    version = version_b.decode("ascii")
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:
        keep_alive = connection == "keep-alive"
    request = HttpRequest(method=method, path=path,
                          query=_parse_query(query_text), headers=headers,
                          body=body, keep_alive=keep_alive)
    return request, body_start + length


@lru_cache(maxsize=FRAMING_MEMO_CAP)
def _framing(status: int, length: int, content_type: str,
             keep_alive: bool) -> bytes:
    return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Length: {length}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            ).encode("latin-1")


def build_response(status: int, body: bytes = b"", headers: bytes = b"",
                   keep_alive: bool = True,
                   content_type: str = "application/octet-stream",
                   ) -> tuple[bytes, bytes]:
    """One response as ``(head, body)`` fragments with explicit framing.

    ``headers`` are extra header lines already rendered to bytes, each ending
    in CRLF.  ``body`` is handed back as the very object passed in: the
    caller joins the fragments of a whole batch once, so a large body is
    copied once on its way to the socket.
    """
    return (_framing(status, len(body), content_type, keep_alive)
            + headers + b"\r\n", body)


def error_response(error: ProtocolError, keep_alive: bool = False,
                   ) -> tuple[bytes, bytes]:
    """The clean error response for a refused request."""
    body = (error.detail or _REASONS.get(error.status, "Error")).encode()
    return build_response(error.status, body, keep_alive=keep_alive,
                          content_type="text/plain")


# --------------------------------------------------------------------- #
# Client side
# --------------------------------------------------------------------- #
def render_request(method: str, target: str, host: str,
                   headers: Mapping[str, str] | None = None,
                   body: bytes = b"") -> bytes:
    """One HTTP/1.1 request as bytes.

    The request line, ``Host``, ``headers`` in their order, a
    ``Content-Length`` when there is a body, the blank line, the body.
    """
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode() + body


#: A flag as the wire and the ledger write it: ``False`` → ``"0"``, ``True``
#: → ``"1"``.  A bound ``__getitem__`` rather than a function, as
#: :meth:`~repro.serve.ledger.Ledger.lines` calls it twice a line.
flag_text = ("0", "1").__getitem__


def parse_flag(text: str) -> bool:
    """``"1"`` or ``"0"`` as a flag; ``ValueError`` on anything else."""
    if text != "0" and text != "1":
        raise ValueError(f"not a 0/1 flag: {text!r}")
    return text == "1"


def parse_regions(text: str) -> tuple[str, ...]:
    """A comma-joined region list as a tuple (``""``: none)."""
    return tuple(text.split(",")) if text else ()


#: The ``X-Agar-*`` headers that carry a read's decision, in the order a
#: gateway sends them: header name, the :class:`ReadResult` field it carries,
#: the field's text, and the field read back from its text (``None`` or
#: ``ValueError`` if malformed).  A response carries ``failed`` in its status
#: (503) and ``key`` in its request's path; ``docs/serving.md`` tabulates
#: the rest.
READ_HEADERS = (
    ("X-Agar-Hit", "hit_type", attrgetter("value"),
     {hit.value: hit for hit in HitType}.get),
    ("X-Agar-Cache-Chunks", "chunks_from_cache", str, parse_decimal),
    ("X-Agar-Backend-Chunks", "chunks_from_backend", str, parse_decimal),
    ("X-Agar-Neighbor-Chunks", "chunks_from_neighbors", str, parse_decimal),
    ("X-Agar-Regions", "backend_regions", ",".join, parse_regions),
    ("X-Agar-Degraded", "degraded", flag_text, parse_flag),
)
#: :data:`READ_HEADERS` as a client reads it: lower-case name, field, parser.
_PARSERS = tuple((name.lower(), field, from_text)
                 for name, field, _, from_text in READ_HEADERS)


def parse_read_headers(headers: Mapping[str, str]) -> dict[str, object]:
    """The :class:`ReadResult` fields a response's headers carry, by name.

    ``headers`` has lower-case names, as :func:`parse_response` gives them.
    Raises ``ValueError`` when one of :data:`READ_HEADERS` is missing or
    malformed.
    """
    fields = {}
    for name, field, from_text in _PARSERS:
        text = headers.get(name)
        value = None if text is None else from_text(text)
        if value is None:
            raise ValueError(f"malformed or missing {name} header: {text!r}")
        fields[field] = value
    return fields


def parse_response(buffer: bytes | bytearray,
                   ) -> tuple[Response, int] | None:
    """Client-side twin of :func:`parse_request`.

    Returns ``((status, headers, body), end)`` for the response at the front
    of ``buffer`` or ``None`` while it is incomplete; raises
    :class:`ProtocolError` on a status line or ``Content-Length`` it cannot
    read.
    """
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = bytes(buffer[:head_end]).split(b"\r\n")
    status_parts = lines[0].split(b" ", 2)
    # A status code is three ASCII digits (``bytes.isdigit`` is ASCII-only).
    code = status_parts[1] if len(status_parts) >= 2 else b""
    if len(code) != 3 or not code.isdigit():
        raise ProtocolError(500, f"malformed status line: {lines[0][:80]!r}")
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        name_b, sep, value_b = raw.partition(b":")
        if sep:
            headers[name_b.decode("latin-1").lower()] = (
                value_b.strip().decode("latin-1"))
    length = parse_decimal(headers.get("content-length", "0"))
    if length is None:
        raise ProtocolError(500, "invalid Content-Length in response")
    body_start = head_end + 4
    if len(buffer) - body_start < length:
        return None
    body = bytes(buffer[body_start:body_start + length])
    return (int(code), headers, body), body_start + length


def pop_response(buffer: bytearray) -> Response | None:
    """Take the first complete response off the front of ``buffer``.

    ``None``, with ``buffer`` untouched, while that response is incomplete.
    """
    parsed = parse_response(buffer)
    if parsed is None:
        return None
    response, end = parsed
    del buffer[:end]
    return response


async def read_response(reader: asyncio.StreamReader,
                        buffer: bytearray) -> Response:
    """The next response on a keep-alive connection.

    Reads until ``buffer`` holds a complete response and takes it off; the
    bytes of later pipelined responses stay in ``buffer`` for the next call.
    Raises ``ConnectionError`` when the peer hangs up first.
    """
    while (response := pop_response(buffer)) is None:
        data = await reader.read(READ_BYTES)
        if not data:
            raise ConnectionError("connection closed before a whole response")
        buffer += data
    return response


async def fetch(address: tuple[str, int], request: bytes) -> Response:
    """One request on a connection of its own, and its response.

    Connects, sends ``request``, reads one response and hangs up without
    waiting for the server to close.
    """
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request)
        await writer.drain()
        return await read_response(reader, bytearray())
    finally:
        await hang_up(writer)


async def exchange(address: tuple[str, int], request: bytes) -> bytes:
    """Every byte a server answers to ``request`` on a connection of its own.

    Connects, sends ``request`` (one request or a pipelined batch),
    half-closes so the server sees the end of its input, reads until the
    server hangs up, and hangs up.  Split the reply with
    :func:`pop_response`.
    """
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request)
        await writer.drain()
        writer.write_eof()
        return await reader.read()
    finally:
        await hang_up(writer)


async def hang_up(writer: asyncio.StreamWriter) -> None:
    """Close a connection and wait until it is closed.

    A peer that went first (reset, broken pipe) is not an error here.
    """
    writer.close()
    with contextlib.suppress(OSError):
        await writer.wait_closed()
