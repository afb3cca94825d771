"""Minimal dependency-free HTTP/1.1 framing for the serving tier.

Hand-rolled on purpose: the container ships no HTTP framework, and the
gateway needs pipelining-friendly buffer parsing to reach its throughput
target on one core.  The parser works over an accumulated byte buffer and
returns one complete request at a time (or ``None`` while incomplete), so a
connection handler can drain every pipelined request in a single pass, and
responses are built as fragments so the handler joins a whole batch once and
writes it back in one syscall.

Malformed input never raises anything but :class:`ProtocolError`, which maps
to a clean 4xx/5xx response — the property-test contract of the serving
tier.  Chunked transfer encoding is deliberately unsupported (501).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 32768
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Distinct ``(status, body length, content type, keep-alive)`` framing blocks
#: kept rendered; a serving run needs a handful.
FRAMING_MEMO_CAP = 256

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
                  max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
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
    if length > max_body_bytes:
        raise ProtocolError(413, f"body exceeds {max_body_bytes} byte cap")

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


def parse_response(buffer: bytes | bytearray, offset: int = 0,
                   ) -> tuple[tuple[int, dict[str, str], bytes], int] | None:
    """Client-side twin of :func:`parse_request` for the load generator.

    Returns ``((status, headers, body), next_offset)`` or ``None`` while the
    response is incomplete.
    """
    head_end = buffer.find(b"\r\n\r\n", offset)
    if head_end < 0:
        return None
    lines = bytes(buffer[offset:head_end]).split(b"\r\n")
    status_parts = lines[0].split(b" ", 2)
    if len(status_parts) < 2 or not status_parts[1].isdigit():
        raise ProtocolError(500, f"malformed status line: {lines[0]!r}")
    status = int(status_parts[1])
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        name_b, sep, value_b = raw.partition(b":")
        if sep:
            headers[name_b.decode("latin-1").lower()] = (
                value_b.strip().decode("latin-1"))
    length = int(headers.get("content-length", "0"))
    body_start = head_end + 4
    if len(buffer) - body_start < length:
        return None
    body = bytes(buffer[body_start:body_start + length])
    return (status, headers, body), body_start + length
