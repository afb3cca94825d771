"""Every HTTP client in the repository frames its traffic through one module.

``repro.serve.protocol`` holds the client side of the wire: reading responses
off a stream, half-closing a one-shot exchange and hanging up.  No other
module calls a stream reader's ``read``, ``write_eof`` or ``wait_closed``
itself, so a framing or teardown fix lands in one place.  The exceptions are
part of the design and listed in ``ALLOWED``.  ``bench/`` keeps a client of
its own so the end-to-end harness offers the same load whatever ``src/``
does; it is not scanned.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src/repro", "examples", "tests", "benchmarks", "tools")
PROTOCOL = ROOT / "src" / "repro" / "serve" / "protocol.py"

#: ``(path, call)`` pairs a module other than ``protocol.py`` may make.
ALLOWED = {
    # The server side: the gateway reads *requests* off its connections.
    ("src/repro/serve/gateway.py", "reader.read"),
    # The gateway's listening socket, not a connection.
    ("src/repro/serve/gateway.py", "self._server.wait_closed"),
}


def offences(path: pathlib.Path) -> list[tuple[str, str, int]]:
    """``(path, call, line)`` of each stream read, half-close or close-wait."""
    relative = path.relative_to(ROOT).as_posix()
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        receiver = ast.unparse(node.func.value)
        if (method in ("write_eof", "wait_closed")
                or (method == "read" and receiver.endswith("reader"))):
            found.append((relative, f"{receiver}.{method}", node.lineno))
    return found


def test_the_scan_sees_the_protocol_module_do_it():
    assert offences(PROTOCOL)


def test_every_allowed_call_is_still_made():
    made = {(path, call)
            for directory in SCANNED
            for source in (ROOT / directory).rglob("*.py")
            for path, call, _line in offences(source)}
    assert ALLOWED <= made


def test_no_client_reads_or_hangs_up_by_itself():
    found = [offence
             for directory in SCANNED
             for path in sorted((ROOT / directory).rglob("*.py"))
             if path != PROTOCOL
             for offence in offences(path)
             if offence[:2] not in ALLOWED]
    assert found == []
