"""The gateway's route table, held to its documentation and its golden.

``repro.serve.gateway.ROUTES`` is the one list of routes a gateway serves.
``docs/serving.md`` lists them one per row, and
``tests/golden/freeze_wire_responses.py`` must send every one of them at
least once, so a route added to the table is documented and pinned byte for
byte.  ``GET /stats`` is the exception to the second check: it carries
wall-clock latencies, and ``test_stats_body_keys_types_and_counters`` pins it.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from repro.serve.gateway import ROUTES
from repro.serve.protocol import ProtocolError, parse_request

ROOT = Path(__file__).resolve().parents[2]
SERVING = ROOT / "docs" / "serving.md"
FREEZER = ROOT / "tests" / "golden" / "freeze_wire_responses.py"
#: Routes the golden does not send, with the test that pins them instead.
UNPINNED = {("GET", "/stats")}

TABLE = [(method, path) for method, path, _ in ROUTES]


def documented_routes() -> list[tuple[str, str]]:
    """The first cell of each row of serving.md's route table, split into
    method and path; ``<key>`` marks a prefix route."""
    text = SERVING.read_text()
    table = text[text.index("| route | behavior |"):].split("\n\n")[0]
    routes = []
    for cell in re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE):
        method, path = cell.split(" ")
        routes.append((method, path.removesuffix("<key>")))
    return routes


def route_of(method: str, path: str) -> tuple[str, str] | None:
    for route_method, route_path in TABLE:
        if method == route_method and (
                path == route_path
                or (route_path.endswith("/") and path.startswith(route_path))):
            return route_method, route_path
    return None


def golden_requests():
    """Every request the wire-response golden sends, pipelined ones split."""
    spec = importlib.util.spec_from_file_location("freeze_wire_responses",
                                                  FREEZER)
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    for _, _, _, steps in freeze.scenarios():
        for _, payload in steps:
            offset = 0
            while True:
                try:
                    parsed = parse_request(payload, offset)
                except ProtocolError:
                    break
                if parsed is None:
                    break
                request, offset = parsed
                yield request


def test_the_table_names_each_route_once():
    assert len(set(TABLE)) == len(TABLE)


def test_serving_md_lists_exactly_the_gateway_routes():
    assert documented_routes() == TABLE


def test_the_wire_golden_sends_every_route_but_stats():
    sent = {route_of(request.method, request.path)
            for request in golden_requests()}
    assert set(TABLE) - UNPINNED <= sent
    assert UNPINNED.isdisjoint(sent)
