"""Freeze golden digests of the gateway's responses, byte for byte.

Every step of a scripted, ``X-Replay-At``-stamped sequence is sent on its own
loopback connection to a seeded tiny cluster and the SHA-256 of *exactly* the
bytes that came back is recorded — status line, framing headers, decision
headers in their order, body.  Covered: the ``agar``, ``lru-3`` and
``backend`` strategies with and without payloads (full / partial / miss hits;
``X-Agar-Body`` ``decoded`` then ``cached``, ``virtual`` without payloads),
reads under installed fault states (a degraded 200 and a 503 with fewer than
``k`` chunks reachable), 404 unknown key, 400 bad key, PUT 201 / 204 / 409,
``POST /admin/tick``, ``/healthz``, ``/ledger``, an HTTP/1.0 request, a
``Connection: close`` one, a truncated request, one 12-request pipelined
segment hashed as a whole, and the JSON body form of ``POST /admin/fault``
(an outage, a brownout and an AZ failure installed, an overlapping window
refused with a 409, and every malformed install refused with a 400).  ``/stats`` carries wall-clock latencies and is
left out.  Only the wire is driven, through the client side of
``repro.serve.protocol``.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_wire_responses.py

``tests/serve/test_wire_response_golden.py`` replays every scenario and
compares it with the committed ``tests/golden/wire_responses.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.serve.gateway import ServeCluster
from repro.serve.protocol import exchange, pop_response
from repro.sim.engine import EngineConfig, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.workload.workload import WorkloadSpec

GOLDEN_PATH = Path(__file__).with_name("wire_responses.json")

REGION = "frankfurt"
STRATEGIES = ("agar", "lru-3", "backend")
OBJECT_SIZE = 4096
#: Under ``agar`` this holds all nine chunks of the most popular object and
#: some of the next three: full, partial and miss hits all occur once a tick
#: has installed a configuration.
CACHE_BYTES = 14 * 1024
#: Popularity the read script gives objects 0..3 per round.
ROUND = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3)

#: One outage leaves 10 of 12 chunks (a degraded read); three leave 6 < k.
FAULTS = FaultSchedule([RegionOutage("dublin", 10.0, 40.0),
                        RegionOutage("n_virginia", 20.0, 30.0),
                        RegionOutage("sao_paulo", 20.0, 30.0)])


def config(strategy: str, faults: FaultSchedule | None = None) -> EngineConfig:
    return EngineConfig(
        workload=WorkloadSpec(object_count=6, object_size=OBJECT_SIZE,
                              request_count=60, seed=7),
        regions=[RegionSpec(region=REGION, clients=1, strategy=strategy)],
        cache_capacity_bytes=CACHE_BYTES, faults=faults)


def get(key: str, at: float, tail: str = "") -> bytes:
    return (f"GET /objects/{key} HTTP/1.1\r\nHost: g\r\n"
            f"X-Replay-At: {at!r}\r\n{tail}\r\n").encode()


def put(key: str, body: bytes) -> bytes:
    return (f"PUT /objects/{key} HTTP/1.1\r\nHost: g\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def post(target: str, body: bytes = b"") -> bytes:
    length = f"Content-Length: {len(body)}\r\n" if body else ""
    return f"POST {target} HTTP/1.1\r\nHost: g\r\n{length}\r\n".encode() + body


def fault_body(**overrides) -> bytes:
    """A ``POST /admin/fault`` body: a ``sao_paulo`` outage on ``[5, 15)``
    with ``overrides`` applied; a ``None`` override drops the field."""
    body = {"kind": "outage", "region": "sao_paulo",
            "start_s": 5.0, "end_s": 15.0}
    body.update(overrides)
    return json.dumps({k: v for k, v in body.items() if v is not None}).encode()


def read_script() -> list[tuple[str, bytes]]:
    """Three popularity rounds with a reconfiguration tick after each."""
    steps = []
    at = 0.0
    for round_index in range(3):
        for position, rank in enumerate(ROUND):
            at += 1.0
            steps.append((f"round{round_index}/get{position}-object-{rank}",
                          get(f"object-{rank}", at)))
        at += 1.0
        steps.append((f"round{round_index}/tick", post(f"/admin/tick?at={at!r}")))
    return steps


def fault_script() -> list[tuple[str, bytes]]:
    """Reads before, inside and after the windows of :data:`FAULTS`."""
    return [
        ("clear/get", get("object-0", 1.0)),
        ("one-outage/install", post("/admin/fault?index=0&at=10.0")),
        ("one-outage/get-degraded", get("object-0", 11.0)),
        ("one-outage/get-degraded-again", get("object-1", 12.0)),
        ("three-outages/install", post("/admin/fault?index=1&at=20.0")),
        ("three-outages/get-unavailable", get("object-0", 21.0)),
        ("one-outage/reinstall", post("/admin/fault?index=2&at=30.0")),
        ("one-outage/get-degraded-after", get("object-0", 31.0)),
        ("clear/install", post("/admin/fault?index=3&at=40.0")),
        ("clear/get-after", get("object-0", 41.0)),
        ("fault-index-out-of-range", post("/admin/fault?index=9&at=42.0")),
    ]


def fault_body_script() -> list[tuple[str, bytes]]:
    """Dynamic fault windows installed by body, then every refused install."""
    refused = [
        ("missing-index", "/admin/fault?at=5.0", b""),
        ("index-and-body", "/admin/fault?index=0&at=5.0", fault_body()),
        ("bad-index", "/admin/fault?index=x&at=5.0", b""),
        ("index-99", "/admin/fault?index=99&at=5.0", b""),
        ("index-minus-1", "/admin/fault?index=-1&at=5.0", b""),
        ("not-json", "/admin/fault?at=5.0", b"{not json"),
        ("not-an-object", "/admin/fault?at=5.0", b"[1, 2]"),
        ("unknown-kind", "/admin/fault?at=5.0", fault_body(kind="meteor")),
        ("unknown-region", "/admin/fault?at=5.0", fault_body(region="atlantis")),
        ("region-not-a-string", "/admin/fault?at=5.0", fault_body(region=7)),
        ("no-start", "/admin/fault?at=5.0", fault_body(start_s=None)),
        ("no-end", "/admin/fault?at=5.0", fault_body(end_s=None)),
        ("start-not-a-number", "/admin/fault?at=5.0",
         fault_body(start_s="soon")),
        ("start-nan", "/admin/fault?at=5.0",
         b'{"kind": "outage", "region": "sao_paulo", "start_s": NaN, '
         b'"end_s": 5.0}'),
        ("multiplier-on-outage", "/admin/fault?at=5.0",
         fault_body(multiplier=2.0)),
        ("unknown-field", "/admin/fault?at=5.0", fault_body(color="red")),
        ("end-before-start", "/admin/fault?at=5.0",
         fault_body(start_s=9.0, end_s=3.0)),
        ("tick-with-body", "/admin/tick?at=5.0", b"{}"),
    ]
    return [
        ("outage/install", post("/admin/fault?at=1.0", fault_body())),
        ("brownout/install", post("/admin/fault?at=2.0", fault_body(
            kind="brownout", region="tokyo", end_s=25.0, multiplier=2.5))),
        ("az/install", post("/admin/fault?at=3.0", fault_body(
            kind="az", region="dublin", start_s=6.0, end_s=20.0))),
        ("overlap/refused", post("/admin/fault?at=4.0", fault_body(
            start_s=10.0, end_s=25.0))),
        *((f"refused/{label}", post(target, body))
          for label, target, body in refused),
    ]


def misc_script() -> list[tuple[str, bytes]]:
    """Routes, refusals, writes, framing variants and one pipelined segment."""
    blob = bytes(range(256)) * (OBJECT_SIZE // 256)
    pipelined = b"".join(
        [get(f"object-{rank}", 60.0 + position)
         for position, rank in enumerate(ROUND)]
        + [post("/admin/tick?at=70.0"), get("object-0", 71.0)])
    return [
        ("healthz", b"GET /healthz HTTP/1.1\r\nHost: g\r\n\r\n"),
        ("unknown-key", get("never-stored", 1.0)),
        ("bad-key", get("bad%20key", 1.0)),
        ("no-route", b"GET /nowhere HTTP/1.1\r\nHost: g\r\n\r\n"),
        ("method-not-allowed", b"DELETE /objects/object-0 HTTP/1.1\r\n\r\n"),
        ("bad-replay-stamp", get("object-0", 1.0).replace(b"1.0", b"soon")),
        ("not-http", b"\x00\xffnot http at all\r\n\r\n"),
        ("bad-version", b"GET /objects/object-0 HTTP/9.9\r\n\r\n"),
        ("bad-content-length",
         b"PUT /objects/k HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
        ("chunked", b"PUT /objects/k HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
        ("truncated", b"PUT /objects/k HTTP/1.1\r\nContent-Length: 100\r\n\r\nxxxx"),
        ("put-created", put("fresh", blob)),
        ("get-fresh-decoded", get("fresh", 2.0)),
        ("get-fresh-cached", get("fresh", 3.0)),
        ("put-overwrite", put("fresh", blob[::-1])),
        ("get-overwritten", get("fresh", 4.0)),
        ("put-size-conflict", put("fresh", b"tiny")),
        ("put-empty", put("empty", b"")),
        ("tick", post("/admin/tick?at=5.0")),
        ("tick-with-body", b"POST /admin/tick HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"),
        ("http10", b"GET /objects/object-0 HTTP/1.0\r\nX-Replay-At: 6.0\r\n\r\n"),
        ("http10-keep-alive", b"GET /objects/object-0 HTTP/1.0\r\n"
                              b"X-Replay-At: 7.0\r\nConnection: keep-alive\r\n\r\n"),
        ("connection-close", get("object-1", 8.0, "Connection: close\r\n")),
        ("close-ends-the-batch", get("object-1", 9.0, "Connection: close\r\n")
                                 + get("object-2", 10.0)),
        ("ledger-tail", b"GET /ledger?start=2 HTTP/1.1\r\nHost: g\r\n\r\n"),
        ("ledger-bad-start", b"GET /ledger?start=x HTTP/1.1\r\nHost: g\r\n\r\n"),
        ("pipelined-12", pipelined),
    ]


def scenarios() -> list[tuple[str, EngineConfig, bool, list[tuple[str, bytes]]]]:
    """Every ``(name, config, payloads, steps)`` the file covers."""
    out = []
    for strategy in STRATEGIES:
        for payloads in (True, False):
            name = f"{strategy}/{'payloads' if payloads else 'virtual'}"
            out.append((name, config(strategy), payloads, read_script()))
    out.append(("agar/faults", config("agar", FAULTS), True, fault_script()))
    out.append(("lru-3/misc", config("lru-3"), True, misc_script()))
    out.append(("lru-3/fault-bodies", config("lru-3"), True,
                fault_body_script()))
    return out


def describe(raw: bytes) -> dict:
    """Digest of a reply plus what a reader needs to see what it pinned."""
    responses = []
    buffer = bytearray(raw)
    while (response := pop_response(buffer)) is not None:
        status, headers, _ = response
        responses.append(" ".join(filter(None, (
            str(status), headers.get("x-agar-hit"), headers.get("x-agar-body"),
            "degraded" if headers.get("x-agar-degraded") == "1" else None))))
    if buffer:
        raise SystemExit(f"reply does not split into responses: {bytes(buffer)!r}")
    return {"responses": responses, "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest()}


async def run_scenario(config_: EngineConfig, payloads: bool,
                       steps: list[tuple[str, bytes]]) -> dict:
    cluster = ServeCluster.from_config(config_, payloads=payloads)
    await cluster.start()
    try:
        address = cluster.addresses[REGION]
        return {label: describe(await exchange(address, payload))
                for label, payload in steps}
    finally:
        await cluster.stop()


def build() -> dict:
    return {name: asyncio.run(run_scenario(config_, payloads, steps))
            for name, config_, payloads, steps in scenarios()}


def check_coverage(golden: dict) -> None:
    """Refuse to freeze a script that lost one of the shapes it promises."""
    seen = {response for scenario in golden.values()
            for step in scenario.values() for response in step["responses"]}
    wanted = {"200 full cached", "200 partial cached", "200 miss decoded",
              "200 miss cached", "200 miss virtual", "200 partial virtual",
              "200 full virtual", "200 miss decoded degraded", "503 miss",
              "201", "204", "409", "404", "400", "405", "501", "505"}
    if wanted - seen:
        raise SystemExit(f"script no longer covers {sorted(wanted - seen)}")
    if len(golden["lru-3/misc"]["pipelined-12"]["responses"]) != 12:
        raise SystemExit("the pipelined segment must hold 12 responses")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing wire_responses.json")
    args = parser.parse_args(argv)
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it",
              file=sys.stderr)
        return 2
    golden = build()
    check_coverage(golden)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    # One step per line, in script order.
    blocks = [f' "generated_at_commit": {json.dumps(commit)}']
    for name, scenario in golden.items():
        steps = ",\n".join(
            f"  {json.dumps(label)}: {json.dumps(step, separators=(',', ':'))}"
            for label, step in scenario.items())
        blocks.append(f" {json.dumps(name)}: {{\n{steps}\n }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    steps = sum(len(scenario) for scenario in golden.values())
    print(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios, {steps} steps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
