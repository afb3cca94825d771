"""One read record: ``ReadResult``, the ledger and the ``X-Agar-*`` headers.

A read's decision is a :class:`ReadResult`.  The ledger carries part of it
(``serve/ledger.py``'s ``FIELDS``, filled by ``read_entry``), and the
response headers carry part (``serve/protocol.py``'s ``READ_HEADERS``,
rendered by the gateway and parsed by the load generator).  Every slot must
be carried by one of the two or be listed in ``NOT_CARRIED`` with its
reason, and ``docs/serving.md``'s read-record table must say the same.
Which ledger column carries a slot is found by changing the slot and
seeing which column of ``read_entry``'s entry moves.  A hypothesis round
trip sends generated reads through both boundaries.
"""

from __future__ import annotations

import copy
import functools
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.stats import HitType, ReadResult
from repro.geo.regions import PAPER_REGIONS
from repro.serve.gateway import ServeCluster
from repro.serve.ledger import Ledger, LedgerEntry, read_entry
from repro.serve.loadgen import _RegionRun
from repro.serve.protocol import READ_HEADERS, build_response, parse_response
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import WorkloadSpec

ROOT = Path(__file__).resolve().parents[2]
SERVING = ROOT / "docs" / "serving.md"

#: Slots neither the ledger nor the headers carry, and why.
NOT_CARRIED = {
    "latency_ms": "wire time and modelled time are incomparable",
    "retries": "ROADMAP item 5",
    "hedged": "ROADMAP item 5",
    "hedge_won": "ROADMAP item 5",
}

_BASE = ReadResult("object-1", 12.5, HitType.PARTIAL, 3, 6, ("dublin",), 1.5,
                   1, False, False, 0, False, False)
#: Another value of each slot.
_OTHER = {"key": "object-2", "latency_ms": 13.5, "hit_type": HitType.FULL,
          "chunks_from_cache": 4, "chunks_from_backend": 5,
          "chunks_from_neighbors": 2, "backend_regions": ("tokyo",),
          "started_at_s": 2.5, "degraded": True, "failed": True, "retries": 1,
          "hedged": True, "hedge_won": True}


def ledger_columns() -> dict[str, str | None]:
    """Slot → the ledger column that moves when only that slot changes."""
    base = read_entry(_BASE)
    columns = {}
    for slot in ReadResult.__slots__:
        changed = copy.copy(_BASE)
        setattr(changed, slot, _OTHER[slot])
        moved = [name for name, old, new
                 in zip(LedgerEntry._fields, base, read_entry(changed))
                 if old != new]
        assert len(moved) <= 1, (slot, moved)
        columns[slot] = moved[0] if moved else None
    return columns


def header_of() -> dict[str, str]:
    return {field: name for name, field, _, _ in READ_HEADERS}


def _named(cell: str) -> str | None:
    """A cell's backticked name, ``None`` for a cell that starts with —."""
    if cell.startswith("—"):
        return None
    assert re.fullmatch(r"`[\w-]+`", cell), cell
    return cell.strip("`")


def documented() -> list[tuple[str, str | None, str | None]]:
    """The rows of serving.md's read-record table: slot, column, header."""
    text = SERVING.read_text()
    table = text[text.index("| `ReadResult` field |"):].split("\n\n")[0]
    return [(slot, _named(column), _named(header)) for slot, column, header
            in re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", table,
                          re.MULTILINE)]


def test_every_slot_is_carried_or_named_with_its_reason():
    columns, headers = ledger_columns(), header_of()
    assert set(headers) <= set(ReadResult.__slots__)
    for slot in ReadResult.__slots__:
        carried = columns[slot] is not None or slot in headers
        assert carried != (slot in NOT_CARRIED), slot


def test_serving_md_tabulates_the_code_tables():
    columns, headers = ledger_columns(), header_of()
    assert documented() == [(slot, columns[slot], headers.get(slot))
                            for slot in ReadResult.__slots__]


@functools.cache
def _gateway():
    config = EngineConfig(
        workload=WorkloadSpec(object_count=4, object_size=32 * 1024,
                              request_count=4, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="lru-3")])
    return ServeCluster.from_config(config).gateways["frankfurt"]


_counts = st.integers(0, 2**16 - 1)
reads = st.builds(
    ReadResult,
    key=st.from_regex(r"[A-Za-z0-9._-]{1,20}", fullmatch=True),
    latency_ms=st.floats(0, 1e6),
    hit_type=st.sampled_from(HitType),
    chunks_from_cache=_counts,
    chunks_from_backend=_counts,
    chunks_from_neighbors=_counts,
    backend_regions=st.lists(st.sampled_from([region.name for region
                                              in PAPER_REGIONS]),
                             unique=True, max_size=4).map(tuple),
    started_at_s=st.floats(allow_nan=False, allow_infinity=False),
    degraded=st.booleans(),
    failed=st.booleans(),
    retries=st.integers(0, 4),
    hedged=st.booleans(),
    hedge_won=st.booleans())


@settings(max_examples=150, deadline=None)
@given(reads, st.lists(st.integers(0, 11), max_size=12))
def test_a_read_crosses_both_boundaries_intact(read, indices):
    head, body = build_response(
        503 if read.failed else 200, b"",
        _gateway()._decision_headers(read, indices, "X-Agar-Body: none\r\n"))
    (status, headers, _), _ = parse_response(head + body)
    run = _RegionRun(keep_samples=True)
    run.record(0.25, status, headers, key=read.key,
               started_at_s=read.started_at_s, retries=read.retries)
    assert run.errors == 0
    (sample,) = run.samples
    for _, field, _, _ in READ_HEADERS:
        assert getattr(sample, field) == getattr(read, field), field
    assert (sample.failed, sample.latency_ms) == (read.failed, 0.25)
    assert headers["x-agar-chunks"] == ",".join(map(str, indices))

    entry = read_entry(read)
    assert LedgerEntry.from_line(entry.to_line()) == entry
    assert Ledger([entry]) == [entry]
    assert Ledger([entry]).lines() == entry.to_line() + "\n"
