"""Canonical ledger encoding: exact round-trips and divergence reporting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.stats import HitType, ReadResult
from repro.serve.ledger import (KIND_FAULT, KIND_READ, KIND_TICK, LedgerEntry,
                                diff_ledgers, fault_entry, ledger_from_lines,
                                ledger_to_lines, read_entry, tick_entry)

_keys = st.text(alphabet=st.sampled_from(
    "abcdefghijklmnopqrstuvwxyz0123456789.-_"), min_size=1, max_size=20)
_entries = st.builds(
    LedgerEntry,
    kind=st.sampled_from([KIND_READ, KIND_TICK, KIND_FAULT]),
    at=st.floats(allow_nan=False, allow_infinity=False, width=64),
    key=_keys,
    hit=st.sampled_from(["full", "partial", "miss", ""]),
    cache_chunks=st.integers(min_value=0, max_value=20),
    backend_chunks=st.integers(min_value=0, max_value=20),
    neighbor_chunks=st.integers(min_value=0, max_value=20),
    backend_regions=st.tuples() | st.tuples(_keys) | st.tuples(_keys, _keys),
    degraded=st.booleans(),
    failed=st.booleans(),
    fault_index=st.integers(min_value=-1, max_value=50),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, max_size=20))
def test_line_encoding_roundtrips_exactly(entries):
    assert ledger_from_lines(ledger_to_lines(entries)) == entries


_FIELDS = dict(kind=KIND_READ, at=1.5, key="object-1", hit="partial",
               cache_chunks=3, backend_chunks=6, neighbor_chunks=0,
               backend_regions=("dublin", "frankfurt"), degraded=True,
               failed=False, fault_index=0)
_OTHER = dict(kind=KIND_TICK, at=2.5, key="object-2", hit="miss",
              cache_chunks=4, backend_chunks=5, neighbor_chunks=1,
              backend_regions=("dublin",), degraded=False, failed=True,
              fault_index=7)


def test_entry_is_an_immutable_value():
    """What the frozen dataclass gave and the cheap constructor must keep."""
    entry = LedgerEntry(**_FIELDS)
    assert entry == LedgerEntry(**_FIELDS)
    assert hash(entry) == hash(LedgerEntry(**_FIELDS))
    assert LedgerEntry.from_line(entry.to_line()) == entry
    for name, other in _OTHER.items():
        assert getattr(entry, name) == _FIELDS[name]
        assert LedgerEntry(**{**_FIELDS, name: other}) != entry, name
        with pytest.raises(AttributeError):
            setattr(entry, name, other)
    assert tick_entry(3.0) == LedgerEntry(kind=KIND_TICK, at=3.0)
    assert fault_entry(4.0, 2) == LedgerEntry(kind=KIND_FAULT, at=4.0,
                                              fault_index=2)


def test_read_entry_maps_every_result_field():
    result = ReadResult("object-1", 123.25, HitType.PARTIAL, 3, 6,
                        backend_regions=("dublin", "frankfurt"),
                        started_at_s=1.5, chunks_from_neighbors=0,
                        degraded=True, failed=False)
    assert read_entry(result) == LedgerEntry(**_FIELDS)


def test_repr_floats_survive_the_wire():
    entry = tick_entry(0.1 + 0.2)  # 0.30000000000000004
    again = LedgerEntry.from_line(entry.to_line())
    assert again.at == entry.at


def test_malformed_line_is_rejected():
    with pytest.raises(ValueError, match="malformed ledger line"):
        LedgerEntry.from_line("read|1.0|too|few|fields")


def test_diff_reports_first_divergence():
    base = [tick_entry(1.0), fault_entry(2.0, 0), tick_entry(3.0)]
    assert diff_ledgers(base, list(base)) is None
    changed = [tick_entry(1.0), fault_entry(2.0, 1), tick_entry(3.0)]
    diff = diff_ledgers(base, changed)
    assert diff is not None and "entry 1" in diff
    short = base[:2]
    diff = diff_ledgers(base, short)
    assert diff is not None and "lengths differ" in diff
