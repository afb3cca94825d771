"""Canonical ledger encoding, the record log, and divergence reporting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.stats import HitType, ReadResult
from repro.serve.ledger import (KIND_CRASH, KIND_FAULT, KIND_READ,
                                KIND_RECOVERY, KIND_TICK, Ledger, LedgerEntry,
                                diff_ledgers, fault_entry, ledger_from_lines,
                                ledger_to_lines, read_entry, tick_entry)

#: The integer fields' ranges, as wide as the record format stores them.
_WIDTHS = {
    "cache_chunks": (0, 2**32 - 1),
    "backend_chunks": (0, 2**16 - 1),
    "neighbor_chunks": (0, 2**16 - 1),
    "fault_index": (-2**31, 2**31 - 1),
}

_keys = st.text(alphabet=st.sampled_from(
    "abcdefghijklmnopqrstuvwxyz0123456789.-_äßé€日本"), min_size=1,
    max_size=20)


def _counts(field):
    low, high = _WIDTHS[field]
    return st.integers(min_value=low, max_value=high)


_entries = st.builds(
    LedgerEntry,
    kind=st.sampled_from([KIND_READ, KIND_TICK, KIND_FAULT, KIND_CRASH,
                          KIND_RECOVERY]),
    at=st.floats(allow_nan=False, allow_infinity=False, width=64),
    key=_keys,
    hit=st.sampled_from(["full", "partial", "miss", "warm", "cold", ""]),
    cache_chunks=_counts("cache_chunks"),
    backend_chunks=_counts("backend_chunks"),
    neighbor_chunks=_counts("neighbor_chunks"),
    backend_regions=st.lists(_keys, max_size=4).map(tuple),
    degraded=st.booleans(),
    failed=st.booleans(),
    fault_index=_counts("fault_index"),
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


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, max_size=30), st.integers(-35, 35) | st.none(),
       st.integers(-35, 35) | st.none(),
       st.integers(-4, 4).filter(bool) | st.none())
def test_record_log_reads_back_as_the_list(entries, start, stop, step):
    ledger = Ledger(entries)
    assert list(ledger) == entries
    assert list(reversed(ledger)) == entries[::-1]
    assert len(ledger) == len(entries)
    assert ledger == entries and entries == ledger
    assert ledger == Ledger(entries)
    # `==` forgives 1 == True and 0.0 == -0.0; the canonical text does not.
    assert ledger_to_lines(ledger) == ledger_to_lines(entries)
    for index in range(-len(entries) - 2, len(entries) + 2):
        if -len(entries) <= index < len(entries):
            assert ledger[index] == entries[index]
            assert type(ledger[index]) is LedgerEntry
        else:
            with pytest.raises(IndexError):
                ledger[index]
    assert ledger[start:stop:step] == entries[start:stop:step]
    if start is not None:
        assert ledger.lines(start) == ledger_to_lines(entries[start:])


@pytest.mark.parametrize("field", sorted(_WIDTHS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_value_outside_its_field_raises(field, data):
    low, high = _WIDTHS[field]
    edges = [LedgerEntry(**{**_FIELDS, field: low}),
             LedgerEntry(**{**_FIELDS, field: high})]
    ledger = Ledger(edges)
    value = data.draw(st.integers(max_value=low - 1)
                      | st.integers(min_value=high + 1) | st.just(1.0))
    with pytest.raises(ValueError, match="does not fit"):
        ledger.append(LedgerEntry(**{**_FIELDS, field: value}))
    assert ledger == edges


def test_an_intern_table_past_its_id_width_raises():
    ledger = Ledger(LedgerEntry(KIND_TICK, 0.0, hit=str(n)) for n in range(256))
    with pytest.raises(ValueError, match="does not fit"):
        ledger.append(LedgerEntry(KIND_TICK, 0.0, hit="256"))
    assert len(ledger) == 256 and ledger[-1].hit == "255"


def test_record_log_is_an_append_only_sequence():
    entries = [LedgerEntry(**_FIELDS), LedgerEntry(**_OTHER), tick_entry(4.0)]
    ledger = Ledger()
    assert ledger == [] and not ledger and ledger.lines() == ""
    seen = []
    for entry in entries:
        ledger.append(entry)
    for entry in ledger:  # a reader sees appends made while it iterates
        seen.append(entry)
        if len(ledger) < 5:
            ledger.append(fault_entry(5.0, -2))
    assert seen == list(ledger) == entries + [fault_entry(5.0, -2)] * 2
    assert ledger != entries and ledger != seen[:-1] + [tick_entry(9.0)]
    assert ledger.index(tick_entry(4.0)) == 2 and tick_entry(4.0) in ledger
    assert ledger.lines(-1) == fault_entry(5.0, -2).to_line() + "\n"
    assert ledger.lines(99) == ""
    with pytest.raises(TypeError):
        ledger["0"]
    with pytest.raises(TypeError):
        hash(ledger)
