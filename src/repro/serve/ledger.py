"""The per-request decision ledger the equivalence harness compares.

A ledger is the ordered list of *decisions* a region made: one ``read``
entry per object read (hit class, chunk counts, backend placement, degraded
and failed flags), plus ``tick`` and ``fault`` entries marking the exact
points where timer-driven reconfiguration and fault transitions interleaved
with the reads.  Entries deliberately exclude latencies — wire time and
modeled time are incomparable — and include everything that *is* comparable
bit-for-bit between a live gateway and a seeded
:class:`~repro.sim.engine.EventEngine` run.

The canonical line encoding (:func:`ledger_to_lines` /
:func:`ledger_from_lines`) round-trips exactly: floats are encoded with
``repr`` so ``float(repr(x)) == x``, and the gateway's ``GET /ledger``
endpoint serves precisely these lines.

A gateway keeps its ledger as a :class:`Ledger`: an in-memory record log,
one fixed-width 30-byte record per entry in a single ``bytearray``, that
reads back as the sequence of :class:`LedgerEntry` a list would hold.  It
is not durable (ROADMAP item 1 A2).
"""

from __future__ import annotations

import operator
import struct
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

from repro.client.stats import ReadResult
from repro.serve.protocol import flag_text, parse_flag, parse_regions

KIND_READ = "read"
KIND_TICK = "tick"
KIND_FAULT = "fault"
KIND_CRASH = "crash"
KIND_RECOVERY = "recovery"

#: ``fault_index`` of a dynamically installed (wire-delivered) fault state,
#: as opposed to an index into a precompiled schedule (``>= 0``) or the
#: initial install (``-1``).
DYNAMIC_FAULT_INDEX = -2

_new_entry = tuple.__new__


_NO_DEFAULT = object()


class _Field(NamedTuple):
    """One column of the ledger (see :data:`FIELDS`)."""

    name: str
    default: object
    code: str
    to_text: Callable[[object], str]
    from_text: Callable[[str], object]
    interned: bool = False


#: :class:`LedgerEntry`'s fields, in line and record order: name, default,
#: the ``struct`` code of its slot in a record, its line codec (value → text,
#: text → value), and whether the record holds an id into the ledger's table
#: of the field's values rather than the value itself.  The line format, the
#: record format and the intern tables are all read off this table.
FIELDS = (
    _Field("kind", _NO_DEFAULT, "B", str, str, interned=True),
    _Field("at", _NO_DEFAULT, "d", repr, float),
    _Field("key", "", "I", str, str, interned=True),
    _Field("hit", "", "B", str, str, interned=True),
    _Field("cache_chunks", 0, "I", str, int),
    _Field("backend_chunks", 0, "H", str, int),
    _Field("neighbor_chunks", 0, "H", str, int),
    _Field("backend_regions", (), "H", ",".join, parse_regions, interned=True),
    _Field("degraded", False, "?", flag_text, parse_flag),
    _Field("failed", False, "?", flag_text, parse_flag),
    _Field("fault_index", 0, "i", str, int),
)


class LedgerEntry(namedtuple(
        "LedgerEntry", [field.name for field in FIELDS],
        defaults=[field.default for field in FIELDS
                  if field.default is not _NO_DEFAULT])):
    """One decision: a read, a reconfiguration tick, or a fault transition.

    Its fields are the names in :data:`FIELDS`, in order.  ``at`` is the
    simulated time the decision was taken at (the read's arrival, the
    timer's fire time).  ``fault_index`` is the index into the fault
    schedule's transition list, ``-1`` for the initial state installed at
    deployment time.  Read-only fields are zero/empty for timer entries.

    A named tuple, not a frozen dataclass: a gateway builds one per request,
    and a generated ``__init__`` doing ``object.__setattr__`` per field measured
    4× slower.  Immutability, field-wise ``==`` and keyword construction stay.
    """

    __slots__ = ()

    def to_line(self) -> str:
        """Canonical one-line encoding (pipe-separated, repr floats)."""
        return "|".join([field.to_text(value)
                         for field, value in zip(FIELDS, self)])

    @classmethod
    def from_line(cls, line: str) -> "LedgerEntry":
        parts = line.rstrip("\n").split("|")
        if len(parts) != len(FIELDS):
            raise ValueError(f"malformed ledger line: {line!r}")
        return _new_entry(cls, [field.from_text(part)
                                for field, part in zip(FIELDS, parts)])


def read_entry(result: ReadResult) -> LedgerEntry:
    """The ledger entry for one composed read result.

    The producer of every column a read fills: each is one of ``result``'s
    fields (``docs/serving.md``'s read-record table names which), ``kind``
    is ``read`` and ``fault_index`` 0.  The latency and the resilience
    counters stay out.
    """
    # Once per served read: ``tuple.__new__`` skips the named tuple's
    # generated ``__new__`` frame and ``_value_`` the enum's ``value``
    # property, together halving this call (≈ 1.45 → 0.65 µs on a 2-vCPU VM).
    return _new_entry(LedgerEntry, (
        KIND_READ, result.started_at_s, result.key, result.hit_type._value_,
        result.chunks_from_cache, result.chunks_from_backend,
        result.chunks_from_neighbors, tuple(result.backend_regions),
        result.degraded, result.failed, 0))


def tick_entry(at: float) -> LedgerEntry:
    """The ledger entry for one timer-driven reconfiguration tick."""
    return LedgerEntry(kind=KIND_TICK, at=at)


def fault_entry(at: float, fault_index: int) -> LedgerEntry:
    """The ledger entry for one fault-state install (``-1`` = initial)."""
    return LedgerEntry(kind=KIND_FAULT, at=at, fault_index=fault_index)


def crash_entry(at: float) -> LedgerEntry:
    """The ledger entry marking a detected gateway crash.

    Appended by the supervisor when it takes a region down for recovery, so
    the ledger — an in-memory :class:`Ledger` the supervisor hands to the
    new instance in the same process, not a durable log (ROADMAP item 1
    A2) — records exactly where the decision stream was cut.
    """
    return LedgerEntry(kind=KIND_CRASH, at=at)


def recovery_entry(at: float, entries_restored: int,
                   mode: str = "warm") -> LedgerEntry:
    """The ledger entry closing a crash/recovery cycle.

    Reuses existing fields so the line codec stays at one format: ``hit``
    carries the recovery mode (``"warm"``/``"cold"``) and ``cache_chunks``
    the number of cache entries the warm-recovery replay restored.
    """
    return LedgerEntry(kind=KIND_RECOVERY, at=at, hit=mode,
                       cache_chunks=entries_restored)


#: One entry's record: its fields in order, each in its ``code``.  The
#: cache count is 32-bit because a recovery entry carries the number of
#: chunks the replay restored there; a read moves at most one codec's
#: ``k + m`` chunks, so 16 bits hold the other two.
_RECORD = struct.Struct("<" + "".join(field.code for field in FIELDS))
_SIZE = _RECORD.size
#: Positions of the interned fields; a ledger keeps a table for each.
_INTERNED = tuple(position for position, field in enumerate(FIELDS)
                  if field.interned)
class _Symbols(dict):
    """Interning table: value → dense id, and ``values[id]`` back."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        super().__init__()
        self.values: list = []

    def __missing__(self, value) -> int:
        self[value] = index = len(self.values)
        self.values.append(value)
        return index


class Ledger(Sequence):
    """An append-only decision ledger stored as fixed-width records.

    Each entry is one 30-byte record in a single ``bytearray``: ≈ 35 B
    retained per entry with the array's over-allocation, against ≈ 170 B
    for a list of :class:`LedgerEntry` tuples.  ``kind``, ``key``, ``hit``
    and ``backend_regions`` are interned in tables kept per ledger, so each
    distinct value is held once.  Reads decode: indexing, slicing, iteration
    and ``reversed`` give the identical :class:`LedgerEntry` values with
    list semantics, and ``==`` compares against any sequence of entries.
    ``len`` counts the entries ever appended.  Every field round-trips
    exactly (``at`` is stored as a float64); a value that does not fit its
    field raises ``ValueError`` and leaves the ledger unchanged.

    >>> ledger = Ledger([tick_entry(1.5)])
    >>> ledger.append(fault_entry(2.0, -1))
    >>> ledger == [tick_entry(1.5), fault_entry(2.0, -1)]
    True
    >>> ledger.lines(1)
    'fault|2.0|||0|0|0||0|0|-1\\n'
    """

    __slots__ = ("_records", "_tables")

    def __init__(self, entries: Iterable[LedgerEntry] = ()) -> None:
        self._records = bytearray()
        self._tables = tuple(_Symbols() for _ in _INTERNED)
        for entry in entries:
            self.append(entry)

    def append(self, entry: LedgerEntry) -> None:
        """Append one entry's record."""
        # Written out over FIELDS, not looped (≈ 0.3 µs more a read); the
        # round trips of tests/docs/test_read_record.py hold it to the table.
        (kind, at, key, hit, cache_chunks, backend_chunks, neighbor_chunks,
         backend_regions, degraded, failed, fault_index) = entry
        kinds, keys, hits, regions = self._tables
        try:
            record = _RECORD.pack(
                kinds[kind], at, keys[key], hits[hit], cache_chunks,
                backend_chunks, neighbor_chunks, regions[backend_regions],
                degraded, failed, fault_index)
        except struct.error as exc:
            raise ValueError(f"ledger entry does not fit a record: {exc}"
                             f" ({entry!r})") from None
        self._records += record

    def __len__(self) -> int:
        return len(self._records) // _SIZE

    def _entry(self, index: int) -> LedgerEntry:
        values = list(_RECORD.unpack_from(self._records, index * _SIZE))
        for position, table in zip(_INTERNED, self._tables):
            values[position] = table.values[values[position]]
        return _new_entry(LedgerEntry, values)

    def __getitem__(self, index):
        count = len(self)
        if isinstance(index, slice):
            return [self._entry(position)
                    for position in range(*index.indices(count))]
        index = operator.index(index)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("ledger index out of range")
        return self._entry(index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Ledger({list(self)!r})"

    def lines(self, start: int = 0) -> str:
        """``ledger_to_lines(self[start:])``, without building entries.

        Each record's values go through their fields' ``to_text`` in one
        ``map``; an interned field's texts are rendered once per table.
        """
        start = slice(start, None).indices(len(self))[0]
        tables = iter(self._tables)
        codecs = [[field.to_text(value) for value in next(tables).values
                   ].__getitem__ if field.interned else field.to_text
                  for field in FIELDS]
        return "".join([
            "|".join(map(operator.call, codecs, values)) + "\n"
            for values in _RECORD.iter_unpack(self._records[start * _SIZE:])])


def ledger_to_lines(entries: Iterable[LedgerEntry]) -> str:
    """Encode a ledger as newline-terminated canonical lines."""
    return "".join(entry.to_line() + "\n" for entry in entries)


def ledger_from_lines(text: str) -> list[LedgerEntry]:
    """Decode a ledger from its canonical line encoding."""
    return [LedgerEntry.from_line(line)
            for line in text.splitlines() if line]


def diff_ledgers(expected: Sequence[LedgerEntry],
                 actual: Sequence[LedgerEntry]) -> str | None:
    """Human-readable first divergence between two ledgers (None if equal)."""
    for position, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return (f"ledgers diverge at entry {position}:\n"
                    f"  expected: {want.to_line()}\n"
                    f"  actual:   {got.to_line()}")
    if len(expected) != len(actual):
        return (f"ledger lengths differ: expected {len(expected)} entries, "
                f"got {len(actual)}")
    return None
