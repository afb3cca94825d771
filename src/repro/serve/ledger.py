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
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from repro.client.stats import ReadResult

KIND_READ = "read"
KIND_TICK = "tick"
KIND_FAULT = "fault"
KIND_CRASH = "crash"
KIND_RECOVERY = "recovery"

#: ``fault_index`` of a dynamically installed (wire-delivered) fault state,
#: as opposed to an index into a precompiled schedule (``>= 0``) or the
#: initial install (``-1``).
DYNAMIC_FAULT_INDEX = -2


def _line(kind: str, at: float, key: str, hit: str, cache_chunks: int,
          backend_chunks: int, neighbor_chunks: int,
          backend_regions: tuple[str, ...], degraded: bool, failed: bool,
          fault_index: int) -> str:
    """:meth:`LedgerEntry.to_line` of the entry with these fields."""
    return "|".join((
        kind,
        repr(at),
        key,
        hit,
        str(cache_chunks),
        str(backend_chunks),
        str(neighbor_chunks),
        ",".join(backend_regions),
        "1" if degraded else "0",
        "1" if failed else "0",
        str(fault_index),
    ))


class LedgerEntry(NamedTuple):
    """One decision: a read, a reconfiguration tick, or a fault transition.

    ``at`` is the simulated time the decision was taken at (the read's
    arrival, the timer's fire time).  ``fault_index`` is the index into the
    fault schedule's transition list, ``-1`` for the initial state installed
    at deployment time.  Read-only fields are zero/empty for timer entries.

    A named tuple, not a frozen dataclass: a gateway builds one per request,
    and a generated ``__init__`` doing ``object.__setattr__`` per field measured
    4× slower.  Immutability, field-wise ``==`` and keyword construction stay.
    """

    kind: str
    at: float
    key: str = ""
    hit: str = ""
    cache_chunks: int = 0
    backend_chunks: int = 0
    neighbor_chunks: int = 0
    backend_regions: tuple[str, ...] = ()
    degraded: bool = False
    failed: bool = False
    fault_index: int = 0

    def to_line(self) -> str:
        """Canonical one-line encoding (pipe-separated, repr floats)."""
        return _line(*self)

    @classmethod
    def from_line(cls, line: str) -> "LedgerEntry":
        parts = line.rstrip("\n").split("|")
        if len(parts) != len(cls._fields):
            raise ValueError(f"malformed ledger line: {line!r}")
        (kind, at, key, hit, cache, backend, neighbors, regions,
         degraded, failed, fault_index) = parts
        return cls(
            kind=kind,
            at=float(at),
            key=key,
            hit=hit,
            cache_chunks=int(cache),
            backend_chunks=int(backend),
            neighbor_chunks=int(neighbors),
            backend_regions=tuple(regions.split(",")) if regions else (),
            degraded=degraded == "1",
            failed=failed == "1",
            fault_index=int(fault_index),
        )


_new_entry = tuple.__new__


def read_entry(result: ReadResult) -> LedgerEntry:
    """The ledger entry for one composed read result."""
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


#: One entry's record: ``at`` (float64), key id, cache / backend / neighbour
#: chunk counts, ``fault_index``, backend-regions id, kind id, hit id,
#: ``degraded``, ``failed``.  The ids index the ledger's interned tables.
#: The cache count is 32-bit because a recovery entry carries the number of
#: chunks the replay restored there; a read moves at most one codec's
#: ``k + m`` chunks, so 16 bits hold the other two.
_RECORD = struct.Struct("<dIIHHiHBB??")
_SIZE = _RECORD.size


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

    __slots__ = ("_records", "_kinds", "_keys", "_hits", "_regions")

    def __init__(self, entries: Iterable[LedgerEntry] = ()) -> None:
        self._records = bytearray()
        self._kinds = _Symbols()
        self._keys = _Symbols()
        self._hits = _Symbols()
        self._regions = _Symbols()
        for entry in entries:
            self.append(entry)

    def append(self, entry: LedgerEntry) -> None:
        """Append one entry's record."""
        (kind, at, key, hit, cache_chunks, backend_chunks, neighbor_chunks,
         backend_regions, degraded, failed, fault_index) = entry
        try:
            record = _RECORD.pack(
                at, self._keys[key], cache_chunks, backend_chunks,
                neighbor_chunks, fault_index, self._regions[backend_regions],
                self._kinds[kind], self._hits[hit], degraded, failed)
        except struct.error as exc:
            raise ValueError(f"ledger entry does not fit a record: {exc}"
                             f" ({entry!r})") from None
        self._records += record

    def __len__(self) -> int:
        return len(self._records) // _SIZE

    def _entry(self, index: int) -> LedgerEntry:
        (at, key, cache_chunks, backend_chunks, neighbor_chunks, fault_index,
         backend_regions, kind, hit, degraded, failed) = _RECORD.unpack_from(
             self._records, index * _SIZE)
        return LedgerEntry(
            self._kinds.values[kind], at, self._keys.values[key],
            self._hits.values[hit], cache_chunks, backend_chunks,
            neighbor_chunks, self._regions.values[backend_regions], degraded,
            failed, fault_index)

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
        """``ledger_to_lines(self[start:])``, without building entries."""
        start = slice(start, None).indices(len(self))[0]
        kinds, keys = self._kinds.values, self._keys.values
        hits, regions = self._hits.values, self._regions.values
        return "".join(
            _line(kinds[kind], at, keys[key], hits[hit], cache_chunks,
                  backend_chunks, neighbor_chunks, regions[backend_regions],
                  degraded, failed, fault_index) + "\n"
            for (at, key, cache_chunks, backend_chunks, neighbor_chunks,
                 fault_index, backend_regions, kind, hit, degraded, failed)
            in _RECORD.iter_unpack(self._records[start * _SIZE:]))


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
