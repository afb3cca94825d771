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
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

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
        return "|".join((
            self.kind,
            repr(self.at),
            self.key,
            self.hit,
            str(self.cache_chunks),
            str(self.backend_chunks),
            str(self.neighbor_chunks),
            ",".join(self.backend_regions),
            "1" if self.degraded else "0",
            "1" if self.failed else "0",
            str(self.fault_index),
        ))

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


def read_entry(result: ReadResult) -> LedgerEntry:
    """The ledger entry for one composed read result."""
    return LedgerEntry(
        KIND_READ, result.started_at_s, result.key, result.hit_type.value,
        result.chunks_from_cache, result.chunks_from_backend,
        result.chunks_from_neighbors, tuple(result.backend_regions),
        result.degraded, result.failed)


def tick_entry(at: float) -> LedgerEntry:
    """The ledger entry for one timer-driven reconfiguration tick."""
    return LedgerEntry(kind=KIND_TICK, at=at)


def fault_entry(at: float, fault_index: int) -> LedgerEntry:
    """The ledger entry for one fault-state install (``-1`` = initial)."""
    return LedgerEntry(kind=KIND_FAULT, at=at, fault_index=fault_index)


def crash_entry(at: float) -> LedgerEntry:
    """The ledger entry marking a detected gateway crash.

    Appended by the supervisor when it takes a region down for recovery, so
    the durable ledger records exactly where the decision stream was cut.
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
