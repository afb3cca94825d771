"""Deterministic fault injection: outage/brownout/AZ-failure schedules.

The paper's availability argument (§II-A) is that erasure coding lets reads
survive chunk loss — any ``k`` of the ``k + m`` chunks reconstruct the
object.  This module supplies the disturbances that exercise that claim:

* :class:`RegionOutage` — every chunk hosted in a backend region becomes
  unreachable for a window of simulated time;
* :class:`BackendBrownout` — reads from a backend region still succeed but
  their sampled latency is multiplied by a spike factor for the window;
* :class:`AZFailure` — a client region's availability zone fails: its cache
  server is unreachable (reads skip the cache entirely) *and* the colocated
  backend bucket is down, as if the whole AZ dropped off the network.

A :class:`FaultSchedule` is a static timeline of such disturbances.  It is
compiled once into a sequence of :class:`FaultState` snapshots — one per
distinct transition time — which the event engine installs into the read
strategies via timer events (see ``repro.sim.engine``).  Because the
schedule is data, not callbacks, it serialises across the process boundary of
``execute_sharded`` unchanged, and the same timeline drives the lane
scheduler, the reference scheduler, and sharded runs bit-identically.

All times are simulated seconds **relative to the start of the run**; a
windowed fault is active on the half-open interval ``[start_s, end_s)``,
whose bounds are finite.  A fault's wire form is the JSON object of a
``POST /admin/fault`` body: :func:`fault_to_dict` writes it (the chaos
injector) and :func:`fault_from_dict` reads it (the gateway).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields


def _validate_window(what: str, start_s: float, end_s: float) -> None:
    if not (math.isfinite(start_s) and math.isfinite(end_s)):
        raise ValueError(
            f"{what}: start_s and end_s must be finite, got [{start_s}, {end_s})")
    if start_s < 0:
        raise ValueError(f"{what}: start_s must be non-negative, got {start_s}")
    if end_s <= start_s:
        raise ValueError(
            f"{what}: end_s must be greater than start_s, got [{start_s}, {end_s})"
        )


@dataclass(frozen=True, slots=True)
class RegionOutage:
    """A backend region is unreachable on ``[start_s, end_s)``.

    Reads planned against its chunks must re-plan from surviving regions and
    decode from any ``k`` available shards (a *degraded read*); if fewer than
    ``k`` shards remain reachable anywhere, the read fails (an *unavailable
    read*).
    """

    region: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _validate_window("RegionOutage", self.start_s, self.end_s)


@dataclass(frozen=True, slots=True)
class BackendBrownout:
    """Reads from a backend region slow down by ``multiplier`` on ``[start_s, end_s)``.

    The region stays reachable — a brownout alone never degrades a read, it
    only stretches the sampled latency of every chunk fetched from the
    affected region (jitter included), modelling link congestion or a
    throttled bucket.
    """

    region: str
    start_s: float
    end_s: float
    multiplier: float = 3.0

    def __post_init__(self) -> None:
        _validate_window("BackendBrownout", self.start_s, self.end_s)
        if not (math.isfinite(self.multiplier) and self.multiplier > 0):
            raise ValueError("BackendBrownout: multiplier must be finite and "
                             f"positive, got {self.multiplier}")


@dataclass(frozen=True, slots=True)
class AZFailure:
    """A client region's availability zone fails on ``[start_s, end_s)``.

    The region's cache server is unreachable — its clients skip cache lookups
    and cache fills for the window (every successful read is degraded) — and
    the colocated backend bucket is down exactly like a :class:`RegionOutage`
    of the same region.
    """

    region: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _validate_window("AZFailure", self.start_s, self.end_s)


#: Any single schedulable disturbance.
Fault = RegionOutage | BackendBrownout | AZFailure

#: Each fault type by the ``kind`` that names it in its wire form.
_KINDS = {"outage": RegionOutage, "brownout": BackendBrownout,
          "az": AZFailure}
_KIND_NAMES = {fault_type: kind for kind, fault_type in _KINDS.items()}
_NUMBER_FIELDS = ("start_s", "end_s", "multiplier")


def fault_to_dict(fault: Fault) -> dict:
    """The wire form of ``fault``: its kind, then its fields in order."""
    return {"kind": _KIND_NAMES[type(fault)],
            **{item.name: getattr(fault, item.name) for item in fields(fault)}}


def fault_from_dict(raw: object, has_region: Callable[[str], bool]) -> Fault:
    """The fault a decoded wire form describes, in a region ``has_region``
    accepts; the ``ValueError`` names the first thing wrong with it."""
    if not isinstance(raw, dict):
        raise ValueError("fault body must be a JSON object")
    kind = raw.get("kind")
    fault_type = _KINDS.get(kind) if isinstance(kind, str) else None
    if fault_type is None:
        raise ValueError(f"unknown fault kind {kind!r} "
                         f"(expected one of {sorted(_KINDS)})")
    region = raw.get("region")
    if not isinstance(region, str) or not has_region(region):
        raise ValueError(f"unknown fault region {region!r}")
    numbers = {name: raw[name] for name in _NUMBER_FIELDS if name in raw}
    for name, value in numbers.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"fault {name} must be a finite number")
    if "start_s" not in numbers or "end_s" not in numbers:
        raise ValueError("fault body needs start_s and end_s")
    if "multiplier" in numbers and fault_type is not BackendBrownout:
        raise ValueError("multiplier only applies to brownouts")
    unknown = set(raw) - {"kind", "region", *_NUMBER_FIELDS}
    if unknown:
        raise ValueError(f"unknown fault fields {sorted(unknown)}")
    return fault_type(region=region,
                      **{name: float(value) for name, value in numbers.items()})


@dataclass(frozen=True, slots=True)
class FaultState:
    """The set of disturbances active at one instant of simulated time.

    Attributes:
        down_backends: regions whose backend buckets are unreachable.
        brownouts: sorted ``(region, multiplier)`` pairs for browned-out
            backend links (kept as a tuple so states stay hashable; consumers
            build a dict once per transition).
        down_caches: client regions whose cache server is unreachable.
    """

    down_backends: frozenset[str] = frozenset()
    brownouts: tuple[tuple[str, float], ...] = ()
    down_caches: frozenset[str] = frozenset()

    @property
    def is_clear(self) -> bool:
        """True when no disturbance is active."""
        return not (self.down_backends or self.brownouts or self.down_caches)


#: The no-disturbance state every run starts and (usually) ends in.
CLEAR_STATE = FaultState()


@dataclass(frozen=True)
class FaultSchedule:
    """A timeline of disturbances, compiled into per-instant fault states.

    The schedule is immutable and purely data: the constructor compiles the
    fault windows into ``(time, FaultState)`` snapshots at every distinct
    transition time, deduplicating transitions that do not change the state.
    Windows of *different* kinds or regions compose freely, but the
    constructor rejects overlapping same-region :class:`RegionOutage` windows
    and overlapping same-region :class:`BackendBrownout` windows: the former
    silently merge (one of the windows is then misleading about when the
    region recovers) and the latter used to compile into a surprising
    multiplicative state.  Write one window with the intended bounds (and,
    for brownouts, the intended combined multiplier) instead.

    Attributes:
        faults: the disturbance windows, in any order.
    """

    faults: tuple[Fault, ...]
    _timeline: tuple[tuple[float, FaultState], ...] = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, faults: tuple[Fault, ...] | list[Fault]) -> None:
        object.__setattr__(self, "faults", tuple(faults))
        for fault in self.faults:
            if not isinstance(fault, (RegionOutage, BackendBrownout, AZFailure)):
                raise TypeError(f"not a fault: {fault!r}")
        self._validate_overlaps()
        object.__setattr__(self, "_timeline", self._compile())

    def _validate_overlaps(self) -> None:
        for kind in (RegionOutage, BackendBrownout):
            windows: dict[str, list[Fault]] = {}
            for fault in self.faults:
                if isinstance(fault, kind):
                    windows.setdefault(fault.region, []).append(fault)
            for region, group in windows.items():
                group.sort(key=lambda fault: (fault.start_s, fault.end_s))
                for earlier, later in zip(group, group[1:]):
                    if later.start_s < earlier.end_s:
                        raise ValueError(
                            f"overlapping {kind.__name__} windows for region "
                            f"{region!r}: [{earlier.start_s}, {earlier.end_s}) and "
                            f"[{later.start_s}, {later.end_s}) — merge them into "
                            "one window with the intended bounds"
                        )

    def _state_at_compile(self, time_s: float) -> FaultState:
        down_backends: set[str] = set()
        down_caches: set[str] = set()
        brownouts: dict[str, float] = {}
        for fault in self.faults:
            if not (fault.start_s <= time_s < fault.end_s):
                continue
            if isinstance(fault, RegionOutage):
                down_backends.add(fault.region)
            elif isinstance(fault, BackendBrownout):
                brownouts[fault.region] = (
                    brownouts.get(fault.region, 1.0) * fault.multiplier
                )
            else:  # AZFailure
                down_caches.add(fault.region)
                down_backends.add(fault.region)
        if not (down_backends or down_caches or brownouts):
            return CLEAR_STATE
        return FaultState(
            down_backends=frozenset(down_backends),
            brownouts=tuple(sorted(brownouts.items())),
            down_caches=frozenset(down_caches),
        )

    def _compile(self) -> tuple[tuple[float, FaultState], ...]:
        boundaries = {0.0}
        for fault in self.faults:
            boundaries.add(float(fault.start_s))
            boundaries.add(float(fault.end_s))
        timeline: list[tuple[float, FaultState]] = []
        for time_s in sorted(boundaries):
            state = self._state_at_compile(time_s)
            if timeline and timeline[-1][1] == state:
                continue  # no-op transition — don't schedule a timer for it
            timeline.append((time_s, state))
        return tuple(timeline)

    @property
    def is_empty(self) -> bool:
        """True when the schedule never leaves the clear state."""
        return len(self._timeline) == 1 and self._timeline[0][1].is_clear

    @property
    def initial_state(self) -> FaultState:
        """The fault state at time 0 (non-clear for windows starting at 0)."""
        return self._timeline[0][1]

    @property
    def transitions(self) -> tuple[tuple[float, FaultState], ...]:
        """State changes at times strictly after 0, sorted by time.

        Each entry is the *complete* state from that time on (not a delta),
        so consuming a transition is a single install — order-independent
        recovery if several faults end at the same instant.
        """
        return self._timeline[1:]

    @property
    def end_s(self) -> float:
        """Time after which the state no longer changes (0 for empty schedules)."""
        return self._timeline[-1][0]

    def state_at(self, time_s: float) -> FaultState:
        """The fault state active at simulated time ``time_s``."""
        state = self._timeline[0][1]
        for transition_time, next_state in self._timeline[1:]:
            if transition_time > time_s:
                break
            state = next_state
        return state

    def regions(self) -> frozenset[str]:
        """Every region touched by any fault (for topology validation)."""
        return frozenset(fault.region for fault in self.faults)

    def describe(self) -> str:
        """Human-readable table of the schedule, one line per fault window.

        Used by the ``fig_failures`` report so a run's output states exactly
        which disturbances it was measured under.
        """
        if not self.faults:
            return "fault schedule: (empty)"
        ordered = sorted(
            self.faults,
            key=lambda fault: (fault.start_s, fault.end_s, fault.region),
        )
        rows = [("kind", "region", "window (s)", "detail")]
        for fault in ordered:
            window = f"[{fault.start_s:g}, {fault.end_s:g})"
            if isinstance(fault, BackendBrownout):
                detail = f"latency x{fault.multiplier:g}"
            elif isinstance(fault, AZFailure):
                detail = "cache + backend down"
            else:
                detail = "backend down"
            rows.append((type(fault).__name__, fault.region, window, detail))
        widths = [max(len(row[col]) for row in rows) for col in range(4)]
        lines = ["fault schedule:"]
        for index, row in enumerate(rows):
            lines.append("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
            if index == 0:
                lines.append("  " + "  ".join("-" * width for width in widths))
        return "\n".join(lines)
