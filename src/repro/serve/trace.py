"""Build a replayable trace and expected ledgers from a kept engine run.

The equivalence oracle works in three steps: run the seeded
:class:`~repro.sim.engine.EventEngine` with ``keep_results=True``, turn the
kept per-region results into (a) a **trace** — the exact per-region sequence
of reads, reconfiguration ticks and fault transitions with their simulated
timestamps — and (b) the **expected ledgers** those operations must produce;
then replay the trace against a live :class:`~repro.serve.gateway.ServeCluster`
and compare its ledgers entry-for-entry.

Timer reconstruction mirrors the engine's scheduler contract exactly
(see ``_LaneRun.run_until`` and its ``_fire_timers`` phase).  Each region
runs its own lane scheduler, so every rule is per region:

- a timer at time ``T`` fires before the region's first arrival with
  ``started_at_s >= T`` and after every arrival with ``started_at_s < T``
  (timers pop while ``timer_time <= block_start``);
- a timer fires at all iff ``T <=`` the region's own maximum arrival time
  (the last block its run drains);
- at equal fire times, fault transitions precede region ticks (faults are
  pushed first, so they carry lower sequence numbers);
- periodic region ticks fire at ``start + k * period`` for ``k = 1, 2, …``
  in timer mode only; legacy piggyback reconfiguration stays inside the
  strategy's own read path and needs no trace ops.

Scope: the engine draws each region's jitter from that region's own stream,
but ``ServeCluster.from_config`` still deploys every gateway on one shared
stream, so decisions that consume jitter draws — collaboration rounds (§VI)
and resilient reads (retry/hedge) — are not reproduced by a wire replay, and
configs using either are rejected.  Such deployments are still servable:
``ServeCluster.from_config`` deploys them and their ledgers record every
decision (including crash/recovery entries from the chaos tier); only this
oracle's equivalence claim does not extend to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.serve.ledger import (KIND_FAULT, KIND_READ, KIND_TICK, LedgerEntry,
                                fault_entry, read_entry, tick_entry)
from repro.sim.engine import EngineConfig, EngineResult, EventEngine

_PRIO_FAULT = 0
_PRIO_TICK = 1


@dataclass(frozen=True, slots=True)
class TraceOp:
    """One replayable operation: an object read, a tick, or a fault install."""

    kind: str
    at: float
    key: str = ""
    fault_index: int = -1


@dataclass(slots=True)
class SimTrace:
    """Per-region operation sequences reconstructed from one engine run."""

    seed: int
    start: float
    regions: dict[str, tuple[TraceOp, ...]]


def _check_supported(config: EngineConfig) -> None:
    if config.collaboration:
        raise ValueError("collaboration rounds are not wire-replayable: the "
                         "serving tier shares one jitter stream across regions")
    resilience = config.client.resilience
    if resilience is not None and resilience.active:
        raise ValueError("resilient reads are not wire-replayable: the serving "
                         "tier shares one jitter stream across regions")


def _region_periods(config: EngineConfig) -> dict[str, float | None]:
    """Each region's timer period, read off a throwaway deployment.

    Periods live on the constructed strategies (e.g. the Agar node config's
    ``reconfiguration_period_s``), so the builder deploys once to read them.
    The deployment is discarded; it consumes no shared-stream draws that
    matter because the caller reseeds before any run it compares against.
    """
    deployment = EventEngine(config).build_deployment()
    return {spec.region: strategy.reconfiguration_period_s
            for spec, strategy in zip(config.regions, deployment.strategies)}


def trace_and_ledgers(config: EngineConfig, result: EngineResult,
                      *, seed: int | None = None, start: float = 0.0,
                      ) -> tuple[SimTrace, dict[str, list[LedgerEntry]]]:
    """The replayable trace and expected ledgers of one kept engine run.

    ``result`` must come from a fresh run with ``keep_results=True``.
    ``seed`` records the per-run seed used (defaults to the
    workload's), so the replay side can deploy an identical cluster.
    """
    _check_supported(config)
    effective_seed = config.workload.seed if seed is None else seed

    kept = {name: region.results for name, region in result.regions.items()}
    for name, results in kept.items():
        if results is None or (not results and result.regions[name].stats.count):
            raise ValueError(f"region {name!r} has no kept results; run the "
                             "engine with keep_results=True")

    faults = config.faults
    has_faults = faults is not None and not faults.is_empty
    fault_fires = ([(start + offset, _PRIO_FAULT, index)
                    for index, (offset, _state) in enumerate(faults.transitions)]
                   if has_faults else [])
    periods = (_region_periods(config) if config.uses_timer_reconfiguration
               else {})

    trace_regions: dict[str, tuple[TraceOp, ...]] = {}
    ledgers: dict[str, list[LedgerEntry]] = {}
    for name, results in kept.items():
        # The region's timers, one-shot fault transitions before periodic
        # ticks, up to its own last arrival.
        horizon = max((r.started_at_s for r in results), default=start)
        timers = [fire for fire in fault_fires if fire[0] <= horizon]
        period = periods.get(name)
        if period is not None:
            fire = start + period
            while fire <= horizon:
                timers.append((fire, _PRIO_TICK, -1))
                fire += period
        timers.sort()
        ops: list[TraceOp] = []
        ledger: list[LedgerEntry] = []
        if has_faults:
            # The engine installs the initial fault state at deployment time;
            # the cluster mirrors it at build, so it is a ledger entry but
            # not a replayed op.
            ledger.append(fault_entry(start, -1))
        position = 0
        # ``None`` closes the walk: every timer left fires after the reads.
        for read in (*results, None):
            arrival = math.inf if read is None else read.started_at_s
            while position < len(timers) and timers[position][0] <= arrival:
                fire, priority, index = timers[position]
                position += 1
                if priority == _PRIO_FAULT:
                    ops.append(TraceOp(KIND_FAULT, fire, fault_index=index))
                    ledger.append(fault_entry(fire, index))
                else:
                    ops.append(TraceOp(KIND_TICK, fire))
                    ledger.append(tick_entry(fire))
            if read is not None:
                ops.append(TraceOp(KIND_READ, arrival, key=read.key))
                ledger.append(read_entry(read))
        trace_regions[name] = tuple(ops)
        ledgers[name] = ledger

    trace = SimTrace(seed=effective_seed, start=start, regions=trace_regions)
    return trace, ledgers


def run_and_trace(config: EngineConfig, *, seed: int | None = None,
                  ) -> tuple[EngineResult, SimTrace, dict[str, list[LedgerEntry]]]:
    """Convenience: one fresh kept run plus its trace and expected ledgers."""
    _check_supported(config)
    engine = EventEngine(config, keep_results=True)
    result = engine.run(seed)
    trace, ledgers = trace_and_ledgers(config, result, seed=seed)
    return result, trace, ledgers
