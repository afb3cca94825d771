"""Build a replayable trace and expected ledgers from a kept engine run.

The equivalence oracle works in three steps: run the seeded
:class:`~repro.sim.engine.EventEngine` with ``keep_results=True``, turn the
kept per-region results into (a) a **trace** — the exact per-region sequence
of reads, reconfiguration ticks and fault transitions with their simulated
timestamps — and (b) the **expected ledgers** those operations must produce;
then replay the trace against a live :class:`~repro.serve.gateway.ServeCluster`
and compare its ledgers entry-for-entry.

Timer reconstruction mirrors the engine's scheduler contract exactly
(see ``_LaneRun.run_until`` and its ``_fire_timers`` phase):

- a timer at time ``T`` fires before the first arrival with
  ``started_at_s >= T`` and after every arrival with ``started_at_s < T``
  (timers pop while ``timer_time <= block_start``);
- a timer fires at all iff ``T <=`` the **global** maximum arrival time
  across every region (the last block the run drains);
- at equal fire times, fault transitions precede region ticks (faults are
  pushed first, so they carry lower sequence numbers);
- periodic region ticks fire at ``start + k * period`` for ``k = 1, 2, …``
  in timer mode only; legacy piggyback reconfiguration stays inside the
  strategy's own read path and needs no trace ops.

Scope: collaboration rounds (§VI) and resilient reads (retry/hedge) depend
on shared jitter draws taken in *global* event order, which a per-region
wire replay cannot reproduce — configs using either are rejected.  Such
deployments are still servable: ``ServeCluster.from_config`` deploys them and
their ledgers record every decision (including crash/recovery entries from
the chaos tier); only this oracle's equivalence claim does not extend to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.ledger import (LedgerEntry, fault_entry, read_entry,
                                tick_entry)
from repro.sim.engine import EngineConfig, EngineResult, EventEngine

KIND_READ = "read"
KIND_TICK = "tick"
KIND_FAULT = "fault"

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

    @property
    def total_ops(self) -> int:
        return sum(len(ops) for ops in self.regions.values())


def _check_supported(config: EngineConfig) -> None:
    if config.collaboration:
        raise ValueError("collaboration traces cannot be replayed per region")
    resilience = config.client.resilience
    if resilience is not None and resilience.active:
        raise ValueError("resilient reads draw jitter in global event order; "
                         "their decisions are not wire-replayable")


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

    all_starts = [r.started_at_s for results in kept.values() for r in results]
    horizon = max(all_starts) if all_starts else start

    # Global timer set: one-shot fault transitions, then periodic ticks.
    fault_ops: list[tuple[float, int, int]] = []
    faults = config.faults
    has_faults = faults is not None and not faults.is_empty
    if has_faults:
        for index, (offset, _state) in enumerate(faults.transitions):
            fire = start + offset
            if fire <= horizon:
                fault_ops.append((fire, _PRIO_FAULT, index))

    tick_ops: dict[str, list[tuple[float, int, int]]] = {}
    if config.uses_timer_reconfiguration:
        periods = _region_periods(config)
        for name in kept:
            period = periods.get(name)
            ops: list[tuple[float, int, int]] = []
            if period is not None:
                fire = start + period
                while fire <= horizon:
                    ops.append((fire, _PRIO_TICK, -1))
                    fire += period
            tick_ops[name] = ops

    trace_regions: dict[str, tuple[TraceOp, ...]] = {}
    ledgers: dict[str, list[LedgerEntry]] = {}
    for name, results in kept.items():
        timers = sorted(fault_ops + tick_ops.get(name, []))
        ops: list[TraceOp] = []
        ledger: list[LedgerEntry] = []
        if has_faults:
            # The engine installs the initial fault state at deployment time;
            # the cluster mirrors it at build, so it is a ledger entry but
            # not a replayed op.
            ledger.append(fault_entry(start, -1))
        position = 0
        for read in results:
            arrival = read.started_at_s
            while position < len(timers) and timers[position][0] <= arrival:
                fire, priority, index = timers[position]
                position += 1
                if priority == _PRIO_FAULT:
                    ops.append(TraceOp(KIND_FAULT, fire, fault_index=index))
                    ledger.append(fault_entry(fire, index))
                else:
                    ops.append(TraceOp(KIND_TICK, fire))
                    ledger.append(tick_entry(fire))
            ops.append(TraceOp(KIND_READ, arrival, key=read.key))
            ledger.append(read_entry(read))
        for fire, priority, index in timers[position:]:
            if priority == _PRIO_FAULT:
                ops.append(TraceOp(KIND_FAULT, fire, fault_index=index))
                ledger.append(fault_entry(fire, index))
            else:
                ops.append(TraceOp(KIND_TICK, fire))
                ledger.append(tick_entry(fire))
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
