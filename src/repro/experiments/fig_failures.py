"""Fault-injection sweep: how strategies ride out a region outage and recover.

The paper evaluates Agar on healthy AWS deployments; erasure coding's point,
though, is exactly that reads survive ``n - k`` lost chunks.  This experiment
injects a :class:`~repro.sim.faults.RegionOutage` into the discrete-event
engine and maps the outage response along three axes:

* **outage duration** — swept as fractions of the (measured) clean-run
  duration, so the paper/quick/smoke scales all see comparable windows;
* **read strategy** — Agar versus a static policy;
* **collaboration** — §VI collaborating caches on or off (collaboration
  softens the blow when the caches cover more distinct chunks).

Each sweep point reports the degraded/unavailable read counts, the mean
latency against the clean baseline, and a recovery profile computed from the
windowed latency series of :func:`repro.client.stats.windowed_latency_series`:
p99 before, during and after the outage window plus the number of windows the
deployment needed after the repair until p99 fell back to the pre-outage
level.  The acceptance invariants — degraded reads occur **only** during the
outage, no request fails while at least ``k`` chunks stay reachable, and the
windowed p99 spikes then recovers — are asserted by the test suite for both
the in-process and the sharded engine.  See ``docs/failures.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table, percent_difference
from repro.client.resilience import ResilienceConfig
from repro.client.stats import LatencyWindow, windowed_latency_series
from repro.client.strategies import ClientConfig
from repro.experiments.common import (
    EngineOptions,
    ExperimentSettings,
    agar_config_for_capacity,
)
from repro.sim.engine import EngineConfig, EngineResult, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.sim.simulation import run_many

#: Outage durations swept by default, as fractions of the clean-run duration.
DEFAULT_OUTAGE_FRACTIONS: tuple[float, ...] = (0.15, 0.3)

#: Resilience tier of the hedged legs.  The timeout factor and hedge quantile
#: are deliberately aggressive relative to the topology's jitter (σ = 0.06 on
#: the log-normal links) so retries and hedges actually fire at experiment
#: scale; emergency reconfiguration makes the Agar knapsack re-solve against
#: the survivor topology the moment the outage lands (and again on recovery).
DEFAULT_HEDGED_RESILIENCE = ResilienceConfig(
    retry_budget=1, timeout_factor=1.1, backoff_base_ms=4.0,
    hedge=True, hedge_quantile=0.7, hedge_min_samples=8,
    emergency_reconfiguration=True,
)

#: Region taken down by default.  It must sit *inside* the clients' nearest-k
#: backend plan for the outage to force degraded re-planning: from Frankfurt
#: and Dublin the RS(9, 3) plan drops the furthest three chunks (Sydney's two
#: and one of Tokyo's), so Sao Paulo is the nearest planned region whose loss
#: is actually felt.
DEFAULT_FAULT_REGION = "sao_paulo"

#: Client regions of the swept deployment (a nearby pair, so the
#: collaborative legs mirror the fig_collab setup).
DEFAULT_REGIONS: tuple[str, ...] = ("frankfurt", "dublin")

#: (strategy, collaboration[, hedged]) legs swept by default.  The hedged
#: Agar leg pairs with the plain one so the report shows hedging on/off
#: side by side (p99 during the fault, recovery lag, reaction lag).
DEFAULT_LEGS: tuple[tuple, ...] = (
    ("agar", False),
    ("agar", False, True),
    ("agar", True),
    ("lfu-5", False),
)


def _normalize_legs(legs) -> tuple[tuple[str, bool, bool], ...]:
    """Accept (strategy, collab) or (strategy, collab, hedged) leg tuples."""
    normalized = []
    for leg in legs:
        if len(leg) == 2:
            strategy, collaboration = leg
            hedged = False
        elif len(leg) == 3:
            strategy, collaboration, hedged = leg
        else:
            raise ValueError(f"malformed leg {leg!r} (expected "
                             "(strategy, collaboration[, hedged]))")
        normalized.append((strategy, bool(collaboration), bool(hedged)))
    return tuple(normalized)


def _leg_label(strategy: str, collaboration: bool, hedged: bool) -> str:
    label = f"{strategy}+collab" if collaboration else strategy
    return f"{label}+hedged" if hedged else label

#: The outage starts this far into the run (fraction of the clean duration),
#: leaving a pre-outage span for the recovery baseline.
OUTAGE_START_FRACTION = 0.25

#: Windows per clean-run duration in the recovery time series.
WINDOWS_PER_RUN = 24

#: A post-outage window counts as recovered once its p99 is back within this
#: factor of the pre-outage p99.
RECOVERY_TOLERANCE = 1.2


@dataclass(frozen=True)
class FailurePointRow:
    """One (strategy, collaboration, outage duration) sweep point."""

    strategy: str
    collaboration: bool
    outage_fraction: float
    outage_start_s: float
    outage_end_s: float
    reads: int
    degraded_reads: int
    unavailable_reads: int
    mean_ms: float
    clean_mean_ms: float
    p99_before_ms: float
    p99_during_ms: float
    p99_after_ms: float
    #: Windows after the repair until p99 returned to the pre-outage level;
    #: None when it never did within the observed series.
    recovery_windows: int | None
    #: Whether the leg ran with the hedged/retried resilience tier on.
    hedged: bool = False
    #: Resilience counters of the faulted run (0 when hedging is off).
    retries_total: int = 0
    hedged_reads: int = 0
    hedge_wins: int = 0
    #: p99 of the leg's clean baseline run (the recovery-lag reference).
    clean_p99_ms: float = 0.0
    #: Windows after the repair until p99 fell back within
    #: :data:`RECOVERY_TOLERANCE` of the *clean-baseline* p99 — the
    #: recovery-lag metric; None when it never did within the series.
    recovery_lag_windows: int | None = None
    #: Mean fault-reaction lag of the Agar nodes (seconds between a fault
    #: transition and the next knapsack re-solve); ~0 with emergency
    #: reconfiguration on, up to a reconfiguration period with it off, and
    #: None for legs without resolvable Agar reconfiguration lags.
    reaction_lag_s: float | None = None

    @property
    def leg(self) -> str:
        """Display label of the (strategy, collaboration, hedged) leg."""
        return _leg_label(self.strategy, self.collaboration, self.hedged)

    @property
    def slowdown_pct(self) -> float:
        """Mean-latency penalty of the faulted run vs the clean baseline."""
        return percent_difference(self.mean_ms, self.clean_mean_ms)


@dataclass(frozen=True)
class FailureSweepResult:
    """Everything one `fig_failures` invocation produced."""

    rows: list[FailurePointRow]
    #: Windowed latency series of each leg's *longest* outage, keyed by the
    #: leg label — the recovery curve worth plotting.
    series: dict[str, list[LatencyWindow]]
    fault_region: str
    window_s: float
    sharded: bool
    #: ``FaultSchedule.describe()`` of each leg's longest outage, keyed by
    #: the leg label (the injected windows differ per leg because they are
    #: placed relative to the leg's own clean duration).
    schedules: dict[str, str] | None = None


def _build_config(settings: ExperimentSettings, regions: tuple[str, ...],
                  strategy: str, clients: int, arrival, collaboration: bool,
                  faults: FaultSchedule | None,
                  resilience: ResilienceConfig | None = None) -> EngineConfig:
    capacity = settings.cache_capacity_bytes
    client = (ClientConfig(resilience=resilience) if resilience is not None
              else ClientConfig())
    return EngineConfig(
        workload=settings.workload(skew=1.1),
        regions=tuple(
            RegionSpec(region=region, clients=clients, strategy=strategy)
            for region in regions
        ),
        cache_capacity_bytes=capacity,
        agar=agar_config_for_capacity(capacity),
        topology_seed=settings.seed,
        arrival=arrival,
        client=client,
        collaboration=collaboration,
        collaboration_period_s=30.0 if collaboration else None,
        timer_reconfiguration=True,
        faults=faults,
    )


def _reaction_lag_s(deployment) -> float | None:
    """Mean Agar fault-reaction lag across the deployment's nodes, if any.

    Sharded runs mutate deepcopies/forked copies of the deployment, so their
    lags are not observable here; the column shows "-" in sharded mode.
    """
    lags: list[float] = []
    for strategy in deployment.strategies:
        node = getattr(strategy, "node", None)
        if node is not None:
            lags.extend(node.fault_reaction_lags_s)
    return sum(lags) / len(lags) if lags else None


def _duration_s(results: list[EngineResult]) -> float:
    """Longest per-region duration over the runs (the shared time axis)."""
    return max(
        region_result.duration_s
        for result in results
        for region_result in result.regions.values()
    )


def _collect_reads(results: list[EngineResult]):
    """Every retained ReadResult across runs and regions (shared time axis:
    each run restarts its clock at zero, so windows pool the repetitions)."""
    reads = []
    for result in results:
        for region_result in result.regions.values():
            reads.extend(region_result.results)
    return reads


def _merged_stats(results: list[EngineResult]):
    merged = results[0].overall_stats()
    for result in results[1:]:
        merged = merged.merge(result.overall_stats())
    return merged


def _phase_p99(windows: list[LatencyWindow], start_s: float,
               end_s: float | None) -> float:
    """Max windowed p99 over [start_s, end_s) — the phase's worst window."""
    values = [
        window.p99_ms
        for window in windows
        if window.reads > 0 and window.start_s >= start_s
        and (end_s is None or window.start_s < end_s)
    ]
    return max(values) if values else 0.0


def _recovery_windows(windows: list[LatencyWindow], outage_end_s: float,
                      baseline_p99_ms: float) -> int | None:
    """Windows after the repair until p99 re-enters the recovery band."""
    position = 0
    for window in windows:
        if window.start_s < outage_end_s:
            continue
        if window.reads == 0 or \
                window.p99_ms <= baseline_p99_ms * RECOVERY_TOLERANCE:
            return position
        position += 1
    return None


def run_fig_failures(settings: ExperimentSettings | None = None,
                     options: EngineOptions | None = None,
                     outage_fractions: tuple[float, ...] | None = None,
                     fault_region: str = DEFAULT_FAULT_REGION,
                     legs: tuple[tuple[str, bool], ...] | None = None,
                     sharded: bool = False) -> FailureSweepResult:
    """Run the outage sweep.

    For every (strategy, collaboration) leg a clean baseline run measures the
    leg's duration and pre-fault latency profile; the outage window is then
    placed at ``OUTAGE_START_FRACTION`` of that duration and swept over
    ``outage_fractions`` of it.  ``options`` contributes client count,
    arrival process and (via ``--regions``) the deployment's regions.
    """
    settings = settings or ExperimentSettings.quick()
    options = options or EngineOptions()
    clients = options.clients_per_region
    arrival = options.arrival_spec()
    regions = options.regions or DEFAULT_REGIONS
    if fault_region in regions:
        raise ValueError(
            f"fault region {fault_region!r} is a client region; take down a "
            "backend-only region so clients keep running")
    fractions = (DEFAULT_OUTAGE_FRACTIONS if outage_fractions is None
                 else tuple(sorted(outage_fractions)))
    if not fractions:
        raise ValueError("outage_fractions must not be empty")
    if any(not 0.0 < fraction < 1.0 for fraction in fractions):
        raise ValueError("outage fractions must lie strictly between 0 and 1")
    legs = _normalize_legs(DEFAULT_LEGS if legs is None else legs)

    rows: list[FailurePointRow] = []
    series: dict[str, list[LatencyWindow]] = {}
    schedules: dict[str, str] = {}
    window_s = 0.0
    for strategy, collaboration, hedged in legs:
        resilience = DEFAULT_HEDGED_RESILIENCE if hedged else None
        clean_config = _build_config(settings, regions, strategy, clients,
                                     arrival, collaboration, faults=None,
                                     resilience=resilience)
        clean_runs = run_many(clean_config, runs=settings.runs, sharded=sharded,
                              keep_results=True).results
        duration = _duration_s(clean_runs)
        window_s = max(window_s, duration / WINDOWS_PER_RUN)
        leg_window = duration / WINDOWS_PER_RUN
        clean_stats = _merged_stats(clean_runs)
        clean_windows = windowed_latency_series(
            _collect_reads(clean_runs), leg_window, end_s=duration)
        outage_start = duration * OUTAGE_START_FRACTION

        leg_label = _leg_label(strategy, collaboration, hedged)
        for fraction in fractions:
            outage_end = outage_start + duration * fraction
            faults = FaultSchedule([
                RegionOutage(fault_region, start_s=outage_start,
                             end_s=outage_end),
            ])
            config = _build_config(settings, regions, strategy, clients,
                                   arrival, collaboration, faults=faults,
                                   resilience=resilience)
            faulted = run_many(config, runs=settings.runs, sharded=sharded,
                               keep_results=True)
            runs = faulted.results
            stats = _merged_stats(runs)
            reads = _collect_reads(runs)
            faulted_duration = max(duration, _duration_s(runs))
            windows = windowed_latency_series(reads, leg_window,
                                              end_s=faulted_duration)
            before_p99 = _phase_p99(windows, 0.0, outage_start)
            if before_p99 == 0.0:
                before_p99 = _phase_p99(clean_windows, 0.0, outage_start)
            clean_p99 = clean_stats.p99_latency_ms
            rows.append(FailurePointRow(
                strategy=strategy,
                collaboration=collaboration,
                outage_fraction=fraction,
                outage_start_s=outage_start,
                outage_end_s=outage_end,
                reads=stats.count,
                degraded_reads=stats.degraded_reads,
                unavailable_reads=stats.unavailable_reads,
                mean_ms=stats.mean_latency_ms,
                clean_mean_ms=clean_stats.mean_latency_ms,
                p99_before_ms=before_p99,
                p99_during_ms=_phase_p99(windows, outage_start, outage_end),
                p99_after_ms=_phase_p99(windows, outage_end, None),
                recovery_windows=_recovery_windows(windows, outage_end,
                                                   before_p99),
                hedged=hedged,
                retries_total=stats.retries_total,
                hedged_reads=stats.hedged_reads,
                hedge_wins=stats.hedge_wins,
                clean_p99_ms=clean_p99,
                recovery_lag_windows=_recovery_windows(windows, outage_end,
                                                       clean_p99),
                reaction_lag_s=(None if sharded
                                else _reaction_lag_s(faulted.deployment)),
            ))
            if fraction == fractions[-1]:
                series[leg_label] = windows
                schedules[leg_label] = faults.describe()
    return FailureSweepResult(rows=rows, series=series,
                              fault_region=fault_region, window_s=window_s,
                              sharded=sharded, schedules=schedules)


def render_fig_failures(result: FailureSweepResult) -> str:
    """Render the sweep as a figure-style report (table + recovery curves)."""
    mode = "sharded engine" if result.sharded else "in-process engine"
    table = Table(
        title=(f"Outage sweep — {result.fault_region} down, degraded reads "
               f"and recovery ({mode})"),
        columns=("leg", "hedging", "outage (frac)", "outage (s)", "reads",
                 "degraded", "unavailable", "retries", "hedges (won)",
                 "mean (ms)", "clean mean (ms)", "slowdown (%)",
                 "p99 before", "p99 during", "p99 after",
                 "recovery (windows)", "recovery lag (windows)",
                 "reaction lag (s)"),
    )
    for row in result.rows:
        table.add_row(
            row.leg,
            "on" if row.hedged else "off",
            row.outage_fraction,
            row.outage_end_s - row.outage_start_s,
            row.reads,
            row.degraded_reads,
            row.unavailable_reads,
            row.retries_total,
            f"{row.hedged_reads} ({row.hedge_wins})",
            row.mean_ms,
            row.clean_mean_ms,
            row.slowdown_pct,
            row.p99_before_ms,
            row.p99_during_ms,
            row.p99_after_ms,
            "-" if row.recovery_windows is None else row.recovery_windows,
            "-" if row.recovery_lag_windows is None
            else row.recovery_lag_windows,
            "-" if row.reaction_lag_s is None else f"{row.reaction_lag_s:.2f}",
        )
    lines = [table.render(), ""]
    if result.schedules:
        lines.append("Injected fault windows (longest sweep point per leg):")
        for leg, description in result.schedules.items():
            lines.append(f"  {leg}:")
            lines.extend(f"    {line}" for line in description.splitlines())
        lines.append("")
    lines.append("Windowed p99 of each leg's longest outage "
                 "(* marks the outage window):")
    for leg, windows in result.series.items():
        outage = next(row for row in reversed(result.rows)
                      if row.leg == leg)
        lines.append(f"  {leg}:")
        for window in windows:
            in_outage = (window.start_s < outage.outage_end_s
                         and window.end_s > outage.outage_start_s)
            marker = "*" if in_outage else " "
            lines.append(
                f"   {marker} [{window.start_s:8.1f}s, {window.end_s:8.1f}s) "
                f"reads={window.reads:4d} p99={window.p99_ms:9.1f} ms "
                f"degraded={window.degraded:3d} unavailable={window.unavailable:3d}"
            )
    return "\n".join(lines)
