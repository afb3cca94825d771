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

from dataclasses import dataclass, replace

from repro.analysis.report import Table, percent_difference
from repro.client.resilience import ResilienceConfig
from repro.client.stats import LatencyStats, LatencyWindow, windowed_latency_series
from repro.client.strategies import ClientConfig
from repro.experiments.common import EngineOptions, ExperimentSettings
from repro.sim.engine import EngineResult, RegionSpec
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
    for leg in legs:
        if len(leg) not in (2, 3):
            raise ValueError(f"malformed leg {leg!r} (expected "
                             "(strategy, collaboration[, hedged]))")
    return tuple((leg[0], bool(leg[1]), len(leg) == 3 and bool(leg[2])) for leg in legs)


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
    sharded: bool
    #: ``FaultSchedule.describe()`` of each leg's longest outage, keyed by
    #: the leg label (the injected windows differ per leg because they are
    #: placed relative to the leg's own clean duration).
    schedules: dict[str, str] | None = None


def _reaction_lag_s(deployment) -> float | None:
    """Mean Agar fault-reaction lag across the deployment's nodes, if any.

    Sharded runs mutate deepcopies/forked copies of the deployment, so their
    lags are not observable here; the column shows "-" in sharded mode.
    """
    nodes = [getattr(strategy, "node", None) for strategy in deployment.strategies]
    lags = [lag for node in nodes if node is not None for lag in node.fault_reaction_lags_s]
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
    return [read for result in results
            for region_result in result.regions.values()
            for read in region_result.results]


def _phase_p99(windows: list[LatencyWindow], start_s: float,
               end_s: float | None) -> float:
    """Max windowed p99 over [start_s, end_s) — the phase's worst window."""
    return max((window.p99_ms for window in windows
                if window.reads > 0 and window.start_s >= start_s
                and (end_s is None or window.start_s < end_s)), default=0.0)


def _recovery_windows(windows: list[LatencyWindow], outage_end_s: float,
                      baseline_p99_ms: float) -> int | None:
    """Windows after the repair until p99 re-enters the recovery band."""
    after = [window for window in windows if window.start_s >= outage_end_s]
    return next((position for position, window in enumerate(after)
                 if window.reads == 0
                 or window.p99_ms <= baseline_p99_ms * RECOVERY_TOLERANCE), None)


def check_sweep(regions: tuple[str, ...], fault_region: str,
                fractions: tuple[float, ...]) -> None:
    """Raise ``ValueError`` for a sweep that cannot run: a fault region among
    the client regions, or no outage fraction, or one outside (0, 1)."""
    if fault_region in regions:
        raise ValueError(
            f"fault region {fault_region!r} is a client region; take down a "
            "backend-only region so clients keep running")
    if not fractions:
        raise ValueError("outage_fractions must not be empty")
    if any(not fraction > 0.0 for fraction in fractions):
        raise ValueError("--outage-fraction values must be positive")
    if any(fraction >= 1.0 for fraction in fractions):
        raise ValueError("--outage-fraction values must be below 1")


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
    fractions = (DEFAULT_OUTAGE_FRACTIONS if outage_fractions is None
                 else tuple(sorted(outage_fractions)))
    check_sweep(regions, fault_region, fractions)
    legs = _normalize_legs(DEFAULT_LEGS if legs is None else legs)

    rows: list[FailurePointRow] = []
    series: dict[str, list[LatencyWindow]] = {}
    schedules: dict[str, str] = {}
    for strategy, collaboration, hedged in legs:
        resilience = DEFAULT_HEDGED_RESILIENCE if hedged else None
        clean_config = settings.deployment(
            [RegionSpec(region, clients=clients, strategy=strategy) for region in regions],
            arrival=arrival,
            client=ClientConfig(resilience=resilience),
            collaboration=collaboration,
            collaboration_period_s=30.0 if collaboration else None,
            timer_reconfiguration=True,
        )
        clean_runs = run_many(clean_config, runs=settings.runs, sharded=sharded,
                              keep_results=True).results
        duration = _duration_s(clean_runs)
        leg_window = duration / WINDOWS_PER_RUN
        clean_stats = LatencyStats.merge_all(run.overall_stats() for run in clean_runs)
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
            # The leg's clean deployment with the outage scheduled.
            faulted = run_many(replace(clean_config, faults=faults), runs=settings.runs,
                               sharded=sharded, keep_results=True)
            runs = faulted.results
            stats = LatencyStats.merge_all(run.overall_stats() for run in runs)
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
                              fault_region=fault_region,
                              sharded=sharded, schedules=schedules)


def _or_dash(value: int | None) -> int | str:
    return "-" if value is None else value


def render_fig_failures(result: FailureSweepResult) -> str:
    """Render the sweep as a figure-style report (table + recovery curves)."""
    mode = "sharded engine" if result.sharded else "in-process engine"
    table = Table.from_rows(
        f"Outage sweep — {result.fault_region} down, degraded reads and recovery ({mode})",
        (("leg", "leg"), ("hedging", lambda row: "on" if row.hedged else "off"),
         ("outage (frac)", "outage_fraction"),
         ("outage (s)", lambda row: row.outage_end_s - row.outage_start_s),
         ("reads", "reads"), ("degraded", "degraded_reads"),
         ("unavailable", "unavailable_reads"), ("retries", "retries_total"),
         ("hedges (won)", lambda row: f"{row.hedged_reads} ({row.hedge_wins})"),
         ("mean (ms)", "mean_ms"), ("clean mean (ms)", "clean_mean_ms"),
         ("slowdown (%)", "slowdown_pct"), ("p99 before", "p99_before_ms"),
         ("p99 during", "p99_during_ms"), ("p99 after", "p99_after_ms"),
         ("recovery (windows)", lambda row: _or_dash(row.recovery_windows)),
         ("recovery lag (windows)", lambda row: _or_dash(row.recovery_lag_windows)),
         ("reaction lag (s)", lambda row: "-" if row.reaction_lag_s is None
          else f"{row.reaction_lag_s:.2f}")), result.rows)
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
