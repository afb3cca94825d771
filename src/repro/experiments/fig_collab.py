"""The §VI collaboration sweep: when do collaborating caches beat independent ones?

The paper's §VI sketches collaborating caches — nearby Agar nodes broadcast
their contents so each node discounts the value of chunks a neighbour already
pins — and argues it pays off when reading from a neighbour's cache is cheap.
This experiment maps *when*: it sweeps the assumed neighbour-read latency
(``neighbor_read_ms``), the region pairing (nearby vs far apart) and the
collaboration period, and for every point compares a collaborative deployment
against the identical deployment with independent caches:

* per-region (and deployment-wide) mean latency and hit ratio, collaborative
  vs independent, with the collaboration advantage in percent;
* the **crossover point** per pairing/period: the ``neighbor_read_ms`` beyond
  which collaboration stops winning (linearly interpolated between sweep
  points);
* the **cache-content overlap** between the paired regions
  (:meth:`~repro.extensions.collaboration.CollaborationCoordinator.overlap_report`):
  how many identical chunks both caches pin, collaborative vs independent —
  the mechanism §VI exploits is precisely the reduction of this number.

Runs execute on the multi-region discrete-event engine; ``sharded=True``
routes them through :meth:`~repro.sim.engine.EventEngine.run_sharded`'s
process-parallel collaborative path (the message-passing §VI round protocol)
instead of the in-process scheduler.  See ``docs/collaboration.md`` for how
to read the output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table, percent_difference
from repro.experiments.common import EngineOptions, ExperimentSettings
from repro.extensions.collaboration import announcement_of, overlap_between
from repro.sim.engine import EngineResult, RegionSpec
from repro.sim.simulation import DEPLOYMENT_LABEL, RegionAggregate, run_many

#: Neighbour-read latencies swept by default (ms).  The span deliberately
#: brackets the coordinator's 120 ms default: well below it a neighbour cache
#: is almost as good as the local one, far above it the discount barely
#: matters.
DEFAULT_NEIGHBOR_READ_MS: tuple[float, ...] = (10.0, 50.0, 120.0, 250.0, 500.0)

#: Region pairings swept by default: a nearby (same-continent) pair and a
#: far pair, the contrast §VI's argument rests on.
DEFAULT_PAIRINGS: tuple[tuple[str, ...], ...] = (
    ("frankfurt", "dublin"),
    ("frankfurt", "sydney"),
)

#: Collaboration periods swept by default (s); 30 s is the paper's
#: reconfiguration period.
DEFAULT_PERIODS: tuple[float, ...] = (30.0,)


@dataclass(frozen=True)
class CollabPointRow:
    """One region's collaborative-vs-independent comparison at one sweep point."""

    pairing: str
    period_s: float
    neighbor_read_ms: float
    region: str
    collab_mean_ms: float
    independent_mean_ms: float
    collab_hit_ratio: float
    independent_hit_ratio: float
    #: Chunks the collaborative deployment read from neighbouring caches at
    #: this point, averaged per run (the independent baseline has no
    #: neighbour catalogs, so its count is structurally zero).
    collab_neighbor_chunks: float = 0.0

    @property
    def advantage_pct(self) -> float:
        """How much lower the collaborative latency is (positive = collab wins)."""
        return percent_difference(self.independent_mean_ms, self.collab_mean_ms)


@dataclass(frozen=True)
class OverlapRow:
    """Cache-content overlap of one region pair at one sweep point."""

    pairing: str
    pair: str
    period_s: float
    neighbor_read_ms: float
    collab_overlap_chunks: int
    independent_overlap_chunks: int


@dataclass(frozen=True)
class CrossoverRow:
    """Where collaboration stops winning along the neighbor_read_ms axis."""

    pairing: str
    period_s: float
    #: Interpolated neighbor_read_ms at which the advantage hits zero; None
    #: if collaboration wins (or loses) across the whole sweep.
    crossover_ms: float | None
    always_wins: bool
    never_wins: bool
    #: True when collaboration wins on the cheap side of the crossover (the
    #: physically expected direction); False for the inverted case.
    wins_below: bool = True
    #: False when the advantage changes sign more than once across the sweep
    #: (the reported crossover is then only the first crossing).
    monotonic: bool = True

    def describe(self) -> str:
        """One summary line for the report."""
        prefix = f"{self.pairing} (period {self.period_s:g} s): "
        if self.always_wins:
            return prefix + "collaboration wins across the whole sweep"
        if self.never_wins:
            return prefix + "independent caches win across the whole sweep"
        side = "below" if self.wins_below else "above"
        line = (prefix + f"collaboration wins {side} ~{self.crossover_ms:.0f} ms "
                "neighbour reads")
        if not self.monotonic:
            line += " (advantage is not monotonic across the sweep)"
        return line


@dataclass(frozen=True)
class CollabSweepResult:
    """Everything one `fig_collab` invocation produced."""

    rows: list[CollabPointRow]
    overlaps: list[OverlapRow]
    crossovers: list[CrossoverRow]
    sharded: bool


@dataclass
class _RunAggregate:
    """The repeated runs of one deployment: averages and final overlap."""

    #: Per region, plus the deployment-wide row under DEPLOYMENT_LABEL.
    aggregates: dict[str, RegionAggregate]
    overlap: dict[tuple[str, str], int]


def _snapshot_overlap(result: EngineResult) -> dict[tuple[str, str], int]:
    """Pairwise cache-content overlap from the run's final cache snapshots."""
    contents: dict[str, set[tuple[str, int]]] = {}
    for region, region_result in result.regions.items():
        snapshot = region_result.cache_snapshot
        chunks: set[tuple[str, int]] = set()
        if snapshot is not None:
            for key, indices in snapshot.chunks_per_key.items():
                chunks.update((key, index) for index in indices)
        contents[region] = chunks
    regions = list(result.regions)
    return {
        (first, second): len(contents[first] & contents[second])
        for position, first in enumerate(regions)
        for second in regions[position + 1:]
    }


def _deployment_overlap(deployment, result: EngineResult, sharded: bool
                        ) -> dict[tuple[str, str], int]:
    """Pinned-configuration overlap of a finished deployment.

    Collaborative deployments report through the coordinator
    (``overlap_report`` live, or the announcements a sharded run's workers
    last published).  Independent in-process deployments read the nodes'
    configurations directly; independent *sharded* runs leave the parent
    nodes cold, so there the final cache snapshots stand in (for Agar
    strategies the cache admits only pinned chunks, so the two views agree
    up to not-yet-populated chunks).
    """
    coordinator = deployment.coordinator
    if coordinator is not None:
        return coordinator.latest_overlap() if sharded else coordinator.overlap_report()
    if not sharded:
        announcements = [
            announcement_of(strategy.node) for strategy in deployment.strategies
        ]
        return overlap_between(announcements)
    return _snapshot_overlap(result)


def _run_point(settings: ExperimentSettings, regions: tuple[str, ...],
               clients_per_region: int, arrival, collaboration: bool,
               period_s: float, neighbor_read_ms: float,
               sharded: bool) -> _RunAggregate:
    """Run one deployment (collaborative or independent) and aggregate it."""
    config = settings.deployment(
        [RegionSpec(region, clients=clients_per_region) for region in regions],
        arrival=arrival,
        collaboration=collaboration,
        collaboration_period_s=period_s if collaboration else None,
        neighbor_read_ms=neighbor_read_ms,
        timer_reconfiguration=True,
    )
    runs = run_many(config, runs=settings.runs, sharded=sharded)
    return _RunAggregate(
        aggregates={**runs.regions, DEPLOYMENT_LABEL: runs.deployment_aggregate},
        overlap=_deployment_overlap(runs.deployment, runs.results[-1], sharded),
    )


def compute_crossover(pairing: str, period_s: float,
                      points: list[tuple[float, float]]) -> CrossoverRow:
    """Locate the collaboration-vs-independent crossover along the sweep.

    ``points`` are ``(neighbor_read_ms, advantage_pct)`` pairs in ascending
    ``neighbor_read_ms`` order; a positive advantage means collaboration has
    the lower latency.  The crossover is the first sign change, linearly
    interpolated between the bracketing sweep points.
    """
    if not points:
        raise ValueError("at least one sweep point is required")
    wins = [advantage > 0.0 for _, advantage in points]
    if all(wins):
        return CrossoverRow(pairing, period_s, None, always_wins=True, never_wins=False)
    if not any(wins):
        return CrossoverRow(pairing, period_s, None, always_wins=False, never_wins=True)
    crossover_ms = points[0][0]
    wins_below = wins[0]
    sign_changes = 0
    for (left_ms, left_adv), (right_ms, right_adv) in zip(points, points[1:]):
        if (left_adv > 0.0) == (right_adv > 0.0):
            continue
        sign_changes += 1
        if sign_changes == 1:
            span = left_adv - right_adv
            fraction = left_adv / span if span != 0.0 else 0.5
            crossover_ms = left_ms + (right_ms - left_ms) * fraction
    return CrossoverRow(pairing, period_s, crossover_ms,
                        always_wins=False, never_wins=False,
                        wins_below=wins_below, monotonic=sign_changes <= 1)


def check_pairing(pairing: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``pairing`` names at least two regions."""
    if len(pairing) < 2:
        raise ValueError("fig_collab needs at least two regions in --regions "
                         "(a pairing)")


def run_fig_collab(settings: ExperimentSettings | None = None,
                   options: EngineOptions | None = None,
                   neighbor_read_ms_values: tuple[float, ...] | None = None,
                   pairings: tuple[tuple[str, ...], ...] | None = None,
                   periods: tuple[float, ...] | None = None,
                   sharded: bool = False) -> CollabSweepResult:
    """Run the §VI collaboration sweep.

    For every (pairing, period) the independent baseline runs once — its
    results do not depend on ``neighbor_read_ms`` — and the collaborative
    deployment runs once per swept ``neighbor_read_ms``.  ``options``
    contributes client count, arrival process and (via ``--regions``) an
    override pairing.
    """
    settings = settings or ExperimentSettings.quick()
    options = options or EngineOptions()
    clients = options.clients_per_region
    arrival = options.arrival_spec()
    if pairings is None:
        pairings = ((options.regions,) if options.regions
                    else DEFAULT_PAIRINGS)
    sweep = (DEFAULT_NEIGHBOR_READ_MS if neighbor_read_ms_values is None
             else tuple(neighbor_read_ms_values))
    if not sweep:
        raise ValueError("neighbor_read_ms_values must not be empty")
    sweep = tuple(sorted(sweep))
    periods = DEFAULT_PERIODS if periods is None else tuple(periods)
    if not periods:
        raise ValueError("periods must not be empty")

    rows: list[CollabPointRow] = []
    overlaps: list[OverlapRow] = []
    crossovers: list[CrossoverRow] = []
    for pairing in pairings:
        check_pairing(pairing)
    for pairing in pairings:
        label = "+".join(pairing)
        # The independent baseline depends on neither neighbor_read_ms nor
        # the collaboration period: one run per pairing serves every point.
        independent = _run_point(
            settings, pairing, clients, arrival, collaboration=False,
            period_s=sweep[0], neighbor_read_ms=sweep[0], sharded=sharded,
        )
        for period_s in periods:
            aggregate_points: list[tuple[float, float]] = []
            for neighbor_read_ms in sweep:
                collab = _run_point(
                    settings, pairing, clients, arrival, collaboration=True,
                    period_s=period_s, neighbor_read_ms=neighbor_read_ms,
                    sharded=sharded,
                )
                for region in (*pairing, DEPLOYMENT_LABEL):
                    with_collab = collab.aggregates[region]
                    without = independent.aggregates[region]
                    rows.append(CollabPointRow(
                        pairing=label,
                        period_s=period_s,
                        neighbor_read_ms=neighbor_read_ms,
                        region=region,
                        collab_mean_ms=with_collab.mean_latency_ms,
                        independent_mean_ms=without.mean_latency_ms,
                        collab_hit_ratio=with_collab.hit_ratio,
                        independent_hit_ratio=without.hit_ratio,
                        collab_neighbor_chunks=with_collab.neighbor_chunks,
                    ))
                for position, first in enumerate(pairing):
                    for second in pairing[position + 1:]:
                        pair_key = (first, second)
                        overlaps.append(OverlapRow(
                            pairing=label,
                            pair=f"{first}+{second}",
                            period_s=period_s,
                            neighbor_read_ms=neighbor_read_ms,
                            collab_overlap_chunks=collab.overlap.get(pair_key, 0),
                            independent_overlap_chunks=independent.overlap.get(pair_key, 0),
                        ))
                # The deployment-wide row went in last.
                aggregate_points.append((neighbor_read_ms, rows[-1].advantage_pct))
            crossovers.append(compute_crossover(label, period_s, aggregate_points))
    return CollabSweepResult(rows=rows, overlaps=overlaps, crossovers=crossovers,
                             sharded=sharded)


def render_fig_collab(result: CollabSweepResult) -> str:
    """Render the sweep as the figure-style report (tables + crossover lines)."""
    mode = "sharded engine" if result.sharded else "in-process engine"
    sweep_table = Table.from_rows(
        f"Collaboration sweep — collaborative vs independent caches ({mode})",
        (("pairing", "pairing"), ("period (s)", "period_s"),
         ("neighbor read (ms)", "neighbor_read_ms"), ("region", "region"),
         ("collab mean (ms)", "collab_mean_ms"),
         ("indep mean (ms)", "independent_mean_ms"),
         ("advantage (%)", "advantage_pct"),
         ("collab hit (%)", lambda row: row.collab_hit_ratio * 100.0),
         ("indep hit (%)", lambda row: row.independent_hit_ratio * 100.0),
         ("collab nbr chunks", "collab_neighbor_chunks")), result.rows)
    overlap_table = Table.from_rows(
        "Cache-content overlap between the paired regions (identical pinned chunks)",
        (("pairing", "pairing"), ("pair", "pair"), ("period (s)", "period_s"),
         ("neighbor read (ms)", "neighbor_read_ms"),
         ("collab overlap", "collab_overlap_chunks"),
         ("indep overlap", "independent_overlap_chunks")), result.overlaps)

    lines = [sweep_table.render(), ""]
    lines.append("Crossover (collaboration vs independent, deployment-wide mean):")
    for crossover in result.crossovers:
        lines.append(f"  {crossover.describe()}")
    lines.append("")
    lines.append(overlap_table.render())
    return "\n".join(lines)
