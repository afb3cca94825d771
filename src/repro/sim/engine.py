"""The discrete-event simulation core: multi-region, multi-client deployments.

The paper's experiments replay one closed-loop client in one region.  This
engine generalises that loop into a discrete-event simulation: a single event
queue over the shared :class:`~repro.sim.clock.SimulationClock` interleaves

* **request arrivals** — N concurrent clients per region, each replaying its
  own deterministic request stream, either closed-loop (the next request is
  issued when the previous completes, YCSB-style) or open-loop (Poisson
  arrivals at a configurable per-client rate);
* **reconfiguration timers** — per-region cache reconfiguration fires at exact
  period boundaries instead of piggybacking on reads;
* **collaboration timers** — §VI cache collaboration: the regions' Agar nodes
  periodically exchange contents through a
  :class:`~repro.extensions.collaboration.CollaborationCoordinator` and
  reconfigure against the discounted option values;
* **fault transitions** — one-shot timer events installing the successive
  states of an :class:`~repro.sim.faults.FaultSchedule` into the strategies
  (region outages, brownouts, AZ failures; see ``docs/failures.md``).

All clients of one region share that region's strategy instance — and with it
the region's :class:`~repro.core.agar_node.AgarNode` / chunk cache — so
contention effects on hit ratio are simulated faithfully.

Determinism contract
--------------------

Given the same :class:`EngineConfig` and run seed, a run is bit-reproducible:

* client ``g`` (region-major numbering) replays the request stream seeded
  ``seed + CLIENT_SEED_STRIDE * g`` — client 0 therefore replays exactly the
  stream the pre-engine closed loop replays for the same seed;
* Poisson arrival times come from a dedicated per-client generator seeded
  ``(seed, _ARRIVAL_SEED_TAG, g)``, independent of the latency jitter stream;
* events are processed in ``(time, kind, insertion order)`` order, with
  timers before arrivals at equal timestamps, so jitter samples are drawn in
  a deterministic order.

With one region, one closed-loop client, no collaboration and piggybacked
reconfiguration (the automatic default for that shape), the engine reproduces
the pre-engine closed loop (``tests/reference/closed_loop.py``) bit-identically.

Scheduling core (lane scheduler)
--------------------------------

:meth:`EventEngine.execute` no longer runs a global binary heap.  Each client
is a *lane*: it has at most one outstanding event at a time (its next arrival),
so the queue reduces to one next-event time per lane, held in a NumPy array —
the next event is an ``argmin`` over that array instead of a heap pop over
``(time, priority, seq, payload)`` tuples.  Client state is struct-of-arrays
(per-lane rank streams from :func:`generate_request_ranks`, positions, bound
read/record callables) and reads enter the strategies by key index
(:meth:`~repro.client.strategies.ReadStrategy.read_indexed` — the same read
as ``read``, faulted and resilient shapes included, resolved without the key
string), so the inner loop allocates no tuples and hashes no key strings.
Open-loop lanes pre-draw exponential inter-arrival blocks from their
per-client generators (block and scalar draws consume the same bit stream).
Timer events (few per deployment) live in a small residual heap consulted
before each arrival.

The heap loop it replaced is the test oracle ``execute_heap`` in
``tests/reference/heap_scheduler.py``: the equivalence suite
(``tests/sim/test_engine_equivalence.py``) asserts the lane scheduler is
bit-identical to it on every supported shape, and
``tests/golden/engine_execute.json`` pins :meth:`EventEngine.execute` itself
across versions.

:meth:`EventEngine.execute_sharded` additionally runs deployments with one
worker process per region (fork: the populated :class:`ErasureCodedStore` is
shared copy-on-write) under one message-passing protocol: workers run their
lanes up to the next collaboration-period boundary, exchange
:class:`NeighborAnnouncement`s with the parent over pipes, apply their share
of the coordinator's discount-and-reconfigure round, and resume (see
``docs/collaboration.md``).  Regions without a coordinator never interact and
are the protocol's zero-round case: no boundary, one segment, run to
completion.  Sharded runs are deterministic — the forked and the in-process
(``processes=False``) transports drive the same :class:`_Shard` and are
bit-identical — but not bit-identical to :meth:`execute`, because each shard
draws latency jitter from its own region-derived stream instead of
interleaving one shared stream.
"""

from __future__ import annotations

import copy
import heapq
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from repro.backend.object_store import ErasureCodedStore
from repro.cache.base import CacheSnapshot
from repro.client.stats import LatencyStats, ReadResult
from repro.client.strategies import ClientConfig, ReadStrategy, make_strategy
from repro.core.agar_node import AgarNodeConfig
from repro.extensions.collaboration import (
    CollaborationCoordinator,
    NeighborAnnouncement,
    announcement_of,
    reconfigure_node,
)
from repro.geo.topology import Topology, default_topology
from repro.sim.clock import SimulationClock
from repro.sim.faults import FaultSchedule, FaultState
from repro.workload.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_request_ranks,
)

#: Seed stride between the request streams of concurrent clients.  Client 0
#: uses the run seed itself, which keeps the 1-client engine path on the same
#: stream as the legacy driver.
CLIENT_SEED_STRIDE = 7919

#: Mixed into the per-client Poisson arrival seeds so arrival times are
#: independent of the request streams and the latency jitter.
_ARRIVAL_SEED_TAG = 104729

#: How many exponential inter-arrival samples an open-loop lane pre-draws per
#: refill.  Block and scalar draws consume the same per-client bit stream.
_ARRIVAL_BLOCK = 256

#: Mixed into the per-region jitter seeds of sharded execution, so each shard
#: draws from its own deterministic latency-jitter stream.
_SHARD_SEED_TAG = 15485863

#: Timer kinds of the lane scheduler's residual heap.  Fault transitions are
#: one-shot (never re-pushed) and are pushed before the periodic timers, so at
#: equal timestamps a fault state change precedes a collaboration round or a
#: reconfiguration tick, as in the heap loop of
#: ``tests/reference/heap_scheduler.py``.
_TIMER_COLLAB = 0
_TIMER_REGION = 1
_TIMER_FAULT = 2

#: Smallest wave the batched dispatch takes.  Batching saves ≈ 1.5 µs per read
#: but costs a few µs per wave and region (the array draw, the grouping, the
#: block record, one scatter of completions), so smaller waves are cheaper per
#: event.  Measured on 1–512 closed-loop Agar clients over one and two
#: regions: at 8, two regions of 32 clients (≈ 6 reads a wave) ran 8 % slower
#: than per event, at 16 within run-to-run noise of it.  Backend-only shapes
#: (1 × 1 to 2 × 256 clients) agree.  Both dispatches are bit-identical.
_BATCH_MIN_READS = 16


@dataclass(frozen=True)
class RegionSpec:
    """One client region of a simulated deployment.

    Attributes:
        region: region name (must exist in the topology).
        clients: number of concurrent clients in the region.
        strategy: read strategy shared by the region's clients
            (``"agar"``, ``"backend"``, ``"lru-5"``, ...).
        cache_capacity_bytes: per-region cache capacity override; ``None``
            uses the deployment-wide :attr:`EngineConfig.cache_capacity_bytes`
            (heterogeneous deployments give each region its own size).
        agar: per-region Agar node tunables override; ``None`` uses the
            deployment-wide :attr:`EngineConfig.agar`.  Regions with a
            capacity override usually pair it with tunables adapted to that
            capacity (see ``agar_config_for_capacity``).
    """

    region: str
    clients: int = 1
    strategy: str = "agar"
    cache_capacity_bytes: int | None = None
    agar: AgarNodeConfig | None = None

    def __post_init__(self) -> None:
        if self.clients <= 0:
            raise ValueError("clients must be positive")
        if self.cache_capacity_bytes is not None and self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive when set")


@dataclass(frozen=True)
class EngineConfig:
    """Everything one multi-region discrete-event run needs.

    Attributes:
        workload: per-client workload (``request_count`` reads per client).
        regions: the client regions of the deployment.
        cache_capacity_bytes: per-region cache capacity.
        client: client latency constants.
        agar: Agar node tunables (``agar`` strategy regions only).
        topology_seed: seed for latency jitter.
        arrival: arrival process shared by all clients.
        collaboration: wire the regions' Agar nodes through a
            :class:`CollaborationCoordinator` (§VI); requires every region to
            run the ``agar`` strategy and implies timer-driven reconfiguration.
        collaboration_period_s: collaborative exchange period, finite and
            positive (defaults to the Agar reconfiguration period).
        neighbor_read_ms: expected cross-region cache read latency (ms) used
            for §VI neighbour reads and option discounting.  A float applies
            the same flat expectation to every region (the historical
            behaviour) and must be finite and non-negative; ``None`` derives
            a per-region expectation from the topology's per-pair neighbour
            links (:meth:`~repro.geo.topology.Topology.neighbor_link`,
            nearest collaboration partner).  Either way the neighbour link's jitter σ
            comes from the topology, so neighbour reads draw log-normal
            jitter like any other link.
        timer_reconfiguration: drive periodic reconfiguration from engine
            timer events instead of the read path.  ``None`` (default) picks
            automatically: piggybacked for the 1-region/1-client closed loop
            (bit-compatible with the legacy driver), timer-driven otherwise.
        faults: optional fault schedule (``repro.sim.faults``).  Its state
            transitions become one-shot timer events consumed identically by
            :meth:`EventEngine.execute` and
            :meth:`EventEngine.execute_sharded`; schedule times are
            relative to each run's start.
    """

    workload: WorkloadSpec
    regions: tuple[RegionSpec, ...]
    cache_capacity_bytes: int = 10 * 1024 * 1024
    client: ClientConfig = ClientConfig()
    agar: AgarNodeConfig | None = None
    topology_seed: int = 0
    arrival: ArrivalSpec = ArrivalSpec()
    collaboration: bool = False
    collaboration_period_s: float | None = None
    neighbor_read_ms: float | None = 120.0
    timer_reconfiguration: bool | None = None
    faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("at least one region is required")
        names = [spec.region for spec in self.regions]
        if len(set(names)) != len(names):
            raise ValueError("regions must be distinct")
        if self.collaboration:
            bad = [spec.region for spec in self.regions if spec.strategy != "agar"]
            if bad:
                raise ValueError(
                    f"collaboration requires the 'agar' strategy in every region "
                    f"(offending: {bad})"
                )
        period = self.collaboration_period_s
        if period is not None and not (math.isfinite(period) and period > 0):
            raise ValueError("collaboration_period_s must be finite and positive "
                             "(or None)")
        latency = self.neighbor_read_ms
        if latency is not None and not (math.isfinite(latency) and latency >= 0):
            raise ValueError("neighbor_read_ms must be finite and non-negative "
                             "(or None)")

    @property
    def total_clients(self) -> int:
        """Concurrent clients across all regions."""
        return sum(spec.clients for spec in self.regions)

    @property
    def uses_timer_reconfiguration(self) -> bool:
        """Resolved reconfiguration mode (see ``timer_reconfiguration``).

        Automatic mode piggybacks only the legacy shape: the 1-region /
        1-client closed loop without collaboration.
        """
        if self.collaboration:
            return True
        if self.timer_reconfiguration is not None:
            return self.timer_reconfiguration
        return not (len(self.regions) == 1 and self.regions[0].clients == 1
                    and not self.arrival.is_open_loop)


def make_region_strategy(config: EngineConfig, spec: RegionSpec,
                         store: ErasureCodedStore, clock: SimulationClock
                         ) -> ReadStrategy:
    """A fresh strategy for one region of ``config``.

    The region's own cache capacity and Agar tunables win; without them the
    deployment-wide ones apply.  The engine builds every region through this,
    and the serving tier rebuilds a restarted region's strategy with it.
    """
    return make_strategy(
        spec.strategy,
        store=store,
        client_region=spec.region,
        cache_capacity_bytes=(spec.cache_capacity_bytes
                              if spec.cache_capacity_bytes is not None
                              else config.cache_capacity_bytes),
        clock=clock,
        client_config=config.client,
        node_config=spec.agar if spec.agar is not None else config.agar,
    )


@dataclass
class EngineDeployment:
    """One simulated deployment: shared store, clock and per-region strategies."""

    store: ErasureCodedStore
    clock: SimulationClock
    strategies: list[ReadStrategy]
    coordinator: CollaborationCoordinator | None = None


@dataclass
class RegionRunResult:
    """Per-region outcome of one engine run."""

    region: str
    strategy: str
    clients: int
    stats: LatencyStats
    duration_s: float
    cache_snapshot: CacheSnapshot | None = None
    results: list[ReadResult] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        """Average read latency of the region's clients."""
        return self.stats.mean_latency_ms

    @property
    def p99_latency_ms(self) -> float:
        """99th percentile read latency of the region's clients."""
        return self.stats.p99_latency_ms

    @property
    def hit_ratio(self) -> float:
        """Full+partial hit ratio of the region's clients."""
        return self.stats.hit_ratio

    @property
    def throughput_rps(self) -> float:
        """Recorded requests per second of simulated time."""
        return self.stats.throughput_rps(self.duration_s)


@dataclass(frozen=True)
class DeploymentAggregate:
    """Deployment-wide metrics of one engine run (all regions merged).

    This is what a multi-region report quotes for the deployment as a whole:
    the latency percentiles of the merged per-read distribution (not averages
    of per-region percentiles), the combined hit ratio, and the total
    throughput over the run's duration.
    """

    requests: int
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    hit_ratio: float
    full_hit_ratio: float
    throughput_rps: float
    #: Chunks served from neighbouring regions' caches across the deployment
    #: (§VI neighbour reads); 0 outside collaborative deployments.
    neighbor_chunks: int = 0


@dataclass
class EngineResult:
    """Outcome of one multi-region engine run."""

    workload_name: str
    duration_s: float
    regions: dict[str, RegionRunResult]

    @property
    def total_requests(self) -> int:
        """Requests recorded across all regions."""
        return sum(result.stats.count for result in self.regions.values())

    @property
    def throughput_rps(self) -> float:
        """Deployment-wide requests per second of simulated time."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_requests / self.duration_s

    def overall_stats(self) -> LatencyStats:
        """All regions' statistics merged into one (new) aggregate."""
        return LatencyStats.merge_all(result.stats for result in self.regions.values())

    def aggregate(self) -> DeploymentAggregate:
        """Deployment-wide aggregate: merged percentiles, hit ratio, throughput."""
        merged = self.overall_stats()
        return DeploymentAggregate(
            requests=merged.count,
            mean_latency_ms=merged.mean_latency_ms,
            p50_latency_ms=merged.p50_latency_ms,
            p95_latency_ms=merged.p95_latency_ms,
            p99_latency_ms=merged.p99_latency_ms,
            hit_ratio=merged.hit_ratio,
            full_hit_ratio=merged.full_hit_ratio,
            throughput_rps=self.throughput_rps,
            neighbor_chunks=merged.neighbor_chunks_total,
        )


class _LaneRun:
    """One resumable lane-scheduler pass over a subset of a deployment.

    This is the state of :meth:`EventEngine.execute` lifted into an object
    so execution can *pause*: :meth:`run_until` processes every event strictly
    before a time limit and returns, leaving all lane state (next-event
    times, rank positions, pre-drawn arrival blocks, tie-guard sequence
    numbers) intact for the next call.  Running with ``limit=None`` drains the
    run to completion and is bit-identical to the former single-pass loop.

    The pause point is what sharded execution builds on: each
    :class:`_Shard` runs its lanes up to a collaboration-period boundary,
    exchanges announcements with the parent, applies its share of the
    §VI round, and resumes.  At a boundary ``T`` every event with time < T
    has been processed and every event at exactly ``T`` has not — matching
    the reference scheduler, where a collaboration timer at ``T``
    (priority 0) fires before arrivals at ``T`` (priority 1).

    ``external_collaboration=True`` — passed by every :class:`_Shard`, only
    :meth:`EventEngine.execute` does not — suppresses the in-loop
    collaboration timer; the caller drives the rounds between
    :meth:`run_until` calls instead (the residual timer heap then holds only
    the one-shot fault transitions, if any — collaborative deployments have
    no per-region reconfiguration timers).  Without a coordinator there is no
    such timer and the flag changes nothing.  A fault transition landing
    exactly on a segment boundary ``T`` stays pending at the pause and fires
    attached to the next segment's first arrival at or after ``T`` — the same
    state every read at time ≥ ``T`` would see in-process.

    Construction runs three phases — :meth:`_build_lanes`,
    :meth:`_schedule_timers`, :meth:`_bind_regions` — and :meth:`run_until`
    five, along the engine-event path: :meth:`_fire_timers`, then either
    :meth:`_extract_wave`, a wave read (:meth:`_read_wave_batched` or
    :meth:`_read_wave_per_event`) and :meth:`_land`, or :meth:`_drain_block`.
    Phases are called per wave (``_land`` once per region of a batched
    wave), per block or per batch of due timers, never per event.
    """

    def __init__(self, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_indices, *,
                 external_collaboration: bool = False) -> None:
        config = engine._config
        self._deployment = deployment
        self._config = config
        self._keep = engine._keep_results
        self._clock = deployment.clock
        self._open_loop = config.arrival.is_open_loop
        self.start = self._clock.now()
        self.region_indices = list(region_indices)
        self._build_lanes(seed)
        self._schedule_timers(engine, external_collaboration)
        self._bind_regions(engine)
        self.remaining = self.lanes
        self.last_completion = self.start

    def _build_lanes(self, seed: int) -> None:
        """One lane per client of the selected regions, with its first event.

        Struct-of-arrays lanes.  Ranks are plain Python lists (fastest scalar
        indexing); next-event times live in a float64 array for the
        vectorized ready-set extraction.  Open-loop lanes draw exponential
        blocks per client lazily on first use (a million closed-loop lanes
        allocate no arrival state at all, and a million open-loop lanes no
        per-lane empties).  Client numbering is region-major over the *full*
        deployment, so a lane replays the same request and arrival streams
        whether it runs in :meth:`EventEngine.execute` or in its region's
        shard.
        """
        config = self._config
        workload = config.workload
        strategies = self._deployment.strategies
        # Shared key space; per-key plans are interned lazily on first read.
        keys = [workload.key_for_rank(rank) for rank in range(workload.object_count)]
        for region_index in self.region_indices:
            strategies[region_index].prepare_indexed_reads(keys)

        selected = set(self.region_indices)
        lane_region: list[int] = []
        self.lane_ranks: list[list[int]] = []
        self.lane_rng: list[np.random.Generator] = []
        self.lane_block: list[list[float] | None] = []
        self.lane_block_pos: list[int] = []
        self.mean_interarrival = (config.arrival.mean_interarrival_s
                                  if self._open_loop else 0.0)
        first_client = 0
        for region_index, spec in enumerate(config.regions):
            clients = range(first_client, first_client + spec.clients)
            first_client += spec.clients
            if region_index not in selected:
                continue
            for client_index in clients:
                ranks = generate_request_ranks(
                    workload, seed=seed + CLIENT_SEED_STRIDE * client_index
                )
                if ranks.size == 0:
                    continue
                lane_region.append(region_index)
                self.lane_ranks.append(ranks.tolist())
                if self._open_loop:
                    # Bit-identical to default_rng((seed, tag, client)) minus
                    # the argument dispatch — one generator per lane makes the
                    # constructor itself a construction hot path.
                    self.lane_rng.append(np.random.Generator(np.random.PCG64(
                        np.random.SeedSequence((seed, _ARRIVAL_SEED_TAG, client_index))
                    )))
                    self.lane_block.append(None)
                    self.lane_block_pos.append(0)

        lanes = len(lane_region)
        self.lanes = lanes
        self.lane_region = lane_region
        self.lane_pos = [0] * lanes
        self.lane_end = [len(ranks) for ranks in self.lane_ranks]
        self.next_time = np.empty(max(lanes, 1), dtype=np.float64)
        if self._open_loop:
            for lane in range(lanes):
                self.next_time[lane] = self.start + self._next_interarrival(lane)
        else:
            self.next_time[:lanes] = self.start

    def _schedule_timers(self, engine: "EventEngine",
                         external_collaboration: bool) -> None:
        """The residual timer heap: one-shot fault transitions, then the
        deployment's few periodic timers.

        Fault transitions are pushed before the periodic timers (lower seq),
        and unconditionally — faults fire in piggyback/legacy reconfiguration
        mode too.  The state at t=0 is installed here.  Each fault entry's
        slot carries its transition index; a periodic entry's carries its
        region index (``-1`` for the collaboration round).
        """
        config = self._config
        deployment = self._deployment
        strategies = deployment.strategies
        self.timer_heap: list[tuple[float, int, int, int, float]] = []
        self.timer_seq = 0
        self._fault_states: tuple[FaultState, ...] = ()
        self._fault_targets = [strategies[region_index].set_fault_state
                               for region_index in self.region_indices]
        # Fault *reaction* hooks fire after every install (initial state and
        # each transition) so fault-reactive reconfiguration sees onset and
        # recovery alike.  The hook consumes no latency-model draws, so
        # per-shard invocation (only this run's regions) stays bit-identical.
        self._react_targets = [strategies[region_index].react_to_fault
                               for region_index in self.region_indices]
        faults = config.faults
        if faults is not None and not faults.is_empty:
            initial = faults.initial_state
            for install in self._fault_targets:
                install(initial)
            for react in self._react_targets:
                react(self.start)
            transitions = faults.transitions
            self._fault_states = tuple(state for _, state in transitions)
            for index, (offset, _state) in enumerate(transitions):
                self._push_timer(self.start + offset, _TIMER_FAULT, index, 0.0)

        self._neighbor_profiles = (engine._neighbor_profiles()
                                   if deployment.coordinator is not None else None)
        if not config.uses_timer_reconfiguration:
            return
        for region_index in self.region_indices:
            strategies[region_index].set_external_reconfiguration(True)
        if deployment.coordinator is not None:
            if not external_collaboration:
                period = engine._collaboration_period()
                self._push_timer(self.start + period, _TIMER_COLLAB, -1, period)
            return
        for region_index in self.region_indices:
            period = strategies[region_index].reconfiguration_period_s
            if period is not None:
                self._push_timer(self.start + period, _TIMER_REGION,
                                 region_index, period)

    def _bind_regions(self, engine: "EventEngine") -> None:
        """Per-region statistics and bound callables, and the wave dispatch.

        Per-region bound callables are reached through the lane's region
        index: a few bound methods per deployment instead of three per lane
        (at a million lanes the per-lane bound-method lists alone cost
        hundreds of megabytes), at the price of one extra list index per
        event.
        """
        config = self._config
        strategies = self._deployment.strategies
        region_indices = self.region_indices
        per_client_requests = config.workload.request_count
        self.region_stats = {
            region_index: LatencyStats(
                capacity=max(config.regions[region_index].clients * per_client_requests, 1)
            )
            for region_index in region_indices
        }
        self.region_kept: dict[int, list[ReadResult]] = {
            region_index: [] for region_index in region_indices
        }
        region_count = len(config.regions)
        self.region_read: list = [None] * region_count
        self.region_record: list = [None] * region_count
        self.region_kept_lists: list = [None] * region_count
        for region_index in region_indices:
            self.region_read[region_index] = strategies[region_index].read_indexed
            self.region_record[region_index] = self.region_stats[region_index].record
            self.region_kept_lists[region_index] = self.region_kept[region_index]

        # Exact event-time ties between lanes must resolve in the reference's
        # insertion order.  With jitter on every link a collision is a
        # measure-zero float coincidence, and the one systematic collision —
        # all closed-loop lanes starting at `start` — already resolves
        # correctly because the drain heap's (time, lane) entries pop in lane
        # order at equal times, which equals the initial scheduling order.
        # Zero-jitter topologies (e.g. table1) make exact ties routine, so
        # there each lane carries the sequence number its current event was
        # scheduled with (mirroring the reference's push counter) and tied
        # lanes resolve to the smallest one.
        self.guard_ties = not engine._topology.latency.fully_jittered
        self.lane_schedule_seq = list(range(self.lanes)) if self.guard_ties else None
        self.schedule_counter = self.lanes

        # Wave dispatch (closed loop, jittered topologies): every read costs
        # at least the client overhead, so arrivals inside
        # [m, m + overhead) can never be rescheduled back into that window —
        # the window is a sorted one-shot "wave" needing no drain heap at
        # all.  When on top of that every selected strategy's read takes
        # exactly one jitter draw per chunk (backend and Agar reads on a fully
        # jittered topology), the whole wave's draws collapse into one
        # batched sample and the reads into one wave compose and one block
        # record per region.  Regions share no read-time state but the clock,
        # which each read sets itself, so grouping a wave's reads by region
        # keeps every region's event order.
        self._min_gap = (0.0 if self._open_loop
                         else config.client.overhead_ms / 1000.0)
        self._use_waves = self._min_gap > 0.0 and not self.guard_ties
        self._only_region = region_indices[0] if len(region_indices) == 1 else -1
        self._selected_strategies = [strategies[region_index]
                                     for region_index in region_indices]
        self._latency_model = self._deployment.store.topology.latency
        self.region_wave: list = [None] * region_count
        self.region_record_block: list = [None] * region_count
        # Resilient reads (retry budgets, hedging) and §VI neighbour reads
        # draw a variable number of jitter samples per read, so the fixed
        # draws-per-read batching below is not set up for them; per-event
        # wave dispatch stays valid because such a read still costs at least
        # the client overhead.
        self._draws_per_read = 0
        if (self._use_waves and self._deployment.coordinator is None
                and all(strategy.supports_indexed_batch
                        and not strategy.resilience_active
                        for strategy in self._selected_strategies)):
            self._draws_per_read = self._deployment.store.params.data_chunks
            for region_index in region_indices:
                self.region_wave[region_index] = (
                    strategies[region_index].compose_indexed_wave)
                self.region_record_block[region_index] = (
                    self.region_stats[region_index].record_block)

    def _push_timer(self, at: float, kind: int, slot: int, period: float) -> None:
        heapq.heappush(self.timer_heap, (at, self.timer_seq, kind, slot, period))
        self.timer_seq += 1

    def _next_interarrival(self, lane: int) -> float:
        block = self.lane_block[lane]
        position = self.lane_block_pos[lane]
        if block is None or position >= len(block):
            block = self.lane_rng[lane].exponential(
                self.mean_interarrival, _ARRIVAL_BLOCK
            ).tolist()
            self.lane_block[lane] = block
            position = 0
        self.lane_block_pos[lane] = position + 1
        return block[position]

    @property
    def remaining_events(self) -> int:
        """Requests not yet processed across this run's lanes."""
        return sum(end - pos for end, pos in zip(self.lane_end, self.lane_pos))

    def run_until(self, limit: float | None) -> None:
        """Process events strictly before ``limit`` (None = run to completion).

        Events at exactly ``limit`` are left pending: the caller's boundary
        work (a collaboration round, mirroring a priority-0 timer) happens
        before them.

        Batched ready-set draining: each step of the outer loop fires the
        timers due at the earliest pending arrival, computes the *safe
        horizon* — the earliest residual timer still pending (the only
        cross-lane interaction point), capped by ``limit`` — and processes
        the lanes whose next event falls strictly inside it.  Closed-loop
        lanes on a jittered topology go one wave at a time (see
        :meth:`_extract_wave`); every other shape drains the whole block
        through a small local heap (:meth:`_drain_block`).  Event times are
        monotone non-decreasing (a closed-loop completion is never before its
        arrival, an open-loop gap never negative), so no lane outside the
        block can produce an event inside the horizon and the global event
        order — and with it every jitter draw — is exactly the reference
        scheduler's.
        """
        horizon = math.inf if limit is None else limit
        timer_heap = self.timer_heap
        minimum = self.next_time.min
        use_waves = self._use_waves
        batched = self._draws_per_read > 0
        selected_strategies = self._selected_strategies

        while self.remaining:
            block_start = float(minimum())
            if block_start >= horizon:
                break
            # Timers due before (or exactly at) the next arrival fire first —
            # the reference's (time, priority, seq) order, timers at priority 0.
            if timer_heap and timer_heap[0][0] <= block_start:
                self._fire_timers(block_start)

            # Safe horizon of this block: every arrival strictly before the
            # earliest pending timer (all due ones just fired, so the heap
            # top is > block_start) can be processed without a lane/timer
            # interaction; the run limit caps it further.
            block_end = timer_heap[0][0] if timer_heap else horizon
            if block_end > horizon:
                block_end = horizon

            if not use_waves:
                self._drain_block(block_end)
                continue
            lanes, times, ranks = self._extract_wave(block_start, block_end)
            if (batched and len(lanes) >= _BATCH_MIN_READS
                    and not any(strategy._faulted
                                for strategy in selected_strategies)):
                self._read_wave_batched(lanes, times, ranks)
            else:
                self._read_wave_per_event(lanes, times, ranks)

    def _fire_timers(self, block_start: float) -> None:
        """Fire every timer due at or before ``block_start``, in heap order.

        A fault transition installs its state and is not re-pushed; a
        periodic timer (collaboration round or region tick) runs and pushes
        its next occurrence.
        """
        timer_heap = self.timer_heap
        deployment = self._deployment
        clock = self._clock
        while timer_heap and timer_heap[0][0] <= block_start:
            timer_time, _seq, kind, slot, period = heapq.heappop(timer_heap)
            clock._now_s = timer_time
            if kind == _TIMER_FAULT:
                state = self._fault_states[slot]
                for install in self._fault_targets:
                    install(state)
                for react in self._react_targets:
                    react(timer_time)
                continue
            if kind == _TIMER_COLLAB:
                deployment.coordinator.reconfigure_all(timer_time)
                _install_neighbor_catalogs(deployment, self._neighbor_profiles)
            else:
                deployment.strategies[slot].tick(timer_time)
            self._push_timer(timer_time + period, kind, slot, period)

    def _extract_wave(self, block_start: float, block_end: float
                      ) -> tuple[list[int], list[float], list[int]]:
        """The lanes, times and ranks of the wave starting at ``block_start``.

        Closed-loop wave: a read's completion lands at least ``min_gap``
        (= client overhead, the latency floor on every path, faults
        included) after its arrival, so nothing dispatched inside
        ``[block_start, block_start + min_gap)`` can be rescheduled back into
        that window.  The window's arrivals are sorted once — ties keep
        ascending lane order, exactly the drain heap's (time, lane) rule —
        and processed with no heap at all.
        """
        wave_end = block_start + self._min_gap
        if wave_end > block_end:
            wave_end = block_end
        next_time = self.next_time
        ready = np.flatnonzero(next_time < wave_end)
        unordered_times = next_time[ready]
        order = unordered_times.argsort(kind="stable")
        lanes = ready[order].tolist()
        lane_ranks = self.lane_ranks
        lane_pos = self.lane_pos
        return (lanes, unordered_times[order].tolist(),
                [lane_ranks[lane][lane_pos[lane]] for lane in lanes])

    def _read_wave_batched(self, lanes: list[int], times: list[float],
                           ranks: list[int]) -> None:
        """Read a wave with one jitter sample, then one wave compose and one
        block record per region, and land each region's reads.

        The sample is taken once for the whole wave because the stream is
        shared across regions and must be consumed in global event order.
        Records land in per-region stats, whose order each region's ascending
        row subset preserves.
        """
        count = len(lanes)
        draws_per_read = self._draws_per_read
        draws = self._latency_model.take_standard_normals_array(
            draws_per_read * count).reshape(count, draws_per_read)
        if self._only_region >= 0:
            region_groups = [(self._only_region, lanes, ranks, times, draws)]
        else:
            lane_region = self.lane_region
            rows_by_region: dict[int, list[int]] = {}
            for row, lane in enumerate(lanes):
                rows_by_region.setdefault(lane_region[lane], []).append(row)
            region_groups = [
                (region_index, [lanes[row] for row in rows],
                 [ranks[row] for row in rows], [times[row] for row in rows],
                 draws[rows])
                for region_index, rows in rows_by_region.items()]
        clock = self._clock
        keep = self._keep
        for region_index, row_lanes, row_ranks, row_times, row_draws in region_groups:
            latencies, cached = self.region_wave[region_index](
                row_ranks, row_times, row_draws, clock,
                self.region_kept_lists[region_index] if keep else None)
            self.region_record_block[region_index](latencies, cached, draws_per_read)
            self._land(row_lanes, row_times, latencies)
        clock._now_s = times[-1]

    def _read_wave_per_event(self, lanes: list[int], times: list[float],
                             ranks: list[int]) -> None:
        """Read a wave one ``read_indexed`` at a time, then land it."""
        clock = self._clock
        lane_region = self.lane_region
        region_read = self.region_read
        region_record = self.region_record
        region_kept = self.region_kept_lists
        keep = self._keep
        latencies: list[float] = []
        add_latency = latencies.append
        for lane, event_time, rank in zip(lanes, times, ranks):
            clock._now_s = event_time
            region_index = lane_region[lane]
            result = region_read[region_index](rank, event_time)
            region_record[region_index](result)
            if keep:
                region_kept[region_index].append(result)
            add_latency(result.latency_ms)
        self._land(lanes, times, latencies)

    def _land(self, lanes: list[int], times: list[float], latencies_ms) -> None:
        """Complete a wave's reads: completion times, the last completion and
        lane positions; reschedule each lane at its completion or retire it.

        Nothing is rescheduled into its own wave, so nothing has read
        ``next_time`` since the extraction: one store per wave, not one NumPy
        scalar store per event.
        """
        lane_pos = self.lane_pos
        lane_end = self.lane_end
        last_completion = self.last_completion
        infinity = math.inf
        retired = 0
        upcoming_times: list[float] = []
        schedule = upcoming_times.append
        for lane, event_time, latency_ms in zip(lanes, times, latencies_ms):
            completion = event_time + latency_ms / 1000.0
            if completion > last_completion:
                last_completion = completion
            position = lane_pos[lane] + 1
            lane_pos[lane] = position
            if position < lane_end[lane]:
                schedule(completion)
            else:
                schedule(infinity)
                retired += 1
        self.next_time[lanes] = upcoming_times
        self.last_completion = last_completion
        self.remaining -= retired

    def _drain_block(self, block_end: float) -> None:
        """Process every event before ``block_end`` through a local heap.

        The block's due lanes are extracted in one vectorized mask over
        ``next_time``; arrivals rescheduled inside the block re-enter the
        heap, later ones just update ``next_time`` for the next step.  Per-event
        work is an O(log block) heap pop instead of an O(lanes) ``argmin``.
        This loop keeps its own completion bookkeeping, because it pushes
        reschedules back into its heap.
        """
        clock = self._clock
        open_loop = self._open_loop
        keep = self._keep
        next_time = self.next_time
        guard_ties = self.guard_ties
        lane_schedule_seq = self.lane_schedule_seq
        schedule_counter = self.schedule_counter
        lane_region = self.lane_region
        region_read = self.region_read
        region_record = self.region_record
        region_kept = self.region_kept_lists
        lane_pos = self.lane_pos
        lane_end = self.lane_end
        lane_ranks = self.lane_ranks
        next_interarrival = self._next_interarrival
        remaining = self.remaining
        last_completion = self.last_completion
        heappush = heapq.heappush
        heappop = heapq.heappop
        infinity = math.inf

        ready = np.flatnonzero(next_time < block_end)
        ready_list = ready.tolist()
        ready_times = next_time[ready].tolist()
        # Batched rank lookup for the block's due events.
        block_ranks = [lane_ranks[lane][lane_pos[lane]] for lane in ready_list]

        # Entry layouts make heap ties resolve exactly like the reference:
        # (time, lane, rank) pops the smallest lane index at equal times
        # (the argmin/insertion-order rule); tie-guarded topologies use
        # (time, schedule_seq, lane, rank), the reference's push counter.
        if guard_ties:
            local = [(event_time, lane_schedule_seq[lane], lane, rank)
                     for event_time, lane, rank
                     in zip(ready_times, ready_list, block_ranks)]
        else:
            local = list(zip(ready_times, ready_list, block_ranks))
        heapq.heapify(local)
        while local:
            entry = heappop(local)
            event_time = entry[0]
            lane = entry[-2]
            # Direct slot write instead of clock.advance_to: the drain
            # order guarantees monotonically non-decreasing event times,
            # so the method call and its past-check are pure overhead.
            clock._now_s = event_time
            region_index = lane_region[lane]
            result = region_read[region_index](entry[-1], event_time)
            completion = event_time + result.latency_ms / 1000.0
            if completion > last_completion:
                last_completion = completion
            region_record[region_index](result)
            if keep:
                region_kept[region_index].append(result)
            position = lane_pos[lane] + 1
            lane_pos[lane] = position
            if position < lane_end[lane]:
                upcoming = (event_time + next_interarrival(lane) if open_loop
                            else completion)
                next_time[lane] = upcoming
                if guard_ties:
                    sequence = schedule_counter
                    schedule_counter += 1
                    lane_schedule_seq[lane] = sequence
                    if upcoming < block_end:
                        heappush(local, (upcoming, sequence, lane,
                                         lane_ranks[lane][position]))
                elif upcoming < block_end:
                    heappush(local, (upcoming, lane, lane_ranks[lane][position]))
            else:
                next_time[lane] = infinity
                remaining -= 1

        self.schedule_counter = schedule_counter
        self.remaining = remaining
        self.last_completion = last_completion

    def pause_at(self, boundary: float) -> None:
        """Align the clock with a collaboration boundary the caller will run.

        Mirrors the reference scheduler advancing the shared clock to a
        timer's fire time before executing it.
        """
        if boundary > self._clock.now():
            self._clock._now_s = boundary

    def finish(self) -> float:
        """Close the run with a final clock advance; returns its duration."""
        clock = self._clock
        end = clock.now()
        if self.last_completion > end:
            end = self.last_completion
        clock.advance_to(end)
        return end - self.start

    def region_result(self, region_index: int, duration: float) -> RegionRunResult:
        """One region's share of the finished run as its run result."""
        spec = self._config.regions[region_index]
        return RegionRunResult(
            region=spec.region,
            strategy=spec.strategy,
            clients=spec.clients,
            stats=self.region_stats[region_index],
            duration_s=duration,
            cache_snapshot=self._deployment.strategies[region_index].cache_snapshot(),
            results=self.region_kept[region_index],
        )


def _install_neighbor_catalogs(deployment: EngineDeployment,
                               profiles: dict[str, tuple[float, float]]) -> None:
    """Hand every region the *other* regions' pinned chunks, per neighbour.

    Called after each §VI round: the coordinator's fresh announcements become
    each strategy's neighbour catalog, enabling neighbour-cache reads over
    the region's resolved ``(expected_ms, sigma)`` neighbour-link profile
    (see :meth:`EventEngine._neighbor_profiles` and
    :meth:`ReadStrategy.set_neighbor_catalog`).  The catalog keeps the
    announcements keyed by provenance — which neighbour pinned what — so a
    fault taking a neighbour region down darks exactly that neighbour's
    entries instead of the whole merged view.
    """
    pinned = {a.region: a.pinned_chunks for a in deployment.coordinator.announcements()}
    for strategy in deployment.strategies:
        expected_ms, sigma = profiles[strategy.client_region]
        strategy.set_neighbor_catalog(
            _neighbor_catalog(pinned, strategy.client_region), expected_ms, sigma)


def _neighbor_catalog(pinned: dict[str, frozenset], region: str
                      ) -> dict[str, frozenset]:
    """The chunks every region but ``region`` pins, keyed by that region."""
    return {owner: chunks for owner, chunks in pinned.items() if owner != region}


class _Shard:
    """One region's job in sharded execution.

    Owns everything a shard does to its private deployment — a forked
    worker's copy-on-write inheritance or a deep copy (both mutate only their
    own copy, bit-identically): it reseeds the latency model with the
    region's jitter seed, builds the resumable lane run over the region's
    clients, and answers the three calls of the §VI round protocol that
    :meth:`EventEngine.execute_sharded` drives.

    Any strategy shards, so the region's node, its neighbour-link profile and
    its announcements exist only when the deployment has a coordinator;
    without one :meth:`segment` reports no announcement and :meth:`round` is
    never called.
    """

    def __init__(self, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_index: int) -> None:
        deployment.store.topology.latency.reseed(
            seed + _SHARD_SEED_TAG * (region_index + 1))
        self._region_index = region_index
        self._strategy = deployment.strategies[region_index]
        self._run = _LaneRun(engine, deployment, seed, [region_index],
                             external_collaboration=True)
        self._node = None
        if deployment.coordinator is not None:
            self._node = self._strategy.node
            self._neighbor_read_ms, self._neighbor_jitter = (
                engine._neighbor_profiles()[self._strategy.client_region])

    def segment(self, boundary: float | None, catalog
                ) -> tuple[int, NeighborAnnouncement | None]:
        """Install the neighbour catalog, then run up to ``boundary``.

        ``catalog`` is the other regions' pinned chunks after a round, keyed
        by owning region (``None`` = unchanged); the lanes then process every
        event strictly before ``boundary`` (``None`` = to completion).
        Returns the requests still pending and the current announcement.
        """
        if catalog is not None:
            self._strategy.set_neighbor_catalog(
                catalog, self._neighbor_read_ms, self._neighbor_jitter
            )
        self._run.run_until(boundary)
        announcement = None if self._node is None else announcement_of(self._node)
        return self._run.remaining_events, announcement

    def round(self, now: float,
              neighbours: list[NeighborAnnouncement]) -> NeighborAnnouncement:
        """Apply this node's share of the §VI round at ``now``.

        :func:`reconfigure_node` against the neighbours' announcements;
        returns the freshly installed configuration's announcement.
        """
        self._run.pause_at(now)
        reconfigure_node(self._node, neighbours, self._neighbor_read_ms)
        return announcement_of(self._node)

    def finish(self) -> RegionRunResult:
        """Close the lane run and wrap it as the region's run result."""
        return self._run.region_result(self._region_index, self._run.finish())


class _LocalShard(_Shard):
    """A :class:`_Shard` over a deep-copied deployment, called directly.

    The in-process transport (``processes=False``): the same object a forked
    worker wraps, run sequentially — which is what makes the forked path's
    bit-identity testable without processes.
    """

    def send(self, method: str, *arguments) -> None:
        self._reply = getattr(self, method)(*arguments)

    def receive(self):
        return self._reply

    def join(self) -> None:
        """Nothing to reap."""

    terminate = join


def _shard_worker(connection, *job) -> None:
    """Body of one forked shard worker: a pipe around a :class:`_Shard`.

    Module-level so the fork start method can run it; the engine and the
    deployment are inherited through fork (copy-on-write), only calls and
    return values travel through the pipe.  Serves ``(method, *arguments)``
    calls until ``finish``; an error is shipped to the parent as the
    exception object itself.
    """
    try:
        shard = _Shard(*job)
        method = None
        while method != "finish":
            method, *arguments = connection.recv()
            connection.send(getattr(shard, method)(*arguments))
    except BaseException as error:  # pragma: no cover - transport for the parent
        try:
            connection.send(error)
        except OSError:  # the parent hung up first
            pass
    finally:
        connection.close()


class _PipeShard:
    """The parent's end of the pipe to one forked :func:`_shard_worker`."""

    def __init__(self, context, engine: "EventEngine", *job) -> None:
        self._connection, worker_end = context.Pipe(duplex=True)
        self._worker = context.Process(target=_shard_worker,
                                       args=(worker_end, engine, *job))
        self._worker.start()
        worker_end.close()
        _deployment, _seed, region_index = job
        self._label = f"region {engine._config.regions[region_index].region!r}"

    def send(self, method: str, *arguments) -> None:
        try:
            self._connection.send((method, *arguments))
        except BrokenPipeError:
            pass  # the worker is gone; receive() reports its error or exit code

    def receive(self):
        try:
            reply = self._connection.recv()
        except EOFError:
            self._worker.join()
            raise RuntimeError(
                f"shard worker of {self._label} died without replying "
                f"(exit code {self._worker.exitcode})") from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def join(self) -> None:
        """Reap the worker (it leaves its loop after answering ``finish``)."""
        self._worker.join()
        self._connection.close()

    def terminate(self) -> None:
        """Abort the worker (error-path cleanup)."""
        if self._worker.is_alive():
            self._worker.terminate()
        self.join()


class EventEngine:
    """Discrete-event simulation of one multi-region deployment.

    Args:
        config: the engine configuration.
        topology: optionally reuse a topology; a fresh calibrated topology is
            created otherwise (with ``config.topology_seed``).
        keep_results: retain every individual :class:`ReadResult` per region
            (memory heavy; useful for time-series analysis and tests).
    """

    def __init__(self, config: EngineConfig, topology: Topology | None = None,
                 keep_results: bool = False) -> None:
        self._config = config
        self._topology = topology or default_topology(seed=config.topology_seed)
        for spec in config.regions:
            self._topology.validate_region(spec.region)
        if config.faults is not None:
            for region in sorted(config.faults.regions()):
                self._topology.validate_region(region)
        self._keep_results = keep_results

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def topology(self) -> Topology:
        """The deployment's topology."""
        return self._topology

    def _neighbor_profiles(self) -> dict[str, tuple[float, float]]:
        """Resolved §VI neighbour-read ``(expected_ms, sigma)`` per region.

        Each region's profile comes from its *nearest* collaboration partner
        (smallest expected neighbour-link latency, name-tiebroken):
        ``config.neighbor_read_ms`` overrides the expectation when it is a
        float, while ``None`` uses the topology-derived per-pair value; the
        jitter σ always comes from the topology's neighbour link, so
        collaborative neighbour reads are jittered exactly like other links.
        Single-region deployments fall back to a flat, jitter-free profile.
        """
        config = self._config
        names = [spec.region for spec in config.regions]
        flat = config.neighbor_read_ms
        profiles: dict[str, tuple[float, float]] = {}
        for region in names:
            partners = [other for other in names if other != region]
            if not partners:
                profiles[region] = (flat if flat is not None else 0.0, 0.0)
                continue
            links = {other: self._topology.neighbor_link(region, other)
                     for other in partners}
            nearest = min(partners, key=lambda other: (links[other].expected_ms, other))
            link = links[nearest]
            expected = link.expected_ms if flat is None else flat
            profiles[region] = (expected, link.sigma)
        return profiles

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def build_deployment(self, payloads: bool = False) -> EngineDeployment:
        """Create the store, clock and one strategy per region.

        Strategies are built in region order, which fixes the order of the
        warm-up probe draws from the shared jitter stream (the determinism
        contract).

        Args:
            payloads: if True, populate the store with real encoded payloads
                instead of virtual (payload-less) chunks.  Placement is
                stateless round-robin, so chunk locations — and therefore
                every strategy decision — are identical either way; the
                serving tier (:mod:`repro.serve`) uses this to serve real
                bytes while staying decision-equivalent to simulated runs.
        """
        config = self._config
        store = ErasureCodedStore(self._topology)
        store.populate(
            object_count=config.workload.object_count,
            object_size=config.workload.object_size,
            key_prefix=config.workload.key_prefix,
            virtual=not payloads,
            seed=config.workload.seed,
        )
        clock = SimulationClock()
        strategies = [make_region_strategy(config, spec, store, clock)
                      for spec in config.regions]

        coordinator = None
        if config.collaboration:
            nodes = [strategy.node for strategy in strategies]
            profiles = self._neighbor_profiles()
            coordinator = CollaborationCoordinator(
                nodes,
                neighbor_read_ms={region: expected
                                  for region, (expected, _sigma) in profiles.items()},
            )
        return EngineDeployment(
            store=store, clock=clock, strategies=strategies, coordinator=coordinator
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, seed: int | None = None) -> EngineResult:
        """Execute one run against a freshly deployed (cold) system.

        Args:
            seed: per-run seed for the request streams, arrival processes and
                latency jitter; defaults to the workload's seed.
        """
        config = self._config
        effective_seed = config.workload.seed if seed is None else seed
        self._topology.latency.reseed(config.topology_seed + effective_seed)
        deployment = self.build_deployment()
        return self.execute(deployment, effective_seed)

    def execute(self, deployment: EngineDeployment, seed: int) -> EngineResult:
        """Replay one set of request streams against an existing deployment.

        The deployment — caches, popularity statistics and the clock —
        persists across calls, which models repeated YCSB runs against a
        long-running system (the paper's warm-cache repetition).

        This is the lane scheduler (see the module docstring), drained to
        completion in one :class:`_LaneRun` over every region.  Event order,
        jitter draws and arithmetic replicate the heap loop of
        ``tests/reference/heap_scheduler.py`` exactly on every supported
        shape, as asserted by ``tests/sim/test_engine_equivalence.py``, and
        ``tests/golden/engine_execute.json`` pins it across versions.
        """
        config = self._config
        run = _LaneRun(self, deployment, seed, range(len(config.regions)))
        run.run_until(None)
        duration = run.finish()
        return EngineResult(
            workload_name=config.workload.name,
            duration_s=duration,
            regions={spec.region: run.region_result(region_index, duration)
                     for region_index, spec in enumerate(config.regions)},
        )

    # ------------------------------------------------------------------ #
    # Lane scheduler (the fast path behind execute / execute_sharded)
    # ------------------------------------------------------------------ #
    def _collaboration_period(self) -> float:
        """Resolved §VI exchange period (config override or the Agar default)."""
        config = self._config
        period = config.collaboration_period_s
        if period is None:
            agar = config.agar or AgarNodeConfig()
            period = agar.reconfiguration_period_s
        return period

    # ------------------------------------------------------------------ #
    # Process-parallel region sharding
    # ------------------------------------------------------------------ #
    def execute_sharded(self, deployment: EngineDeployment, seed: int,
                        processes: bool | None = None) -> EngineResult:
        """Replay one run with one worker per region (fork copy-on-write).

        Regions never share caches — their only shared state is the
        read-only populated store — so each region can run in its own
        process: the parent builds (and populates) the deployment once, forks
        one worker per region, and merges the per-region results.

        Determinism: each shard reseeds its latency model with
        ``seed + _SHARD_SEED_TAG * (region_index + 1)``, so sharded runs are
        bit-reproducible, and the forked path is bit-identical to the
        in-process fallback (``processes=False``) — both run the exact same
        protocol over the same :class:`_Shard`.  They are *not* bit-identical
        to :meth:`execute`, which interleaves all regions through one shared
        jitter stream — an interleaving that cannot be reproduced across
        processes.

        The parent deployment is left untouched (workers mutate copies), so
        sharded runs never warm the caller's caches; per-region durations are
        each shard's own span and the merged ``duration_s`` is their maximum.

        Collaborative (§VI) deployments shard too: their Agar nodes must
        exchange announcements every collaboration period, so the workers run
        their lanes in *segments* between period boundaries.  At each
        boundary ``T``:

        1. every worker pauses having processed all events strictly before
           ``T`` and reports its remaining-request count and current
           announcement;
        2. if any requests remain deployment-wide (the reference scheduler's
           "timers only fire while requests remain" rule), the parent walks
           the regions in order, sending each worker its neighbours' current
           announcements — regions earlier in the round already carry their
           *new* configuration, the staggered-round semantics of
           :meth:`CollaborationCoordinator.reconfigure_all` — and the worker
           applies :func:`reconfigure_node` locally and replies with its new
           announcement;
        3. the workers resume towards ``T + period``.

        The final announcements are installed into the parent deployment's
        coordinator
        (:meth:`~repro.extensions.collaboration.CollaborationCoordinator.install_announcements`),
        so callers can read the run's cache-content overlap via
        ``coordinator.latest_overlap()`` even though the parent's node copies
        stay cold.  A deployment without a coordinator is the zero-round case
        of the same protocol: it has no period, so its one segment has no
        boundary and runs every lane to completion.

        A worker that raises re-raises here, and one that dies without
        replying raises a ``RuntimeError`` naming it; either way every other
        worker is terminated before the error leaves.

        Args:
            deployment: the deployment to shard.
            seed: per-run seed (same meaning as in :meth:`execute`).
            processes: fork one worker per region; ``None`` (default) forks
                whenever the platform supports the fork start method and
                there is more than one region, ``False`` runs the shards
                sequentially in-process against deep copies.
        """
        config = self._config
        coordinator = deployment.coordinator
        period = self._collaboration_period() if coordinator is not None else None
        boundary = deployment.clock.now() + period if period is not None else None
        region_count = len(config.regions)
        if processes is None:
            processes = "fork" in multiprocessing.get_all_start_methods()

        shards: list[_PipeShard | _LocalShard] = []
        announcements: list[NeighborAnnouncement | None] = [None] * region_count
        catalogs: list[dict[str, frozenset] | None] = [None] * region_count
        try:
            if processes and region_count > 1:
                context = multiprocessing.get_context("fork")
                for region_index in range(region_count):
                    shards.append(_PipeShard(context, self, deployment, seed,
                                             region_index))
            else:
                for region_index in range(region_count):
                    shards.append(_LocalShard(self, copy.deepcopy(deployment), seed,
                                              region_index))
            while True:
                for shard, catalog in zip(shards, catalogs):
                    shard.send("segment", boundary, catalog)
                total_remaining = 0
                for region_index, shard in enumerate(shards):
                    remaining, announcements[region_index] = shard.receive()
                    total_remaining += remaining
                if total_remaining == 0:
                    break
                for region_index, shard in enumerate(shards):
                    shard.send("round", boundary,
                               [announcement for other, announcement
                                in enumerate(announcements) if other != region_index])
                    announcements[region_index] = shard.receive()
                # The next segment starts with the round's *final* catalogs
                # (every region's new configuration), matching the in-process
                # engine, which installs catalogs after the whole round.
                pinned = {spec.region: announcement.pinned_chunks
                          for spec, announcement in zip(config.regions, announcements)}
                catalogs = [_neighbor_catalog(pinned, spec.region)
                            for spec in config.regions]
                boundary += period
            # Every worker is asked to finish before any reply is collected,
            # so the workers pickle their results side by side.
            for shard in shards:
                shard.send("finish")
            region_results = [shard.receive() for shard in shards]
        except BaseException:
            for shard in shards:
                shard.terminate()
            raise
        for shard in shards:
            shard.join()

        if coordinator is not None:
            coordinator.install_announcements(announcements)
        return EngineResult(
            workload_name=config.workload.name,
            duration_s=max(result.duration_s for result in region_results),
            regions={result.region: result for result in region_results},
        )

    def run_sharded(self, seed: int | None = None,
                    processes: bool | None = None) -> EngineResult:
        """Build a fresh deployment and execute it region-sharded (cold run)."""
        config = self._config
        effective_seed = config.workload.seed if seed is None else seed
        self._topology.latency.reseed(config.topology_seed + effective_seed)
        deployment = self.build_deployment()
        return self.execute_sharded(deployment, effective_seed, processes=processes)
