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

The previous heap loop is retained verbatim as
:meth:`EventEngine.execute_reference`; the equivalence suite
(``tests/sim/test_engine_equivalence.py``) asserts the lane scheduler is
bit-identical to it on every supported shape.

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
from repro.erasure.chunk import ErasureCodingParams
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
    Request,
    WorkloadSpec,
    generate_request_ranks,
    generate_requests,
)

#: Seed stride between the request streams of concurrent clients.  Client 0
#: uses the run seed itself, which keeps the 1-client engine path on the same
#: stream as the legacy driver.
CLIENT_SEED_STRIDE = 7919

#: Mixed into the per-client Poisson arrival seeds so arrival times are
#: independent of the request streams and the latency jitter.
_ARRIVAL_SEED_TAG = 104729

#: Event priorities: timers fire before request arrivals at equal timestamps,
#: mirroring the legacy behaviour of reconfiguring before the triggering read
#: is recorded into the new period.
_PRIO_TIMER = 0
_PRIO_ARRIVAL = 1

#: How many exponential inter-arrival samples an open-loop lane pre-draws per
#: refill.  Block and scalar draws consume the same per-client bit stream.
_ARRIVAL_BLOCK = 256

#: Mixed into the per-region jitter seeds of sharded execution, so each shard
#: draws from its own deterministic latency-jitter stream.
_SHARD_SEED_TAG = 15485863

#: Mixed into a region's jitter seed per intra-region sub-shard.  Sub-shard 0
#: keeps the region's historical seed, so ``shards=1`` regions stay
#: bit-identical to pre-sharding runs.
_SUBSHARD_SEED_TAG = 32452843

#: Timer kinds of the lane scheduler's residual heap.  Fault transitions are
#: one-shot (never re-pushed) and are pushed before the periodic timers, so at
#: equal timestamps a fault state change precedes a collaboration round or a
#: reconfiguration tick in both schedulers.
_TIMER_COLLAB = 0
_TIMER_REGION = 1
_TIMER_FAULT = 2


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
        shards: how many :meth:`EventEngine.execute_sharded` workers this
            region's clients split across (intra-region sharding for hot
            regions).  Each sub-shard runs a contiguous slice of the region's
            lanes against its own strategy/cache copy and its own derived
            jitter stream, through the same segments and rounds as every
            other shard (sub-shard 0 announces for the region); the region's
            stats merge via ``LatencyStats.merge_all``.  ``1`` (default) is
            bit-identical to pre-sharding behaviour; the unsharded
            ``execute`` / ``execute_reference`` ignore the split entirely.
    """

    region: str
    clients: int = 1
    strategy: str = "agar"
    cache_capacity_bytes: int | None = None
    agar: AgarNodeConfig | None = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.clients <= 0:
            raise ValueError("clients must be positive")
        if self.cache_capacity_bytes is not None and self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive when set")
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.shards > self.clients:
            raise ValueError("shards cannot exceed clients")


@dataclass(frozen=True)
class EngineConfig:
    """Everything one multi-region discrete-event run needs.

    Attributes:
        workload: per-client workload (``request_count`` reads per client).
        regions: the client regions of the deployment.
        cache_capacity_bytes: per-region cache capacity.
        params: erasure-coding parameters (paper: RS(9, 3)).
        client: client latency constants.
        agar: Agar node tunables (``agar`` strategy regions only).
        topology_seed: seed for latency jitter.
        warmup_requests: per-client requests excluded from statistics.
        arrival: arrival process shared by all clients.
        collaboration: wire the regions' Agar nodes through a
            :class:`CollaborationCoordinator` (§VI); requires every region to
            run the ``agar`` strategy and implies timer-driven reconfiguration.
        collaboration_period_s: collaborative exchange period (defaults to the
            Agar reconfiguration period).
        neighbor_read_ms: expected cross-region cache read latency (ms) used
            for §VI neighbour reads and option discounting.  A float applies
            the same flat expectation to every region (the historical
            behaviour); ``None`` derives a per-region expectation from the
            topology's per-pair neighbour links
            (:meth:`~repro.geo.topology.Topology.neighbor_link`, nearest
            collaboration partner).  Either way the neighbour link's jitter σ
            comes from the topology, so neighbour reads draw log-normal
            jitter like any other link.
        timer_reconfiguration: drive periodic reconfiguration from engine
            timer events instead of the read path.  ``None`` (default) picks
            automatically: piggybacked for the 1-region/1-client closed loop
            (bit-compatible with the legacy driver), timer-driven otherwise.
        faults: optional fault schedule (``repro.sim.faults``).  Its state
            transitions become one-shot timer events consumed identically by
            :meth:`EventEngine.execute`, :meth:`EventEngine.execute_reference`
            and :meth:`EventEngine.execute_sharded`; schedule times are
            relative to each run's start.
    """

    workload: WorkloadSpec
    regions: tuple[RegionSpec, ...]
    cache_capacity_bytes: int = 10 * 1024 * 1024
    params: ErasureCodingParams = ErasureCodingParams(9, 3)
    client: ClientConfig = ClientConfig()
    agar: AgarNodeConfig | None = None
    topology_seed: int = 0
    warmup_requests: int = 0
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
        if self.warmup_requests < 0:
            raise ValueError("warmup_requests must be non-negative")
        if self.neighbor_read_ms is not None and self.neighbor_read_ms < 0:
            raise ValueError("neighbor_read_ms must be non-negative (or None)")

    @property
    def total_clients(self) -> int:
        """Concurrent clients across all regions."""
        return sum(spec.clients for spec in self.regions)

    @property
    def is_legacy_shape(self) -> bool:
        """True for the 1-region/1-client closed loop without collaboration."""
        return (len(self.regions) == 1 and self.regions[0].clients == 1
                and not self.arrival.is_open_loop and not self.collaboration)

    @property
    def uses_timer_reconfiguration(self) -> bool:
        """Resolved reconfiguration mode (see ``timer_reconfiguration``)."""
        if self.collaboration:
            return True
        if self.timer_reconfiguration is not None:
            return self.timer_reconfiguration
        return not self.is_legacy_shape


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


class _ClientState:
    """One client's request stream and (for open loop) arrival generator.

    Used only by :meth:`EventEngine.execute_reference`; the lane scheduler
    keeps client state in parallel arrays instead.
    """

    __slots__ = ("region_index", "requests", "next_index", "arrival_rng")

    def __init__(self, region_index: int, requests: list[Request],
                 arrival_rng: np.random.Generator | None) -> None:
        self.region_index = region_index
        self.requests = requests
        self.next_index = 0
        self.arrival_rng = arrival_rng


@dataclass
class _LaneOutcome:
    """What one lane-scheduler pass produces, keyed by region index."""

    stats: dict[int, LatencyStats]
    kept: dict[int, list[ReadResult]]
    duration: float


class _LaneRun:
    """One resumable lane-scheduler pass over a subset of a deployment.

    This is the state of :meth:`EventEngine._run_lanes` lifted into an object
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
    :meth:`EventEngine._run_lanes` does not — suppresses the in-loop
    collaboration timer; the caller drives the rounds between
    :meth:`run_until` calls instead (the residual timer heap then holds only
    the one-shot fault transitions, if any — collaborative deployments have
    no per-region reconfiguration timers).  Without a coordinator there is no
    such timer and the flag changes nothing.  A fault transition landing
    exactly on a segment boundary ``T`` stays pending at the pause and fires
    attached to the next segment's first arrival at or after ``T`` — the same
    state every read at time ≥ ``T`` would see in-process.
    """

    def __init__(self, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_indices, *,
                 external_collaboration: bool = False,
                 lane_shard: tuple[int, int] | None = None) -> None:
        config = engine._config
        self._deployment = deployment
        self._config = config
        self._keep = engine._keep_results
        clock = deployment.clock
        self._clock = clock
        strategies = deployment.strategies
        arrival = config.arrival
        self._open_loop = arrival.is_open_loop
        timer_mode = config.uses_timer_reconfiguration
        self._warmup = config.warmup_requests
        workload = config.workload
        self.start = clock.now()

        region_indices = list(region_indices)
        self.region_indices = region_indices
        selected = set(region_indices)

        # Shared key space; per-key plans are interned lazily on first read.
        keys = [workload.key_for_rank(rank) for rank in range(workload.object_count)]
        for region_index in region_indices:
            strategies[region_index].prepare_indexed_reads(keys)

        per_client_requests = workload.request_count
        self.region_stats = {
            region_index: LatencyStats(
                capacity=max(config.regions[region_index].clients * per_client_requests, 1)
            )
            for region_index in region_indices
        }
        self.region_kept: dict[int, list[ReadResult]] = {
            region_index: [] for region_index in region_indices
        }

        # Struct-of-arrays lanes.  Ranks are plain Python lists (fastest
        # scalar indexing); next-event times live in a float64 array for the
        # vectorized ready-set extraction.  Open-loop lanes draw exponential
        # blocks per client lazily on first use (a million closed-loop lanes
        # allocate no arrival state at all, and a million open-loop lanes no
        # per-lane empties).
        lane_region: list[int] = []
        self.lane_ranks: list[list[int]] = []
        self.lane_rng: list[np.random.Generator] = []
        self.lane_block: list[list[float] | None] = []
        self.lane_block_pos: list[int] = []
        self.mean_interarrival = arrival.mean_interarrival_s if self._open_loop else 0.0
        # Intra-region sharding: this run owns only the contiguous
        # [low, high) slice of each selected region's clients.  Global client
        # numbering is unchanged, so a lane replays the same request and
        # arrival streams regardless of which sub-shard runs it.
        shard_index, shard_count = lane_shard if lane_shard is not None else (0, 1)
        global_index = 0
        for region_index, spec in enumerate(config.regions):
            low = shard_index * spec.clients // shard_count
            high = (shard_index + 1) * spec.clients // shard_count
            for position in range(spec.clients):
                client_index = global_index
                global_index += 1
                if region_index not in selected or not low <= position < high:
                    continue
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

        self.next_time = np.empty(max(lanes, 1), dtype=np.float64)
        if self._open_loop:
            for lane in range(lanes):
                self.next_time[lane] = self.start + self._next_interarrival(lane)
        else:
            self.next_time[:lanes] = self.start

        # Residual priority structure: the deployment's few periodic timers
        # plus the one-shot fault transitions.
        self.timer_heap: list[tuple[float, int, int, int, float]] = []
        self.timer_seq = 0

        # Fault schedule: install the state at t=0 and push one one-shot
        # timer per transition.  Pushed before the periodic timers (lower
        # seq), and unconditionally — faults fire in piggyback/legacy
        # reconfiguration mode too.  Each entry's region_index slot carries
        # the transition index instead.
        self._fault_states: tuple[FaultState, ...] = ()
        self._fault_targets = [strategies[region_index].set_fault_state
                               for region_index in region_indices]
        # Fault *reaction* hooks fire after every install (initial state and
        # each transition) so fault-reactive reconfiguration sees onset and
        # recovery alike.  The hook consumes no latency-model draws, so
        # per-shard invocation (only this run's regions) stays bit-identical.
        self._react_targets = [strategies[region_index].react_to_fault
                               for region_index in region_indices]
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
                heapq.heappush(
                    self.timer_heap,
                    (self.start + offset, self.timer_seq, _TIMER_FAULT, index, 0.0),
                )
                self.timer_seq += 1

        self._neighbor_profiles = (engine._neighbor_profiles()
                                   if deployment.coordinator is not None else None)
        if timer_mode:
            for region_index in region_indices:
                strategies[region_index].set_external_reconfiguration(True)
            if deployment.coordinator is not None:
                if not external_collaboration:
                    period = engine._collaboration_period()
                    heapq.heappush(
                        self.timer_heap,
                        (self.start + period, self.timer_seq, _TIMER_COLLAB, -1, period),
                    )
                    self.timer_seq += 1
            else:
                for region_index in region_indices:
                    period = strategies[region_index].reconfiguration_period_s
                    if period is not None:
                        heapq.heappush(
                            self.timer_heap,
                            (self.start + period, self.timer_seq, _TIMER_REGION,
                             region_index, period),
                        )
                        self.timer_seq += 1

        # Per-region bound callables reached through the lane's region index:
        # a few bound methods per deployment instead of three per lane (at a
        # million lanes the per-lane bound-method lists alone cost hundreds of
        # megabytes), at the price of one extra list index per event.
        self.lane_region = lane_region
        region_count = len(config.regions)
        self.region_read: list = [None] * region_count
        self.region_record: list = [None] * region_count
        self.region_kept_lists: list = [None] * region_count
        for region_index in region_indices:
            strategy = strategies[region_index]
            self.region_read[region_index] = strategy.read_indexed
            self.region_record[region_index] = self.region_stats[region_index].record
            self.region_kept_lists[region_index] = self.region_kept[region_index]
        self.lane_pos = [0] * lanes
        self.lane_end = [len(ranks) for ranks in self.lane_ranks]

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
        self.lane_schedule_seq = list(range(lanes)) if self.guard_ties else None
        self.schedule_counter = lanes

        # Wave dispatch (closed loop, jittered topologies): every read costs
        # at least the client overhead, so arrivals inside
        # [m, m + overhead) can never be rescheduled back into that window —
        # the window is a sorted one-shot "wave" needing no drain heap at
        # all.  When on top of that every selected strategy composes reads
        # statelessly (backend reads never probe a cache and consume exactly
        # one jitter draw per fetched chunk on a fully jittered topology),
        # the whole wave's draws collapse into one batched sample and the
        # reads into one grouped compose per region.
        self._min_gap = (0.0 if self._open_loop
                         else config.client.overhead_ms / 1000.0)
        self._selected_strategies = [strategies[region_index]
                                     for region_index in region_indices]
        self._latency_model = deployment.store.topology.latency
        self.region_batch: list = [None] * region_count
        self.region_batch_latencies: list = [None] * region_count
        self.region_record_block: list = [None] * region_count
        # Resilient reads (retry budgets, hedging) draw a variable number of
        # jitter samples per read, so the fixed draws-per-read batching below
        # is not set up for them; per-event wave dispatch stays valid because
        # a resilient read still costs at least the client overhead.
        self._draws_per_read = 0
        if (not self.guard_ties and not self._open_loop and self._min_gap > 0.0
                and all(strategy.supports_indexed_batch
                        for strategy in self._selected_strategies)
                and not any(strategy.resilience_active
                            for strategy in self._selected_strategies)):
            self._draws_per_read = deployment.store.params.data_chunks
            for region_index in region_indices:
                strategy = strategies[region_index]
                self.region_batch[region_index] = strategy.compose_indexed_batch
                self.region_batch_latencies[region_index] = (
                    strategy.compose_indexed_batch_latencies
                )
                self.region_record_block[region_index] = (
                    self.region_stats[region_index].record_miss_block
                )

        self.remaining = lanes
        self.last_completion = self.start

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
        cross-lane interaction point), capped by ``limit`` — and extracts
        every lane whose next event falls strictly inside it in one
        vectorized mask over ``next_time``.  The block drains through a small
        local heap: arrivals rescheduled inside the horizon re-enter it,
        later ones just update ``next_time`` for the next step.  Event times
        are monotone non-decreasing (a closed-loop completion is never before
        its arrival, an open-loop gap never negative), so no lane outside the
        block can produce an event inside the horizon and the global event
        order — and with it every jitter draw — is exactly the reference
        scheduler's.  A timer-free run drains in a single block; per-event
        work drops from an O(lanes) ``argmin`` to an O(log block) heap pop.
        """
        deployment = self._deployment
        clock = self._clock
        strategies = deployment.strategies
        open_loop = self._open_loop
        warmup = self._warmup
        keep = self._keep
        horizon = math.inf if limit is None else limit

        next_time = self.next_time
        timer_heap = self.timer_heap
        timer_seq = self.timer_seq
        fault_states = self._fault_states
        fault_targets = self._fault_targets
        react_targets = self._react_targets
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
        minimum = next_time.min
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapify = heapq.heapify
        infinity = math.inf
        min_gap = self._min_gap
        use_waves = min_gap > 0.0 and not guard_ties
        draws_per_read = self._draws_per_read
        selected_strategies = self._selected_strategies
        latency_model = self._latency_model
        region_batch = self.region_batch
        region_batch_latencies = self.region_batch_latencies
        region_record_block = self.region_record_block
        single_region = len(self.region_indices) == 1
        only_region = self.region_indices[0] if single_region else -1

        while remaining:
            block_start = float(minimum())
            if block_start >= horizon:
                break
            # Timers due before (or exactly at) the next arrival fire first —
            # the reference's (time, priority, seq) order with _PRIO_TIMER 0.
            while timer_heap and timer_heap[0][0] <= block_start:
                timer_time, _seq, kind, region_index, period = heappop(timer_heap)
                clock._now_s = timer_time
                if kind == _TIMER_FAULT:
                    # One-shot fault transition (region_index carries the
                    # transition index): install and do not re-push.
                    state = fault_states[region_index]
                    for install in fault_targets:
                        install(state)
                    for react in react_targets:
                        react(timer_time)
                    continue
                if kind == _TIMER_COLLAB:
                    deployment.coordinator.reconfigure_all(timer_time)
                    _install_neighbor_catalogs(deployment, self._neighbor_profiles)
                else:
                    strategies[region_index].tick(timer_time)
                heappush(timer_heap, (timer_time + period, timer_seq, kind, region_index, period))
                timer_seq += 1

            # Safe horizon of this block: every arrival strictly before the
            # earliest pending timer (all due ones just fired, so the heap
            # top is > block_start) can be processed without a lane/timer
            # interaction; the run limit caps it further.
            block_end = timer_heap[0][0] if timer_heap else horizon
            if block_end > horizon:
                block_end = horizon

            if use_waves:
                # Closed-loop wave: a read's completion lands at least
                # min_gap (= client overhead, the latency floor on every
                # path, faults included) after its arrival, so nothing
                # dispatched inside [block_start, block_start + min_gap) can
                # be rescheduled back into that window.  Sort the window's
                # arrivals once — ties keep ascending lane order, exactly the
                # drain heap's (time, lane) rule — and process them with no
                # heap at all.
                wave_end = block_start + min_gap
                if wave_end > block_end:
                    wave_end = block_end
                ready = np.flatnonzero(next_time < wave_end)
                unordered_times = next_time[ready]
                order = unordered_times.argsort(kind="stable")
                times_arr = unordered_times[order]
                wave_order = ready[order]
                wave_lanes = wave_order.tolist()
                wave_ranks = [lane_ranks[lane][lane_pos[lane]]
                              for lane in wave_lanes]

                if draws_per_read and not any(
                        strategy._faulted for strategy in selected_strategies):
                    # Stateless wave: one batched jitter sample for the whole
                    # wave (the stream is shared across regions, so it must
                    # be taken once, in global event order), then one grouped
                    # compose per region.  Records land in per-region stats,
                    # whose order each region's ascending row subset
                    # preserves.
                    count = len(wave_lanes)
                    draws = latency_model.take_standard_normals_array(
                        draws_per_read * count).reshape(count, draws_per_read)
                    if single_region:
                        region_groups = [(only_region, None)]
                    else:
                        rows_by_region: dict[int, list[int]] = {}
                        for row, lane in enumerate(wave_lanes):
                            rows_by_region.setdefault(
                                lane_region[lane], []).append(row)
                        region_groups = list(rows_by_region.items())
                    for region_index, rows in region_groups:
                        if rows is None:
                            row_order = wave_order
                            row_lanes = wave_lanes
                            row_ranks = wave_ranks
                            row_times = times_arr
                            row_draws = draws
                        else:
                            row_order = wave_order[rows]
                            row_lanes = [wave_lanes[row] for row in rows]
                            row_ranks = [wave_ranks[row] for row in rows]
                            row_times = times_arr[rows]
                            row_draws = draws[rows]
                        if keep:
                            # Kept runs need the full ReadResults anyway;
                            # record and collect them per event.
                            times_list = row_times.tolist()
                            results = region_batch[region_index](
                                row_ranks, times_list, row_draws)
                            record = region_record[region_index]
                            kept_list = region_kept[region_index]
                            upcoming_times = []
                            schedule = upcoming_times.append
                            for result, lane, event_time in zip(
                                    results, row_lanes, times_list):
                                completion = event_time + result.latency_ms / 1000.0
                                if completion > last_completion:
                                    last_completion = completion
                                position = lane_pos[lane]
                                if position >= warmup:
                                    record(result)
                                kept_list.append(result)
                                position += 1
                                lane_pos[lane] = position
                                if position < lane_end[lane]:
                                    schedule(completion)
                                else:
                                    schedule(infinity)
                                    remaining -= 1
                            next_time[row_order] = upcoming_times
                            continue
                        # No kept results: every read is a uniform backend
                        # miss, so stats collapse into one block record and
                        # the completions vectorize.
                        latencies = region_batch_latencies[region_index](
                            row_ranks, row_draws)
                        completions = row_times + np.asarray(latencies) / 1000.0
                        top = completions.max()
                        if top > last_completion:
                            last_completion = float(top)
                        next_time[row_order] = completions
                        if warmup:
                            recorded = []
                            recorded_append = recorded.append
                            for lane, latency_ms in zip(row_lanes, latencies):
                                position = lane_pos[lane]
                                if position >= warmup:
                                    recorded_append(latency_ms)
                                position += 1
                                lane_pos[lane] = position
                                if position == lane_end[lane]:
                                    next_time[lane] = infinity
                                    remaining -= 1
                        else:
                            recorded = latencies
                            for lane in row_lanes:
                                position = lane_pos[lane] + 1
                                lane_pos[lane] = position
                                if position == lane_end[lane]:
                                    next_time[lane] = infinity
                                    remaining -= 1
                        region_record_block[region_index](
                            recorded, draws_per_read)
                    clock._now_s = float(times_arr[-1])
                else:
                    upcoming_times = []
                    schedule = upcoming_times.append
                    for lane, event_time, rank in zip(
                            wave_lanes, times_arr.tolist(), wave_ranks):
                        clock._now_s = event_time
                        region_index = lane_region[lane]
                        result = region_read[region_index](rank, event_time)
                        completion = event_time + result.latency_ms / 1000.0
                        if completion > last_completion:
                            last_completion = completion
                        position = lane_pos[lane]
                        if position >= warmup:
                            region_record[region_index](result)
                        if keep:
                            region_kept[region_index].append(result)
                        position += 1
                        lane_pos[lane] = position
                        if position < lane_end[lane]:
                            schedule(completion)
                        else:
                            schedule(infinity)
                            remaining -= 1
                    # Nothing is rescheduled into its own wave, so nothing
                    # has read next_time since the extraction: one store per
                    # wave (as above), not one NumPy scalar store per event.
                    next_time[wave_order] = upcoming_times
                continue

            ready = np.flatnonzero(next_time < block_end)
            ready_list = ready.tolist()
            ready_times = next_time[ready].tolist()
            # Batched rank lookup for the block's due events.
            block_ranks = [lane_ranks[lane][lane_pos[lane]] for lane in ready_list]

            # Drain the block in exact event order through a local heap.
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
            heapify(local)
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
                position = lane_pos[lane]
                if position >= warmup:
                    region_record[region_index](result)
                if keep:
                    region_kept[region_index].append(result)
                position += 1
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

        self.timer_seq = timer_seq
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

    def finish(self) -> _LaneOutcome:
        """Close the run: final clock advance, duration, collected outcome."""
        clock = self._clock
        end = clock.now()
        if self.last_completion > end:
            end = self.last_completion
        clock.advance_to(end)
        return _LaneOutcome(
            stats=self.region_stats, kept=self.region_kept, duration=end - self.start
        )


def _subshard_jitter_seed(seed: int, region_index: int, shard_index: int) -> int:
    """Deterministic jitter seed of one ``(region, sub-shard)`` job.

    Sub-shard 0 keeps the region's per-region seed, so single-shard regions
    reproduce pre-sharding runs bit-exactly.
    """
    return (seed + _SHARD_SEED_TAG * (region_index + 1)
            + _SUBSHARD_SEED_TAG * shard_index)


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
    announcements = deployment.coordinator.announcements()
    by_region = {a.region: a.pinned_chunks for a in announcements}
    for strategy in deployment.strategies:
        catalog = {region: pinned for region, pinned in by_region.items()
                   if region != strategy.client_region}
        expected_ms, sigma = profiles[strategy.client_region]
        strategy.set_neighbor_catalog(catalog, expected_ms, sigma)


class _Shard:
    """One ``(region, sub-shard)`` job of sharded execution.

    Owns everything a shard does to its private deployment — a forked
    worker's copy-on-write inheritance or a deep copy (both mutate only their
    own copy, bit-identically): it reseeds the latency model with the
    sub-shard's jitter seed, builds the resumable lane run over the region's
    ``shard_index``-th contiguous client slice, and answers the three calls of
    the §VI round protocol that :meth:`EventEngine.execute_sharded` drives.

    Any strategy shards, so the region's node, its neighbour-link profile and
    its announcements exist only when the deployment has a coordinator;
    without one :meth:`segment` reports no announcement and :meth:`round` is
    never called.
    """

    def __init__(self, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_index: int, shard_index: int,
                 shard_count: int) -> None:
        deployment.store.topology.latency.reseed(
            _subshard_jitter_seed(seed, region_index, shard_index)
        )
        self._engine = engine
        self._deployment = deployment
        self._region_index = region_index
        self._strategy = deployment.strategies[region_index]
        self._run = _LaneRun(engine, deployment, seed, [region_index],
                             external_collaboration=True,
                             lane_shard=(shard_index, shard_count))
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
        return self._engine._region_result(
            self._deployment, self._region_index, self._run.finish())


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
        _deployment, _seed, region_index, shard_index, _shard_count = job
        self._label = (f"region {engine._config.regions[region_index].region!r} "
                       f"sub-shard {shard_index}")

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
        store = ErasureCodedStore(self._topology, params=config.params)
        store.populate(
            object_count=config.workload.object_count,
            object_size=config.workload.object_size,
            key_prefix=config.workload.key_prefix,
            virtual=not payloads,
            seed=config.workload.seed,
        )
        clock = SimulationClock()
        strategies = [
            make_strategy(
                spec.strategy,
                store=store,
                client_region=spec.region,
                cache_capacity_bytes=(
                    spec.cache_capacity_bytes
                    if spec.cache_capacity_bytes is not None
                    else config.cache_capacity_bytes
                ),
                clock=clock,
                client_config=config.client,
                node_config=spec.agar if spec.agar is not None else config.agar,
            )
            for spec in config.regions
        ]

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

        This is the lane-scheduler fast path (see the module docstring); it
        is bit-identical to :meth:`execute_reference` on every supported
        shape, as asserted by ``tests/sim/test_engine_equivalence.py``.
        """
        outcome = self._run_lanes(deployment, seed, range(len(self._config.regions)))
        return self._assemble_result(deployment, outcome)

    def execute_reference(self, deployment: EngineDeployment, seed: int) -> EngineResult:
        """The PR 2 heap loop, retained verbatim as the reference scheduler.

        One global binary heap over ``(time, priority, seq, payload)`` tuples,
        one :class:`Request` object per read.  :meth:`execute` must reproduce
        this bit-for-bit; the equivalence suite compares the two on every
        supported shape, the same way the engine originally proved itself
        against the pre-engine closed loop.  (One semantic addition since the
        PR 2 loop: collaborative rounds install the §VI neighbour catalogs —
        applied to both schedulers in lockstep.)
        """
        config = self._config
        clock = deployment.clock
        strategies = deployment.strategies
        arrival = config.arrival
        timer_mode = config.uses_timer_reconfiguration
        warmup = config.warmup_requests
        keep = self._keep_results
        start = clock.now()

        # Per-region statistics, preallocated for the expected request count.
        per_client_requests = config.workload.request_count
        region_stats = [
            LatencyStats(capacity=max(spec.clients * per_client_requests, 1))
            for spec in config.regions
        ]
        region_kept: list[list[ReadResult]] = [[] for _ in config.regions]
        last_completion = start

        # Client request streams (region-major numbering; client 0 replays the
        # legacy driver's stream for the same seed).
        clients: list[_ClientState] = []
        for region_index, spec in enumerate(config.regions):
            for _ in range(spec.clients):
                global_index = len(clients)
                stream_seed = seed + CLIENT_SEED_STRIDE * global_index
                requests = generate_requests(config.workload, seed=stream_seed)
                arrival_rng = None
                if arrival.is_open_loop:
                    arrival_rng = np.random.default_rng(
                        (seed, _ARRIVAL_SEED_TAG, global_index)
                    )
                clients.append(_ClientState(region_index, requests, arrival_rng))

        # Event queue: (time, priority, insertion seq, payload).
        heap: list[tuple[float, int, int, tuple]] = []
        seq = 0

        def push(time_s: float, priority: int, payload: tuple) -> None:
            nonlocal seq
            heapq.heappush(heap, (time_s, priority, seq, payload))
            seq += 1

        outstanding = 0
        mean_interarrival = arrival.mean_interarrival_s if arrival.is_open_loop else 0.0
        for global_index, state in enumerate(clients):
            if not state.requests:
                continue
            outstanding += len(state.requests)
            if arrival.is_open_loop:
                first = start + state.arrival_rng.exponential(mean_interarrival)
            else:
                first = start
            push(first, _PRIO_ARRIVAL, ("arrival", global_index))

        # Fault schedule: initial state now, one one-shot priority-0 event
        # per transition.  Pushed before the periodic timers so equal-time
        # ties resolve fault-first, matching the lane scheduler's heap order.
        fault_states: tuple[FaultState, ...] = ()
        faults = config.faults
        if faults is not None and not faults.is_empty:
            initial = faults.initial_state
            for strategy in strategies:
                strategy.set_fault_state(initial)
            for strategy in strategies:
                strategy.react_to_fault(start)
            transitions = faults.transitions
            fault_states = tuple(state for _, state in transitions)
            for index, (offset, _state) in enumerate(transitions):
                push(start + offset, _PRIO_TIMER, ("fault", index))

        # Periodic timers: either one collaborative exchange for the whole
        # deployment, or one reconfiguration timer per region with periodic
        # work.  In timer mode the strategies' own period checks are disabled.
        neighbor_profiles = (self._neighbor_profiles()
                             if deployment.coordinator is not None else None)
        if timer_mode:
            for strategy in strategies:
                strategy.set_external_reconfiguration(True)
            if deployment.coordinator is not None:
                period = config.collaboration_period_s
                if period is None:
                    agar = config.agar or AgarNodeConfig()
                    period = agar.reconfiguration_period_s
                push(start + period, _PRIO_TIMER, ("collab", period))
            else:
                for region_index, strategy in enumerate(strategies):
                    period = strategy.reconfiguration_period_s
                    if period is not None:
                        push(start + period, _PRIO_TIMER, ("reconfig", region_index, period))

        advance_to = clock.advance_to
        while heap:
            time_s, _priority, _seq, payload = heapq.heappop(heap)
            kind = payload[0]
            if kind == "arrival":
                global_index = payload[1]
                state = clients[global_index]
                request = state.requests[state.next_index]
                state.next_index += 1
                region_index = state.region_index
                advance_to(time_s)
                result = strategies[region_index].read(request.key, now=time_s)
                completion = time_s + result.latency_ms / 1000.0
                if completion > last_completion:
                    last_completion = completion
                if request.sequence >= warmup:
                    region_stats[region_index].record(result)
                if keep:
                    region_kept[region_index].append(result)
                outstanding -= 1
                if state.next_index < len(state.requests):
                    if arrival.is_open_loop:
                        next_time = time_s + state.arrival_rng.exponential(mean_interarrival)
                    else:
                        next_time = completion
                    push(next_time, _PRIO_ARRIVAL, ("arrival", global_index))
            elif outstanding > 0:
                # Timers only fire (and reschedule) while requests remain.
                advance_to(time_s)
                if kind == "fault":
                    # One-shot fault transition: install, never re-push.
                    state = fault_states[payload[1]]
                    for strategy in strategies:
                        strategy.set_fault_state(state)
                    for strategy in strategies:
                        strategy.react_to_fault(time_s)
                elif kind == "collab":
                    period = payload[1]
                    deployment.coordinator.reconfigure_all(time_s)
                    _install_neighbor_catalogs(deployment, neighbor_profiles)
                    push(time_s + period, _PRIO_TIMER, ("collab", period))
                else:
                    region_index, period = payload[1], payload[2]
                    strategies[region_index].tick(time_s)
                    push(time_s + period, _PRIO_TIMER, ("reconfig", region_index, period))

        end = max(clock.now(), last_completion)
        advance_to(end)
        duration = end - start

        regions: dict[str, RegionRunResult] = {}
        for region_index, spec in enumerate(config.regions):
            regions[spec.region] = RegionRunResult(
                region=spec.region,
                strategy=spec.strategy,
                clients=spec.clients,
                stats=region_stats[region_index],
                duration_s=duration,
                cache_snapshot=strategies[region_index].cache_snapshot(),
                results=region_kept[region_index],
            )
        return EngineResult(
            workload_name=config.workload.name,
            duration_s=duration,
            regions=regions,
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

    def _run_lanes(self, deployment: EngineDeployment, seed: int,
                   region_indices) -> _LaneOutcome:
        """Run the lane scheduler over the clients of ``region_indices``.

        Every client is one lane with at most one outstanding event; the next
        event is the ``argmin`` of the per-lane next-event times, with the few
        timer events kept in a small residual heap consulted first.  Global
        client numbering stays region-major over the *full* deployment, so a
        lane replays the same request stream whether it runs in a full
        in-process pass or in a single-region shard.

        Event order, jitter draws and arithmetic replicate
        :meth:`execute_reference` exactly: ties at equal timestamps resolve
        timers-first then insertion order — preserved by the lane layout at
        the start-time collision, and by explicit per-lane schedule sequence
        numbers on topologies where zero-jitter links make exact ties
        systematic — so the two paths are bit-identical.  The loop itself
        lives in :class:`_LaneRun` (resumable for sharded collaboration);
        this wrapper drains one run to completion.
        """
        run = _LaneRun(self, deployment, seed, region_indices)
        run.run_until(None)
        return run.finish()

    def _region_result(self, deployment: EngineDeployment, region_index: int,
                       outcome: _LaneOutcome) -> RegionRunResult:
        """Wrap one region's share of a lane pass as its run result."""
        spec = self._config.regions[region_index]
        return RegionRunResult(
            region=spec.region,
            strategy=spec.strategy,
            clients=spec.clients,
            stats=outcome.stats[region_index],
            duration_s=outcome.duration,
            cache_snapshot=deployment.strategies[region_index].cache_snapshot(),
            results=outcome.kept[region_index],
        )

    def _assemble_result(self, deployment: EngineDeployment,
                         outcome: _LaneOutcome) -> EngineResult:
        """Build the full-deployment :class:`EngineResult` of one lane pass."""
        config = self._config
        return EngineResult(
            workload_name=config.workload.name,
            duration_s=outcome.duration,
            regions={spec.region: self._region_result(deployment, region_index, outcome)
                     for region_index, spec in enumerate(config.regions)},
        )

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

        # One worker per (region, sub-shard): a region with shards > 1 splits
        # its lanes across that many workers (intra-region sharding), each an
        # independent lane slice (own node/cache copies) moving through the
        # same segment/round boundaries; the region's outward announcement is
        # its sub-shard 0's (the designated announcer).
        jobs = [(region_index, shard_index, spec.shards)
                for region_index, spec in enumerate(config.regions)
                for shard_index in range(spec.shards)]

        shards: list[_PipeShard | _LocalShard] = []
        announcements: list[NeighborAnnouncement | None] = [None] * region_count
        catalogs: list[dict[str, frozenset] | None] = [None] * region_count
        try:
            if processes and len(jobs) > 1:
                context = multiprocessing.get_context("fork")
                for job in jobs:
                    shards.append(_PipeShard(context, self, deployment, seed, *job))
            else:
                for job in jobs:
                    shards.append(_LocalShard(self, copy.deepcopy(deployment), seed, *job))
            while True:
                for (region_index, _shard, _count), shard in zip(jobs, shards):
                    shard.send("segment", boundary, catalogs[region_index])
                total_remaining = 0
                for (region_index, shard_index, _count), shard in zip(jobs, shards):
                    remaining, announcement = shard.receive()
                    if shard_index == 0:
                        announcements[region_index] = announcement
                    total_remaining += remaining
                if total_remaining == 0:
                    break
                for region_index in range(region_count):
                    neighbours = [announcements[other] for other in range(region_count)
                                  if other != region_index]
                    for (job_region, shard_index, _count), shard in zip(jobs, shards):
                        if job_region != region_index:
                            continue
                        shard.send("round", boundary, neighbours)
                        announcement = shard.receive()
                        if shard_index == 0:
                            announcements[region_index] = announcement
                # The next segment starts with the round's *final* catalogs
                # (every region's new configuration), matching the in-process
                # engine, which installs catalogs after the whole round —
                # keyed by provenance, like _install_neighbor_catalogs.
                catalogs = [
                    {config.regions[other].region: announcements[other].pinned_chunks
                     for other in range(region_count) if other != region_index}
                    for region_index in range(region_count)
                ]
                boundary += period
            # Every worker is asked to finish before any reply is collected,
            # so the workers pickle their results side by side.
            for shard in shards:
                shard.send("finish")
            shard_results = [shard.receive() for shard in shards]
        except BaseException:
            for shard in shards:
                shard.terminate()
            raise
        for shard in shards:
            shard.join()

        region_results = self._merge_shard_results(jobs, shard_results)
        if coordinator is not None:
            coordinator.install_announcements(announcements)
        return EngineResult(
            workload_name=config.workload.name,
            duration_s=max(result.duration_s for result in region_results),
            regions={result.region: result for result in region_results},
        )

    def _merge_shard_results(self, jobs, shard_results) -> list[RegionRunResult]:
        """Fold per-(region, sub-shard) results into per-region results.

        Stats merge through ``LatencyStats.merge_all`` (one buffer pass),
        kept results concatenate in sub-shard order, the duration is the
        slowest sub-shard's, and the reported cache snapshot is sub-shard
        0's (the sub-shards' caches are independent copies; snapshot-based
        assertions should pin ``shards=1``).
        """
        by_region: dict[int, list[RegionRunResult]] = {}
        for (region_index, _shard_index, _shard_count), result in zip(jobs, shard_results):
            by_region.setdefault(region_index, []).append(result)
        merged: list[RegionRunResult] = []
        for region_index, parts in by_region.items():
            if len(parts) == 1:
                merged.append(parts[0])
                continue
            spec = self._config.regions[region_index]
            merged.append(RegionRunResult(
                region=spec.region,
                strategy=spec.strategy,
                clients=spec.clients,
                stats=LatencyStats.merge_all(part.stats for part in parts),
                duration_s=max(part.duration_s for part in parts),
                cache_snapshot=parts[0].cache_snapshot,
                results=[result for part in parts for result in part.results],
            ))
        return merged

    def run_sharded(self, seed: int | None = None,
                    processes: bool | None = None) -> EngineResult:
        """Build a fresh deployment and execute it region-sharded (cold run)."""
        config = self._config
        effective_seed = config.workload.seed if seed is None else seed
        self._topology.latency.reseed(config.topology_seed + effective_seed)
        deployment = self.build_deployment()
        return self.execute_sharded(deployment, effective_seed, processes=processes)
