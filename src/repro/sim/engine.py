"""The discrete-event simulation core: multi-region, multi-client deployments.

The paper's experiments replay one closed-loop client in one region.  This
engine generalises that loop into a discrete-event simulation: per region,
one event queue over the region's time on the
:class:`~repro.sim.clock.SimulationClock` interleaves

* **request arrivals** — N concurrent clients per region, each replaying its
  own deterministic request stream, either closed-loop (the next request is
  issued when the previous completes, YCSB-style) or open-loop (Poisson
  arrivals at a configurable per-client rate);
* **reconfiguration timers** — per-region cache reconfiguration fires at exact
  period boundaries instead of piggybacking on reads;
* **collaboration rounds** — §VI cache collaboration: at each period
  boundary the regions' Agar nodes exchange contents (the rounds of a
  :class:`~repro.extensions.collaboration.CollaborationCoordinator`) and
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
* each region draws latency jitter from its own stream: region 0 from the
  deployment's stream as it stands (the one :meth:`EventEngine.run` seeds),
  region ``r >= 1`` from one seeded ``seed + _SHARD_SEED_TAG * (r + 1)``;
* a region's events are processed in ``(time, kind, insertion order)``
  order, with timers before arrivals at equal timestamps, so its jitter
  samples are drawn in a deterministic order.

With one region, one closed-loop client, no collaboration and piggybacked
reconfiguration (the automatic default for that shape), the engine reproduces
the pre-engine closed loop (``tests/reference/closed_loop.py``) bit-identically.

Scheduling core (lane scheduler)
--------------------------------

Each client is a *lane*: it has at most one outstanding event at a time (its
next arrival), so a region's queue reduces to one next-event time per lane,
held in a NumPy array — the next event is an ``argmin`` over that array
instead of a heap pop over ``(time, priority, seq, payload)`` tuples.  Client
state is struct-of-arrays (per-lane rank streams from
:func:`generate_request_ranks`, positions, the region's bound read/record
callables) and reads enter the strategy by key index: one
:meth:`~repro.client.strategies.ReadStrategy.read_indexed` per event (the
same read as ``read``, resolved without the key string), or, for the
closed-loop waves of a non-collaborative Agar or backend region, one wave
compose — ``compose_indexed_wave`` for plain reads, ``compose_resilient_wave``
for resilient ones, faulted or not — so the inner loop allocates no tuples
and hashes no key strings.
Open-loop lanes pre-draw exponential inter-arrival blocks from their
per-client generators (block and scalar draws consume the same bit stream).
Timer events (few per region) live in a small residual heap consulted before
each arrival.

Regions share nothing at read time but the read-only store, so each runs
alone: one :class:`_Shard` per region, driven by one segment/round protocol
(:meth:`EventEngine._drive`).  Without a coordinator the protocol is one
segment run to completion; collaborative (§VI) regions run up to each
collaboration-period boundary, exchange :class:`NeighborAnnouncement`s,
apply their share of the coordinator's discount-and-reconfigure round, and
resume (see ``docs/collaboration.md``).  A shard answers either in the
caller's process, swapping its region's stream and clock into the
deployment for each call, or in a forked worker through a pipe
(:class:`_PipeShard`; the populated :class:`ErasureCodedStore` is shared
copy-on-write).  :meth:`EventEngine.execute` keeps region 0 in the caller's
process and forks the others, one core per region, then takes their
strategies back into the caller's deployment;
:meth:`EventEngine.execute_sharded` forks every region and leaves the
caller's deployment cold.  Every mix of the two transports is
bit-identical.

The oracle is the heap loop ``execute_heap`` in
``tests/reference/heap_scheduler.py``, run per region between the same
boundaries: the equivalence suite (``tests/sim/test_engine_equivalence.py``)
asserts the engine is bit-identical to it on every supported shape, and
``tests/golden/engine.json`` pins both entry points across versions.
"""

from __future__ import annotations

import copy
import heapq
import io
import math
import multiprocessing
import pickle
import threading
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

#: Mixed into the per-region jitter seeds: region ``r >= 1`` draws from
#: ``seed + _SHARD_SEED_TAG * (r + 1)``, region 0 from the deployment's stream.
_SHARD_SEED_TAG = 15485863

#: Timer kinds of the lane scheduler's residual heap.  Fault transitions are
#: one-shot (never re-pushed) and are pushed before the periodic timer, so at
#: equal timestamps a fault state change precedes a reconfiguration tick, as
#: in the heap loop of ``tests/reference/heap_scheduler.py``.
_TIMER_REGION = 1
_TIMER_FAULT = 2

#: Smallest wave the batched dispatch takes.  Batching saves ≈ 1.5 µs per read
#: but costs a few µs per wave (the array draw, the block record, one scatter
#: of completions), so smaller waves are cheaper per event.  Measured on 1–512 closed-loop Agar clients over one and two
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
        cache_capacity_bytes: per-region cache capacity override, finite and
            positive; ``None`` uses the deployment-wide
            :attr:`EngineConfig.cache_capacity_bytes` (heterogeneous
            deployments give each region its own size).
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
        capacity = self.cache_capacity_bytes
        if capacity is not None and not (math.isfinite(capacity) and capacity > 0):
            raise ValueError("cache_capacity_bytes must be finite and positive when set")


@dataclass(frozen=True)
class EngineConfig:
    """Everything one multi-region discrete-event run needs.

    Attributes:
        workload: per-client workload (``request_count`` reads per client).
        regions: the client regions of the deployment.
        cache_capacity_bytes: per-region cache capacity, finite and
            non-negative.
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
        if not (math.isfinite(self.cache_capacity_bytes) and self.cache_capacity_bytes >= 0):
            raise ValueError("cache_capacity_bytes must be finite and non-negative")
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
    """One resumable lane-scheduler pass over one region of a deployment.

    :meth:`run_until` processes every event of the region's clients strictly
    before a time limit and returns, leaving all lane state (next-event
    times, rank positions, pre-drawn arrival blocks, tie-guard sequence
    numbers) intact for the next call; ``limit=None`` drains the run to
    completion.  Each region runs in its own :class:`_Shard`, on its own
    jitter stream and clock, so regions never interleave inside a run: they
    meet only in the §VI round the shard protocol drives between
    :meth:`run_until` calls.

    At a segment boundary ``T`` every event with time < T has been processed
    and every event at exactly ``T`` has not, and the timers due before ``T``
    have fired: the round at ``T`` then acts where a timer at ``T`` would,
    after everything earlier and before the arrivals at ``T``.  A fault
    transition landing exactly on ``T`` stays pending and fires attached to
    the next segment's first arrival at or after ``T``.

    Construction runs three phases — :meth:`_build_lanes`,
    :meth:`_schedule_timers`, :meth:`_bind_region` — and :meth:`run_until`
    five, along the engine-event path: :meth:`_fire_timers`, then either
    :meth:`_extract_wave`, a wave read (:meth:`_read_wave_resilient`,
    :meth:`_read_wave_batched` or :meth:`_read_wave_per_event`) and
    :meth:`_land`, or :meth:`_drain_block`.
    Phases are called per wave, per block or per batch of due timers, never
    per event.
    """

    def __init__(self, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_index: int) -> None:
        config = engine._config
        self._config = config
        self._keep = engine._keep_results
        self._clock = deployment.clock
        self._open_loop = config.arrival.is_open_loop
        self.start = self._clock.now()
        self.region_index = region_index
        self._strategy = deployment.strategies[region_index]
        self._collaborative = deployment.coordinator is not None
        self._build_lanes(seed)
        self._schedule_timers()
        self._bind_region(engine, deployment)
        self.remaining = self.lanes
        self.last_completion = self.start
        #: Where the region's own work ended, once a pause found it done.
        self.own_end: float | None = None

    def _build_lanes(self, seed: int) -> None:
        """One lane per client of the region, with its first event.

        Struct-of-arrays lanes.  Ranks are plain Python lists (fastest scalar
        indexing); next-event times live in a float64 array for the
        vectorized ready-set extraction.  Open-loop lanes draw exponential
        blocks per client lazily on first use (a million closed-loop lanes
        allocate no arrival state at all, and a million open-loop lanes no
        per-lane empties).  Client numbering is region-major over the whole
        deployment, so a lane replays the same request and arrival streams
        whichever transport runs its region.
        """
        config = self._config
        workload = config.workload
        # Shared key space; per-key plans are interned lazily on first read.
        self._strategy.prepare_indexed_reads(
            [workload.key_for_rank(rank) for rank in range(workload.object_count)])

        self.lane_ranks: list[list[int]] = []
        self.lane_rng: list[np.random.Generator] = []
        self.lane_block: list[list[float] | None] = []
        self.lane_block_pos: list[int] = []
        self.mean_interarrival = (config.arrival.mean_interarrival_s
                                  if self._open_loop else 0.0)
        first_client = sum(spec.clients
                           for spec in config.regions[:self.region_index])
        for client_index in range(
                first_client, first_client + config.regions[self.region_index].clients):
            ranks = generate_request_ranks(
                workload, seed=seed + CLIENT_SEED_STRIDE * client_index
            )
            if ranks.size == 0:
                continue
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

        lanes = len(self.lane_ranks)
        self.lanes = lanes
        self.lane_pos = [0] * lanes
        self.lane_end = [len(ranks) for ranks in self.lane_ranks]
        self.next_time = np.empty(max(lanes, 1), dtype=np.float64)
        if self._open_loop:
            for lane in range(lanes):
                self.next_time[lane] = self.start + self._next_interarrival(lane)
        else:
            self.next_time[:lanes] = self.start

    def _schedule_timers(self) -> None:
        """The residual timer heap: one-shot fault transitions, then the
        region's periodic reconfiguration timer.

        Fault transitions are pushed before the periodic timer (lower seq),
        and unconditionally — faults fire in piggyback/legacy reconfiguration
        mode too.  The state at t=0 is installed here.  Each fault entry's
        slot carries its transition index.  A collaborative deployment has no
        periodic timer: its rounds run between segments.
        """
        config = self._config
        strategy = self._strategy
        self.timer_heap: list[tuple[float, int, int, int, float]] = []
        self.timer_seq = 0
        self._fault_states: tuple[FaultState, ...] = ()
        faults = config.faults
        if faults is not None and not faults.is_empty:
            strategy.set_fault_state(faults.initial_state)
            # The fault *reaction* hook fires after every install (initial
            # state and each transition) so fault-reactive reconfiguration
            # sees onset and recovery alike.
            strategy.react_to_fault(self.start)
            transitions = faults.transitions
            self._fault_states = tuple(state for _, state in transitions)
            for index, (offset, _state) in enumerate(transitions):
                self._push_timer(self.start + offset, _TIMER_FAULT, index, 0.0)

        if not config.uses_timer_reconfiguration:
            return
        strategy.set_external_reconfiguration(True)
        period = strategy.reconfiguration_period_s
        if not self._collaborative and period is not None:
            self._push_timer(self.start + period, _TIMER_REGION, 0, period)

    def _bind_region(self, engine: "EventEngine",
                     deployment: EngineDeployment) -> None:
        """The region's statistics and bound callables, and the wave dispatch."""
        config = self._config
        strategy = self._strategy
        spec = config.regions[self.region_index]
        self.stats = LatencyStats(
            capacity=max(spec.clients * config.workload.request_count, 1))
        self.kept: list[ReadResult] = []
        self._read = strategy.read_indexed
        self._record = self.stats.record

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
        # all.  When on top of that the strategy's read takes exactly one
        # jitter draw per chunk (backend and Agar reads on a fully jittered
        # topology), the whole wave's draws collapse into one batched sample
        # and the reads into one wave compose and one block record.
        self._min_gap = (0.0 if self._open_loop
                         else config.client.overhead_ms / 1000.0)
        self._use_waves = self._min_gap > 0.0 and not self.guard_ties
        self._latency_model = deployment.store.topology.latency
        # Resilient reads (retry budgets, hedging) draw a variable number of
        # jitter samples per read: their waves go, faulted or not, through
        # one resilient wave compose over one peeked block of the stream.
        # §VI neighbour reads stay per event, which is valid because such a
        # read still costs at least the client overhead.
        self._wave = self._resilient_wave = None
        if (self._use_waves and not self._collaborative
                and strategy.supports_indexed_batch):
            self._chunks_per_read = deployment.store.params.data_chunks
            self._record_block = self.stats.record_block
            if strategy.resilience_active:
                self._resilient_wave = strategy.compose_resilient_wave
            else:
                self._wave = strategy.compose_indexed_wave

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
        work (a collaboration round) happens before them, and after the
        timers due before ``limit``, which fire before the pause while
        requests remain.

        Batched ready-set draining: each step of the outer loop fires the
        timers due at the earliest pending arrival, computes the *safe
        horizon* — the earliest residual timer still pending (the only
        interaction point between lanes), capped by ``limit`` — and processes
        the lanes whose next event falls strictly inside it.  Closed-loop
        lanes on a jittered topology go one wave at a time (see
        :meth:`_extract_wave`); every other shape drains the whole block
        through a small local heap (:meth:`_drain_block`).  Event times are
        monotone non-decreasing (a closed-loop completion is never before its
        arrival, an open-loop gap never negative), so no lane outside the
        block can produce an event inside the horizon and the event order —
        and with it every jitter draw — is exactly the reference scheduler's.
        """
        horizon = math.inf if limit is None else limit
        timer_heap = self.timer_heap
        minimum = self.next_time.min
        use_waves = self._use_waves
        batched = self._wave is not None
        resilient = self._resilient_wave is not None
        strategy = self._strategy

        while self.remaining:
            block_start = float(minimum())
            if block_start >= horizon:
                if timer_heap and timer_heap[0][0] < horizon:
                    self._fire_timers(math.nextafter(horizon, -math.inf))
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
            if resilient:
                self._read_wave_resilient(lanes, times, ranks)
            elif batched and len(lanes) >= _BATCH_MIN_READS and not strategy._faulted:
                self._read_wave_batched(lanes, times, ranks)
            else:
                self._read_wave_per_event(lanes, times, ranks)

    def _fire_timers(self, until: float) -> None:
        """Fire every timer due at or before ``until``, in heap order.

        A fault transition installs its state and is not re-pushed; the
        periodic reconfiguration timer ticks the strategy and pushes its next
        occurrence.
        """
        timer_heap = self.timer_heap
        strategy = self._strategy
        clock = self._clock
        while timer_heap and timer_heap[0][0] <= until:
            timer_time, _seq, kind, slot, period = heapq.heappop(timer_heap)
            clock._now_s = timer_time
            if kind == _TIMER_FAULT:
                strategy.set_fault_state(self._fault_states[slot])
                strategy.react_to_fault(timer_time)
                continue
            strategy.tick(timer_time)
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
        """Read a wave with one jitter sample, one wave compose and one block
        record, and land it."""
        count = len(lanes)
        draws_per_read = self._chunks_per_read
        draws = self._latency_model.take_standard_normals_array(
            draws_per_read * count).reshape(count, draws_per_read)
        clock = self._clock
        latencies, cached = self._wave(ranks, times, draws, clock,
                                       self.kept if self._keep else None)
        self._record_block(latencies, cached, draws_per_read)
        self._land(lanes, times, latencies)
        clock._now_s = times[-1]

    def _read_wave_resilient(self, lanes: list[int], times: list[float],
                             ranks: list[int]) -> None:
        """Read a wave of resilient reads with one peeked jitter block, one
        wave compose and one block record, and land it."""
        latencies, recorded, cached, tallies = self._resilient_wave(
            ranks, times, self._clock, self.kept if self._keep else None)
        self._record_block(recorded, cached, self._chunks_per_read, *tallies)
        self._land(lanes, times, latencies)

    def _read_wave_per_event(self, lanes: list[int], times: list[float],
                             ranks: list[int]) -> None:
        """Read a wave one ``read_indexed`` at a time, then land it."""
        clock = self._clock
        read = self._read
        record = self._record
        kept = self.kept
        keep = self._keep
        latencies: list[float] = []
        add_latency = latencies.append
        for event_time, rank in zip(times, ranks):
            clock._now_s = event_time
            result = read(rank, event_time)
            record(result)
            if keep:
                kept.append(result)
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
        read = self._read
        record = self._record
        kept = self.kept
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
            result = read(entry[-1], event_time)
            completion = event_time + result.latency_ms / 1000.0
            if completion > last_completion:
                last_completion = completion
            record(result)
            if keep:
                kept.append(result)
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

        A region whose clients are all done still takes part in the rounds
        that follow, but idles through them: its span ends where its own
        work did, at the first pause after its last read.
        """
        clock = self._clock
        if not self.remaining and self.own_end is None:
            self.own_end = max(clock.now(), self.last_completion)
        if boundary > clock.now():
            clock._now_s = boundary

    def finish(self) -> RegionRunResult:
        """Close the run with a final clock advance; its region's result,
        over the region's own span."""
        clock = self._clock
        end = clock.now()
        if self.last_completion > end:
            end = self.last_completion
        clock.advance_to(end)
        if self.own_end is not None:
            end = self.own_end
        spec = self._config.regions[self.region_index]
        return RegionRunResult(
            region=spec.region,
            strategy=spec.strategy,
            clients=spec.clients,
            stats=self.stats,
            duration_s=end - self.start,
            cache_snapshot=self._strategy.cache_snapshot(),
            results=self.kept,
        )


def _can_fork() -> bool:
    """True where regions may run in forked workers: the platform has the
    fork start method, this process may have children (a daemonic
    ``multiprocessing`` worker may not) and it runs no other thread (a
    fork copies a lock another thread holds, held, into the child)."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1)


def _neighbor_catalog(pinned: dict[str, frozenset], region: str
                      ) -> dict[str, frozenset]:
    """The chunks every region but ``region`` pins, keyed by that region."""
    return {owner: chunks for owner, chunks in pinned.items() if owner != region}


class _Shard:
    """One region's job in the segment/round protocol.

    Owns the region's jitter stream, its clock and its resumable lane run,
    and answers the three calls of the §VI round protocol that
    :meth:`EventEngine._drive` issues.  Region 0 draws from the stream the
    deployment holds (``run()``'s stream, so a one-region run is the plain
    lane scheduler); region ``r >= 1`` from one reseeded with
    ``seed + _SHARD_SEED_TAG * (r + 1)``.

    :meth:`call` swaps the region's stream and clock into the deployment for
    the length of one call and takes them back out afterwards, so shards
    sharing one deployment (in the caller's process) run exactly as shards
    with one deployment copy each (forked workers, where the swap puts back
    what is already there).

    Any strategy shards, so the region's node, its neighbour-link profile and
    its announcements exist only when the deployment has a coordinator;
    without one :meth:`segment` reports no announcement and :meth:`round` is
    never called.
    """

    def __init__(self, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_index: int) -> None:
        self._latency = deployment.store.topology.latency
        self._clock = deployment.clock
        if region_index:
            self._latency.reseed(seed + _SHARD_SEED_TAG * (region_index + 1))
        self._strategy = deployment.strategies[region_index]
        self._run = _LaneRun(engine, deployment, seed, region_index)
        self._stream = self._latency.stream
        self._now = self._clock.now()
        self._node = None
        if deployment.coordinator is not None:
            self._node = self._strategy.node
            self._neighbor_read_ms, self._neighbor_jitter = (
                engine._neighbor_profiles()[self._strategy.client_region])

    def call(self, method: str, *arguments):
        """Run one protocol call on this region's stream and clock."""
        latency = self._latency
        clock = self._clock
        latency.stream = self._stream
        clock._now_s = self._now
        reply = getattr(self, method)(*arguments)
        self._stream = latency.stream
        self._now = clock._now_s
        return reply

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
        """Close the lane run: the region's run result."""
        return self._run.finish()

    # The in-process transport: a call answered on the spot.
    in_process = True

    def send(self, method: str, *arguments) -> None:
        self._reply = self.call(method, *arguments)

    def receive(self):
        return self._reply


def _shared_objects(deployment: EngineDeployment) -> dict[str, object]:
    """What a region's strategy shares with the rest of its deployment."""
    store = deployment.store
    return {"store": store, "clock": deployment.clock,
            "topology": store.topology, "latency": store.topology.latency}


def _pack_strategy(deployment: EngineDeployment, region_index: int) -> bytes:
    """Region ``region_index``'s strategy as bytes, without its read plans;
    the deployment's shared objects go by name (:func:`_shared_objects`)."""
    strategy = deployment.strategies[region_index]
    strategy.forget_read_plans()
    names = {id(shared): name for name, shared in _shared_objects(deployment).items()}
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: names.get(id(obj))
    pickler.dump(strategy)
    return buffer.getvalue()


def _unpack_strategy(blob: bytes, deployment: EngineDeployment) -> ReadStrategy:
    """A packed strategy, bound to ``deployment``'s own shared objects."""
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    unpickler.persistent_load = _shared_objects(deployment).__getitem__
    return unpickler.load()


def _shard_worker(connection, hand_back: bool, engine: "EventEngine",
                  deployment: EngineDeployment, seed: int, region_index: int
                  ) -> None:
    """Body of one forked shard worker: a pipe around a :class:`_Shard`.

    Module-level so the fork start method can run it; the engine and the
    deployment are inherited through fork (copy-on-write), only calls and
    return values travel through the pipe.  Serves ``(method, *arguments)``
    calls until ``finish``; with ``hand_back`` it then sends its region's
    end time and packed strategy (:func:`_pack_strategy`).  An error is
    shipped to the parent as the exception object itself.
    """
    try:
        shard = _Shard(engine, deployment, seed, region_index)
        method = None
        while method != "finish":
            method, *arguments = connection.recv()
            connection.send(shard.call(method, *arguments))
        if hand_back:
            connection.send((shard._now, _pack_strategy(deployment, region_index)))
    except BaseException as error:  # pragma: no cover - transport for the parent
        try:
            connection.send(error)
        except OSError:  # the parent hung up first
            pass
    finally:
        connection.close()


class _PipeShard:
    """The parent's end of the pipe to one forked :func:`_shard_worker`."""

    in_process = False

    def __init__(self, context, engine: "EventEngine", deployment: EngineDeployment,
                 seed: int, region_index: int, hand_back: bool) -> None:
        self._connection, worker_end = context.Pipe(duplex=True)
        self._worker = context.Process(
            target=_shard_worker,
            args=(worker_end, hand_back, engine, deployment, seed, region_index))
        self._worker.start()
        worker_end.close()
        self.region_index = region_index
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

    def take_back(self, deployment: EngineDeployment) -> tuple[float, ReadStrategy]:
        """The worker's region end and its strategy, bound to ``deployment``."""
        end, blob = self.receive()
        return end, _unpack_strategy(blob, deployment)

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
        warm-up probe draws from the deployment's jitter stream (the
        determinism contract).

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

        One :class:`_Shard` per region runs the shard protocol
        (:meth:`_drive`).  Region 0 runs in the caller's process on the
        caller's deployment.  Where this process may fork
        (:func:`_can_fork`), every region ``r >= 1`` runs in a worker forked
        after region 0's shard is built, so the regions run side by side; on
        ``finish`` the worker hands back its region's end time and strategy,
        which replaces ``deployment.strategies[r]`` (and, under §VI, the
        coordinator's node of that region).  A region whose strategy has a decision sink stays
        in the caller's process, since the sink must see every read.
        Afterwards the deployment keeps region 0's stream and the latest
        region end, so a warm second call runs exactly as it would have had
        every region run in process.  Event order, jitter draws and
        arithmetic replicate the segmented heap loop of
        ``tests/reference/heap_scheduler.py`` exactly, as asserted by
        ``tests/sim/test_engine_equivalence.py``, and
        ``tests/golden/engine.json`` pins it across versions.

        A worker that raises re-raises here, and one that dies without
        replying raises a ``RuntimeError`` naming it; either way every worker
        is gone before the error leaves.
        """
        forked = ()
        if _can_fork():
            forked = [region_index
                      for region_index in range(1, len(self._config.regions))
                      if deployment.strategies[region_index]._decision_sink is None]
        return self._execute(deployment, seed, forked, hand_back=True)

    def _execute(self, deployment: EngineDeployment, seed: int,
                 forked, hand_back: bool) -> EngineResult:
        """Drive one shard per region, the regions in ``forked`` in workers.

        With ``hand_back`` the deployment ends where the run ended: each
        worker's strategy is taken back into it, and it keeps region 0's
        stream (region 0 is never forked then) and the latest region end.
        Without, the workers' copies are dropped and the deployment stays
        as it was.
        """
        context = multiprocessing.get_context("fork") if forked else None
        shards = []
        workers: list[_PipeShard] = []
        try:
            for region_index in range(len(self._config.regions)):
                if region_index in forked:
                    workers.append(_PipeShard(context, self, deployment, seed,
                                              region_index, hand_back))
                    shards.append(workers[-1])
                else:
                    shards.append(_Shard(self, deployment, seed, region_index))
            coordinator = deployment.coordinator
            result = self._drive(shards, deployment.clock.now(), coordinator)
            if hand_back:
                ends = [shard._now for shard in shards if shard.in_process]
                for worker in workers:
                    end, strategy = worker.take_back(deployment)
                    ends.append(end)
                    deployment.strategies[worker.region_index] = strategy
                    if coordinator is not None:
                        coordinator.replace_node(strategy.node)
                deployment.store.topology.latency.stream = shards[0]._stream
                deployment.clock._now_s = max(ends)
        except BaseException:
            for worker in workers:
                worker.terminate()
            raise
        for worker in workers:
            worker.join()
        return result

    def _drive(self, shards, start: float,
               coordinator: CollaborationCoordinator | None) -> EngineResult:
        """The segment/round protocol over one shard per region.

        Regions share no state but the read-only store, so each runs on its
        own: without a coordinator the protocol has no round, and its one
        segment has no boundary and runs every lane to completion.
        Collaborative (§VI) regions must exchange announcements every
        collaboration period, so they run in *segments* between period
        boundaries.  At each boundary ``T``:

        1. every shard pauses having processed all events strictly before
           ``T`` and reports its remaining-request count and current
           announcement;
        2. if any requests remain deployment-wide (timers only fire while
           requests remain), the regions are walked in order, each shard
           receiving its neighbours' current announcements — regions earlier
           in the round already carry their *new* configuration, the
           staggered-round semantics of
           :meth:`CollaborationCoordinator.reconfigure_all` — applying
           :func:`reconfigure_node` and replying with its new announcement;
        3. the shards resume towards ``T + period``, each with the other
           regions' final pinned chunks as its neighbour catalog.

        The final announcements are installed into ``coordinator``
        (:meth:`~repro.extensions.collaboration.CollaborationCoordinator.install_announcements`),
        so callers read the run's cache-content overlap via
        ``coordinator.latest_overlap()`` whichever transport ran it.

        ``shards`` answer ``send(method, *arguments)`` then ``receive()``:
        a :class:`_Shard` on the spot, a :class:`_PipeShard` through its
        worker.  Every ``segment`` and ``finish`` goes to the workers before
        the shards in the caller's process, which answer on the spot, so the
        regions run side by side; a ``round`` goes out in region order and
        waits for its reply, because each region's round needs the new
        announcements of the regions before it.  Per-region durations are
        each region's own span and the merged ``duration_s`` is their
        maximum.
        """
        config = self._config
        period = self._collaboration_period() if coordinator is not None else None
        boundary = start + period if period is not None else None
        announcements: list[NeighborAnnouncement | None] = [None] * len(shards)
        catalogs: list[dict[str, frozenset] | None] = [None] * len(shards)
        dispatch = sorted(range(len(shards)), key=lambda index: shards[index].in_process)
        while True:
            for region_index in dispatch:
                shards[region_index].send("segment", boundary, catalogs[region_index])
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
            pinned = {spec.region: announcement.pinned_chunks
                      for spec, announcement in zip(config.regions, announcements)}
            catalogs = [_neighbor_catalog(pinned, spec.region)
                        for spec in config.regions]
            boundary += period
        # Every shard is asked to finish before any reply is collected, so
        # forked workers pickle their results side by side.
        for region_index in dispatch:
            shards[region_index].send("finish")
        region_results = [shard.receive() for shard in shards]
        if coordinator is not None:
            coordinator.install_announcements(announcements)
        return EngineResult(
            workload_name=config.workload.name,
            duration_s=max(result.duration_s for result in region_results),
            regions={result.region: result for result in region_results},
        )

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
        """Replay one run with one worker per region, on copies (cold run).

        Regions never share caches — their only shared state is the
        read-only populated store — so each region can run in its own
        process: the parent forks one worker per region, each running its
        region's :class:`_Shard` on its inherited copy of the deployment,
        and drives them through the same protocol as :meth:`execute`
        (:meth:`_drive`).  The result is bit-identical to :meth:`execute` on
        the same deployment; ``processes=False`` runs every shard in this
        process over a deep copy instead.

        The parent deployment is left untouched (workers mutate copies and
        hand nothing back), so sharded runs never warm the caller's caches;
        only the final announcements are installed into its coordinator.

        A worker that raises re-raises here, and one that dies without
        replying raises a ``RuntimeError`` naming it; either way every other
        worker is terminated before the error leaves.

        Args:
            deployment: the deployment to shard.
            seed: per-run seed (same meaning as in :meth:`execute`).
            processes: fork one worker per region; ``None`` (default) forks
                whenever the platform supports the fork start method and
                there is more than one region, ``False`` runs in-process
                against a deep copy.
        """
        region_count = len(self._config.regions)
        if processes is None:
            processes = _can_fork()
        if not processes or region_count == 1:
            copied = copy.deepcopy(deployment)
            result = self._execute(copied, seed, (), hand_back=True)
            if deployment.coordinator is not None:
                deployment.coordinator.install_announcements(
                    copied.coordinator.announcements())
            return result
        return self._execute(deployment, seed, range(region_count), hand_back=False)

    def run_sharded(self, seed: int | None = None,
                    processes: bool | None = None) -> EngineResult:
        """Build a fresh deployment and execute it region-sharded (cold run)."""
        config = self._config
        effective_seed = config.workload.seed if seed is None else seed
        self._topology.latency.reseed(config.topology_seed + effective_seed)
        deployment = self.build_deployment()
        return self.execute_sharded(deployment, effective_seed, processes=processes)
