"""The heap event loop the lane scheduler replaced, run per region.

The first discrete-event engine ran every deployment through one binary heap
over ``(time, priority, seq, payload)`` tuples, with one :class:`Request`
object per read.  :meth:`EventEngine.execute` (the lane scheduler) must
reproduce it bit for bit: ``tests/sim/test_engine_equivalence.py`` and
``tests/sim/test_chaos_soak.py`` compare the two on every supported shape,
the same way the engine originally proved itself against the pre-engine
closed loop (``closed_loop.py``).

Each region runs its own heap on its own jitter stream (region 0 on the
deployment's, region ``r >= 1`` on one seeded
``seed + _SHARD_SEED_TAG * (r + 1)``) and its own time.  A collaborative
deployment runs the regions in segments between collaboration-period
boundaries; at each boundary where requests remain the coordinator runs its
staggered round (:meth:`CollaborationCoordinator.reconfigure_all`) and every
region is handed the others' pinned chunks as its neighbour catalog.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.client.stats import LatencyStats, ReadResult
from repro.sim.engine import (
    _ARRIVAL_SEED_TAG,
    _SHARD_SEED_TAG,
    CLIENT_SEED_STRIDE,
    EngineDeployment,
    EngineResult,
    EventEngine,
    RegionRunResult,
    _neighbor_catalog,
)
from repro.workload.workload import generate_requests

#: Event priorities: timers fire before request arrivals at equal timestamps,
#: mirroring the legacy behaviour of reconfiguring before the triggering read
#: is recorded into the new period.
_PRIO_TIMER = 0
_PRIO_ARRIVAL = 1


class _RegionHeap:
    """One region's heap loop, its stream, its time and its statistics."""

    def __init__(self, engine: EventEngine, deployment: EngineDeployment,
                 seed: int, region_index: int, start: float) -> None:
        config = engine.config
        spec = config.regions[region_index]
        self.latency = deployment.store.topology.latency
        self.clock = deployment.clock
        if region_index:
            self.latency.reseed(seed + _SHARD_SEED_TAG * (region_index + 1))
        self.stream = self.latency.stream
        self.now = start
        self.start = start
        self.last_completion = start
        self.spec = spec
        self.strategy = strategy = deployment.strategies[region_index]
        self.keep = engine._keep_results
        self.stats = LatencyStats(capacity=max(spec.clients * config.workload.request_count, 1))
        self.kept: list[ReadResult] = []
        self.arrival = arrival = config.arrival
        self.heap: list[tuple[float, int, int, tuple]] = []
        self.seq = 0

        # Client request streams (region-major numbering over the deployment;
        # client 0 replays the pre-engine closed loop's stream for the seed).
        first = sum(other.clients for other in config.regions[:region_index])
        self.clients = []
        self.outstanding = 0
        for global_index in range(first, first + spec.clients):
            requests = generate_requests(
                config.workload, seed=seed + CLIENT_SEED_STRIDE * global_index)
            arrival_rng = (np.random.default_rng((seed, _ARRIVAL_SEED_TAG, global_index))
                           if arrival.is_open_loop else None)
            self.clients.append([requests, 0, arrival_rng])
            if not requests:
                continue
            self.outstanding += len(requests)
            at = (start + arrival_rng.exponential(arrival.mean_interarrival_s)
                  if arrival.is_open_loop else start)
            self.push(at, _PRIO_ARRIVAL, ("arrival", len(self.clients) - 1))

        # Fault schedule: initial state now, one one-shot priority-0 event
        # per transition, pushed before the periodic timer so equal-time ties
        # resolve fault-first.  In timer mode the strategy's own period check
        # is off; a collaborative deployment reconfigures in its rounds.
        faults = config.faults
        self.fault_states = ()
        if faults is not None and not faults.is_empty:
            strategy.set_fault_state(faults.initial_state)
            strategy.react_to_fault(start)
            self.fault_states = tuple(state for _, state in faults.transitions)
            for index, (offset, _state) in enumerate(faults.transitions):
                self.push(start + offset, _PRIO_TIMER, ("fault", index))
        if config.uses_timer_reconfiguration:
            strategy.set_external_reconfiguration(True)
            period = strategy.reconfiguration_period_s
            if deployment.coordinator is None and period is not None:
                self.push(start + period, _PRIO_TIMER, ("reconfig", period))

    def push(self, time_s: float, priority: int, payload: tuple) -> None:
        heapq.heappush(self.heap, (time_s, priority, self.seq, payload))
        self.seq += 1

    def run(self, until: float) -> None:
        """Process every event before ``until`` on this region's stream and time."""
        self.latency.stream = self.stream
        clock = self.clock
        clock._now_s = self.now
        heap = self.heap
        arrival = self.arrival
        strategy = self.strategy
        while heap and heap[0][0] < until:
            time_s, _priority, _seq, payload = heapq.heappop(heap)
            if payload[0] == "arrival":
                state = self.clients[payload[1]]
                requests, index, arrival_rng = state
                state[1] = index + 1
                clock.advance_to(time_s)
                result = strategy.read(requests[index].key, now=time_s)
                completion = time_s + result.latency_ms / 1000.0
                self.last_completion = max(self.last_completion, completion)
                self.stats.record(result)
                if self.keep:
                    self.kept.append(result)
                self.outstanding -= 1
                if index + 1 < len(requests):
                    next_time = (time_s + arrival_rng.exponential(arrival.mean_interarrival_s)
                                 if arrival.is_open_loop else completion)
                    self.push(next_time, _PRIO_ARRIVAL, payload)
            elif self.outstanding > 0:
                # Timers only fire (and reschedule) while requests remain.
                clock.advance_to(time_s)
                if payload[0] == "fault":
                    strategy.set_fault_state(self.fault_states[payload[1]])
                    strategy.react_to_fault(time_s)
                else:
                    strategy.tick(time_s)
                    self.push(time_s + payload[1], _PRIO_TIMER, payload)
        self.stream = self.latency.stream
        self.now = clock.now()

    def result(self) -> RegionRunResult:
        end = max(self.now, self.last_completion)
        self.now = end
        return RegionRunResult(
            region=self.spec.region, strategy=self.spec.strategy,
            clients=self.spec.clients, stats=self.stats,
            duration_s=end - self.start,
            cache_snapshot=self.strategy.cache_snapshot(), results=self.kept)


def execute_heap(engine: EventEngine, deployment: EngineDeployment,
                 seed: int) -> EngineResult:
    """Replay ``seed``'s request streams against ``deployment``, a heap per region.

    Same contract as :meth:`EventEngine.execute`: the deployment's caches,
    popularity statistics and clock persist across calls, and afterwards it
    keeps region 0's stream and the latest region end.
    """
    config = engine.config
    clock = deployment.clock
    coordinator = deployment.coordinator
    start = clock.now()
    regions = [_RegionHeap(engine, deployment, seed, region_index, start)
               for region_index in range(len(config.regions))]
    period = engine._collaboration_period() if coordinator is not None else math.inf
    boundary = start + period
    while True:
        for region in regions:
            region.run(boundary)
        if not any(region.outstanding for region in regions):
            break
        clock._now_s = boundary
        coordinator.reconfigure_all(boundary)
        profiles = engine._neighbor_profiles()
        pinned = {a.region: a.pinned_chunks for a in coordinator.announcements()}
        for region in regions:
            name = region.spec.region
            region.strategy.set_neighbor_catalog(_neighbor_catalog(pinned, name),
                                                 *profiles[name])
            # A region whose clients are all done idles through the rounds
            # that remain: its span ends where its own work did.
            if region.outstanding:
                region.now = boundary
        boundary += period

    if coordinator is not None:
        coordinator.broadcast()     # the final configurations, as the engine reports
    results = [region.result() for region in regions]
    deployment.store.topology.latency.stream = regions[0].stream
    clock._now_s = max(region.now for region in regions)
    return EngineResult(
        workload_name=config.workload.name,
        duration_s=max(result.duration_s for result in results),
        regions={result.region: result for result in results},
    )
