"""The global-heap event loop the lane scheduler replaced.

The first discrete-event engine ran every deployment through one binary heap
over ``(time, priority, seq, payload)`` tuples, with one :class:`Request`
object per read.  :meth:`EventEngine.execute` (the lane scheduler) must
reproduce it bit for bit: ``tests/sim/test_engine_equivalence.py`` and
``tests/sim/test_chaos_soak.py`` compare the two on every supported shape,
the same way the engine originally proved itself against the pre-engine
closed loop (``closed_loop.py``).  One semantic addition since the first
loop: collaborative rounds install the §VI neighbour catalogs, applied to
both schedulers in lockstep.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.client.stats import LatencyStats, ReadResult
from repro.core.agar_node import AgarNodeConfig
from repro.sim.engine import (
    _ARRIVAL_SEED_TAG,
    CLIENT_SEED_STRIDE,
    EngineDeployment,
    EngineResult,
    EventEngine,
    RegionRunResult,
    _install_neighbor_catalogs,
)
from repro.sim.faults import FaultState
from repro.workload.workload import Request, generate_requests

#: Event priorities: timers fire before request arrivals at equal timestamps,
#: mirroring the legacy behaviour of reconfiguring before the triggering read
#: is recorded into the new period.
_PRIO_TIMER = 0
_PRIO_ARRIVAL = 1


class _ClientState:
    """One client's request stream and (for open loop) arrival generator."""

    __slots__ = ("region_index", "requests", "next_index", "arrival_rng")

    def __init__(self, region_index: int, requests: list[Request],
                 arrival_rng: np.random.Generator | None) -> None:
        self.region_index = region_index
        self.requests = requests
        self.next_index = 0
        self.arrival_rng = arrival_rng


def execute_heap(engine: EventEngine, deployment: EngineDeployment,
                 seed: int) -> EngineResult:
    """Replay ``seed``'s request streams against ``deployment`` on one heap.

    Same contract as :meth:`EventEngine.execute`: the deployment's caches,
    popularity statistics and clock persist across calls.
    """
    config = engine.config
    clock = deployment.clock
    strategies = deployment.strategies
    arrival = config.arrival
    timer_mode = config.uses_timer_reconfiguration
    keep = engine._keep_results
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
    # pre-engine closed loop's stream for the same seed).
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
    neighbor_profiles = (engine._neighbor_profiles()
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
