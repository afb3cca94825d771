"""The six workloads: three vertical paths, an exercise/bypass pair on each.

==============  ==========================================================
wire_hot        wire request, working set inside the gateway body cache
wire_cold       wire request, working set twice the body cache (decode)
wire_rw         wire request, 20 % PUTs (encode, store, version bump)
engine_clean    engine event on the indexed fast path
engine_faulted  engine event on the string/resilient path (outage + hedges)
reconfig        reconfiguration at 1,024 objects
==============  ==========================================================

Every workload does identical seeded work in every slice, checks what comes
back, and hands a :class:`Outcome` to ``run.py``; none of them imports the
load generator or the framing of ``repro.serve``.
"""

from __future__ import annotations

import asyncio
import gc
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.serve import gateway as gateway_module
from repro.serve.gateway import ServeCluster
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import FaultSchedule, RegionOutage
from repro.workload.workload import WorkloadSpec

from bench import refclock, trace
from bench.wireclient import SlicePlan, WireClient, sample_ranks

KIB = 1024
MIB = 1024 * 1024

#: Client shape of every wire workload: ``nproc`` sockets, one thread.
CONNECTIONS = 2
PIPELINE_DEPTH = 32

#: A run sets up again and again — at least three times, at most 25 — until
#: this much time has gone into it, and reports the median.
SETUP_BUDGET_S = 1.5

#: Timed slices on each side of a traced run (untraced, then traced).
TRACED_SLICES = 3


@dataclass(frozen=True, slots=True)
class RunConfig:
    seed: int
    seconds: int
    traced: bool
    smoke: bool = False
    corrupt: bool = False

    def schedule(self) -> list[tuple[bool, bool]]:
        """``(timed, traced)`` per slice: one warm-up ahead of each timed block.

        An untraced run times ``seconds - 1`` slices of about a second each.
        A traced run times a short untraced block first, so that the tracing
        overhead is measured inside one process, minutes of drift apart from
        nothing.
        """
        if not self.traced:
            return [(False, False)] + [(True, False)] * max(3, self.seconds - 1)
        block = min(TRACED_SLICES, max(1, self.seconds - 1))
        return ([(False, False)] + [(True, False)] * block
                + [(False, True)] + [(True, True)] * block)


@dataclass(slots=True)
class Slice:
    """One timed slice: the work done and the kernel runs interleaved with it."""

    ops: int
    work_s: float          #: timed regions, kernel runs excluded
    ref_s: float           #: the kernel runs inside them
    ref_runs: int

    @property
    def ref_unit_s(self) -> float:
        return self.ref_s / self.ref_runs

    @property
    def raw_rate(self) -> float:
        return self.ops / self.work_s

    @property
    def corrected_rate(self) -> float:
        return self.raw_rate * self.ref_unit_s / refclock.REF_NOMINAL_S


@dataclass(slots=True)
class Outcome:
    """Everything one run of one workload observed."""

    untraced: list[Slice] = field(default_factory=list)
    traced: list[Slice] = field(default_factory=list)
    #: Set-up repeats: seconds of work each, and every kernel run among them.
    setup_work_s: list[float] = field(default_factory=list)
    setup_ref_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Modelled latency of every read in a timed slice, and how many of them
    #: were served with at least one cached chunk.
    model_ms: list[float] = field(default_factory=list)
    hits: int = 0
    #: Counts read off the layers' public state when the run ends.
    counters: dict[str, float] = field(default_factory=dict)
    #: Bytes one decode reconstructs (0 where payloads are virtual).
    object_bytes: int = 0
    tracer: trace.Tracer | None = None

    def fail(self, detail: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(detail)


def _deploy(config: EngineConfig, seed: int):
    """A fresh, seeded engine and its deployment."""
    engine = EventEngine(config)
    engine.topology.latency.reseed(config.topology_seed + seed)
    return engine, engine.build_deployment()


class Session:
    """Slice bookkeeping: the reference kernel and the tracer inside."""

    def __init__(self, outcome: Outcome, run: RunConfig) -> None:
        self._outcome = outcome
        self._setup_budget_s = 0.0 if run.smoke else SETUP_BUDGET_S
        self._clock = refclock.Interleaved(self._sample)
        self._timed = self._traced = False
        self._work_s = 0.0
        self._ref: list[float] = []
        self.index = -1

    def _sample(self) -> float:
        """One kernel run; the tracer is told, so no layer is charged for it."""
        start = time.perf_counter()
        refclock.kernel()
        end = time.perf_counter()
        tracer = self._outcome.tracer
        if tracer is not None and tracer.active:
            tracer.pause(start, end)
        return end - start

    def start_slice(self, timed: bool, traced: bool) -> None:
        if traced and self._outcome.tracer is None:
            self._outcome.tracer = trace.Tracer()
            trace.install(self._outcome.tracer)
        self._timed, self._traced = timed, traced
        self._work_s = 0.0
        self._ref = []
        self.index += 1
        gc.collect()

    @property
    def recording(self) -> trace.Tracer | None:
        """The tracer, while the current slice is one it records."""
        return self._outcome.tracer if self._timed and self._traced else None

    @contextmanager
    def _clocked(self, samples: list[float]):
        """Time a region with the kernel interleaved; yields ``[work_s]``."""
        region = [0.0]
        self._clock.start()
        start = time.perf_counter()
        try:
            yield region
        finally:
            ran = self._clock.stop()
            if not ran:
                # A region shorter than the timer's interval still gets its run.
                ran = [self._sample()]
            region[0] = time.perf_counter() - start - sum(ran)
            samples += ran

    def more_setups(self) -> bool:
        """Set up again?  At least 3 times, then until the budget or 25."""
        done = self._outcome.setup_work_s
        return len(done) < 3 or (len(done) < 25
                                 and sum(done) < self._setup_budget_s)

    @contextmanager
    def setup(self):
        """One set-up repeat: ``with session.setup(): build everything``."""
        gc.collect()
        with self._clocked(self._outcome.setup_ref_s) as region:
            yield
        self._outcome.setup_work_s.append(region[0])

    def call(self, function, *args):
        """Run one timed region of the current slice (a slice may have several)."""
        tracer = self.recording
        if tracer is not None:
            tracer.active = True
        try:
            with self._clocked(self._ref) as region:
                return function(*args)
        finally:
            self._work_s += region[0]
            if tracer is not None:
                tracer.active = False

    async def call_async(self, function, root: str):
        """As :meth:`call` for a coroutine function, under a ``root`` span.

        The root span's self time is whatever no traced callable covers — on
        the wire paths, the event loop and the sockets.
        """
        tracer = self.recording
        if tracer is not None:
            tracer.active = True
            tracer.request = None
            tracer.request_prefix = f"s{self.index}-"
            span = tracer.open(root)
        try:
            with self._clocked(self._ref) as region:
                return await function()
        finally:
            self._work_s += region[0]
            if tracer is not None:
                tracer.request = None
                tracer.close(span)
                tracer.active = False

    def end_slice(self, ops: int) -> None:
        if self._timed:
            slices = (self._outcome.traced if self._traced
                      else self._outcome.untraced)
            slices.append(Slice(ops, self._work_s, sum(self._ref),
                                len(self._ref)))


# ---------------------------------------------------------------------- #
# Wire request path
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class WireShape:
    objects: int
    strategy: str
    skew: float | None
    put_share: float
    requests_per_slice: int
    object_size: int = 16 * KIB
    #: 160 KiB against 300 x 16 KiB is the paper's 1 : 30 cache.
    cache_bytes: int = 160 * KIB
    region: str = "frankfurt"
    #: Draw each slice's requests afresh (same rng, same distribution) rather
    #: than replaying one plan.  A replayed plan only ever touches the objects
    #: it names, so a working set meant to exceed the gateway's body cache
    #: would shrink to whatever one slice happens to draw.
    redraw: bool = False

    def smoke(self) -> "WireShape":
        return WireShape(min(self.objects, 256), self.strategy, self.skew,
                         self.put_share, 384, 4 * KIB, 40 * KIB,
                         redraw=self.redraw)


def _corrupting(build_response, victim: int):
    """Self-test of the correctness gate: damage the ``victim``-th 200 body."""
    seen = 0

    def build(status, body=b"", *args, **kwargs):
        nonlocal seen
        if status == 200 and body:
            seen += 1
            if seen == victim:
                body = body[:-1] + bytes([body[-1] ^ 0xFF])
        return build_response(status, body, *args, **kwargs)

    return build


async def _run_wire(shape: WireShape, run: RunConfig) -> Outcome:
    outcome = Outcome(object_bytes=shape.object_size)
    config = EngineConfig(
        workload=WorkloadSpec(
            object_count=shape.objects, object_size=shape.object_size,
            request_count=shape.requests_per_slice, seed=run.seed,
            distribution="uniform" if shape.skew is None else "zipfian"),
        regions=(RegionSpec(shape.region, clients=1, strategy=shape.strategy),),
        cache_capacity_bytes=shape.cache_bytes, topology_seed=run.seed,
        timer_reconfiguration=True)
    session = Session(outcome, run)
    cluster = None
    while session.more_setups():
        if cluster is not None:
            await cluster.stop()
            cluster = None
        with session.setup():
            cluster = ServeCluster.from_config(config, seed=run.seed,
                                               payloads=True)
            await cluster.start()
    gateway = cluster.gateways[shape.region]
    store = cluster.deployment.store
    crcs = [zlib.crc32(store.get_object(f"object-{rank}"))
            for rank in range(shape.objects)]
    rng = np.random.default_rng(run.seed)

    def draw_plan() -> SlicePlan:
        return SlicePlan.build(
            rng, objects=shape.objects, count=shape.requests_per_slice,
            skew=shape.skew, put_share=shape.put_share,
            object_size=shape.object_size, tick=shape.strategy == "agar")

    plan = draw_plan()
    if run.corrupt:
        gateway_module.build_response = _corrupting(
            gateway_module.build_response, shape.requests_per_slice // 2)
    client = WireClient(cluster.addresses[shape.region], crcs,
                        shape.object_size, CONNECTIONS, PIPELINE_DEPTH)
    latency_ms: list[float] = []
    body_cached = reads = 0
    await client.open()
    try:
        for timed, traced in run.schedule():
            if shape.redraw:
                plan = draw_plan()
            session.start_slice(timed, traced)
            tracer = session.recording
            client.request_log = [] if tracer is not None else None
            tally = await session.call_async(
                lambda: client.run_slice(plan), root="gateway.loop")
            session.end_slice(tally.attempted)
            if tracer is not None:
                for index, sent, verified in client.request_log:
                    tracer.add_detached("client.request", sent, verified,
                                        f"s{session.index}-{index}")
            outcome.failed += tally.failed
            outcome.failures += tally.failures[:5 - len(outcome.failures)]
            if not timed:
                continue
            outcome.attempted += tally.attempted
            outcome.model_ms += tally.model_ms
            outcome.hits += tally.hits
            latency_ms += tally.latency_ms
            body_cached += tally.body_cached
            reads += tally.reads
    finally:
        # Sockets first, then let the gateway's connection handlers see the
        # EOF and return: handlers still pending when the loop shuts down
        # are cancelled and log a traceback each.
        await client.close()
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        await cluster.stop()
    latencies = np.sort(np.asarray(latency_ms)) if latency_ms else np.zeros(1)
    stats = gateway.wire_stats
    outcome.counters.update({
        "client.p50_ms": float(latencies[len(latencies) // 2]),
        "client.p99_ms": float(latencies[int(len(latencies) * 0.99)]),
        "client.max_ms": float(latencies[-1]),
        "gateway.body_cached_share": body_cached / reads if reads else 0.0,
        "gateway.errors": gateway.errors_total,
        "ledger.entries": len(gateway.ledger),
        "strategies.degraded_reads": stats.degraded_reads,
        "backend.puts": gateway.puts_total,
    })
    outcome.counters.update(_resilience_counters(stats))
    outcome.counters.update(_strategy_counters([gateway.strategy]))
    return outcome


# ---------------------------------------------------------------------- #
# Engine event path
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class EngineShape:
    clients_per_region: int
    reads_per_client: int
    faulted: bool
    regions: tuple[str, ...] = ("frankfurt", "dublin")
    objects: int = 300
    object_size: int = MIB
    cache_bytes: int = 10 * MIB

    def smoke(self) -> "EngineShape":
        return EngineShape(8, self.reads_per_client // 2, self.faulted,
                           objects=64, cache_bytes=2 * MIB)


def _run_engine(shape: EngineShape, run: RunConfig) -> Outcome:
    outcome = Outcome()
    faults = None
    client = ClientConfig()
    if shape.faulted:
        faults = FaultSchedule([RegionOutage("sao_paulo", 20.0, 50.0)])
        client = ClientConfig(resilience=ResilienceConfig(
            retry_budget=1, timeout_factor=1.1, hedge=True, hedge_quantile=0.7,
            hedge_min_samples=8, emergency_reconfiguration=True))
    config = EngineConfig(
        workload=WorkloadSpec(
            object_count=shape.objects, object_size=shape.object_size,
            request_count=shape.reads_per_client, seed=run.seed),
        regions=tuple(RegionSpec(region, clients=shape.clients_per_region)
                      for region in shape.regions),
        cache_capacity_bytes=shape.cache_bytes, topology_seed=run.seed,
        faults=faults, client=client)
    requests = (len(shape.regions) * shape.clients_per_region
                * shape.reads_per_client)
    session = Session(outcome, run)
    while session.more_setups():
        with session.setup():
            _deploy(config, run.seed)
    reference = None
    for timed, traced in run.schedule():
        session.start_slice(timed, traced)
        # A fresh, identically seeded deployment per slice: every slice does
        # the same work from the same cold state.
        engine, deployment = _deploy(config, run.seed)
        result = session.call(engine.execute, deployment, run.seed)
        session.end_slice(requests)
        stats = result.overall_stats()
        if stats.count + stats.unavailable_reads != requests:
            outcome.fail(f"slice {session.index}: {stats.count} recorded + "
                         f"{stats.unavailable_reads} unavailable != {requests}")
        signature = (stats.mean_latency_ms, stats.hit_ratio)
        if reference is None:
            reference = signature
        elif signature != reference:
            outcome.fail(f"slice {session.index}: {signature} differs from "
                         f"the first slice's {reference}")
        if not timed:
            continue
        outcome.attempted += requests
        if stats.unavailable_reads:
            outcome.fail(f"slice {session.index}: unavailable reads",
                         stats.unavailable_reads)
    # Slices are bit-identical, so the last one stands for all of them.
    outcome.model_ms = stats.latencies_array().tolist()
    outcome.hits = stats.full_hits + stats.partial_hits
    outcome.counters.update({
        "strategies.degraded_reads": stats.degraded_reads,
        "engine.sim_duration_s": result.duration_s,
        "faults.transitions": len(faults.transitions) if faults else 0,
    })
    outcome.counters.update(_resilience_counters(stats))
    outcome.counters.update(_strategy_counters(deployment.strategies))
    return outcome


# ---------------------------------------------------------------------- #
# Reconfiguration path
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class ReconfigShape:
    objects: int = 1024
    cache_bytes: int = 34 * MIB
    reads_per_round: int = 3000
    rounds_per_slice: int = 3
    period_s: float = 30.0
    object_size: int = MIB
    region: str = "frankfurt"

    def smoke(self) -> "ReconfigShape":
        return ReconfigShape(objects=128, cache_bytes=4 * MIB,
                             reads_per_round=400, rounds_per_slice=1)


def _run_reconfig(shape: ReconfigShape, run: RunConfig) -> Outcome:
    outcome = Outcome()
    config = EngineConfig(
        workload=WorkloadSpec(object_count=shape.objects,
                              object_size=shape.object_size, seed=run.seed),
        regions=(RegionSpec(shape.region, clients=1, strategy="agar"),),
        cache_capacity_bytes=shape.cache_bytes, topology_seed=run.seed,
        timer_reconfiguration=True)
    session = Session(outcome, run)
    while session.more_setups():
        with session.setup():
            _engine, deployment = _deploy(config, run.seed)
    strategy = deployment.strategies[0]
    strategy.set_external_reconfiguration(True)
    node = strategy.node
    capacity_chunks = node.cache_manager.capacity_chunks
    rng = np.random.default_rng(run.seed)
    now = 0.0
    step_s = shape.period_s / shape.reads_per_round
    for timed, traced in run.schedule():
        session.start_slice(timed, traced)
        for _ in range(shape.rounds_per_slice):
            # Untimed filler: the period's reads, so that the reconfiguration
            # has a popularity snapshot to work from and its result is used.
            for rank in sample_ranks(rng, shape.objects,
                                     shape.reads_per_round, 1.1).tolist():
                now += step_s
                deployment.clock.advance_to(now)
                result = strategy.read(f"object-{rank}", now)
                if result.failed:
                    outcome.fail(f"read of object-{rank} unavailable")
                elif timed:
                    outcome.model_ms.append(result.latency_ms)
                    outcome.hits += result.chunks_from_cache > 0
            record = session.call(node.reconfigure, now)
            if timed:
                outcome.attempted += 1
            if record.configured_chunks > capacity_chunks:
                outcome.fail(f"period {record.period_index}: "
                             f"{record.configured_chunks} chunks configured, "
                             f"capacity {capacity_chunks}")
        session.end_slice(shape.rounds_per_slice)
    outcome.counters.update(_strategy_counters([strategy]))
    return outcome


# ---------------------------------------------------------------------- #
# Counters read off public state
# ---------------------------------------------------------------------- #
def _resilience_counters(stats) -> dict[str, float]:
    return {"resilience.retries": stats.retries_total,
            "resilience.hedged_reads": stats.hedged_reads,
            "resilience.hedge_wins": stats.hedge_wins}


def _strategy_counters(strategies) -> dict[str, float]:
    """Cache churn and reconfiguration records, summed over the strategies."""
    totals = dict.fromkeys((
        "cache.chunk_hits", "cache.chunk_misses", "cache.insertions",
        "cache.evictions", "cache.used_bytes", "core.reconfigs",
        "core.candidate_keys", "core.options_generated",
        "core.keys_processed", "core.config_value"), 0.0)
    for strategy in strategies:
        cache = getattr(strategy, "cache", None)
        if cache is not None:
            totals["cache.chunk_hits"] += cache.stats.chunk_hits
            totals["cache.chunk_misses"] += cache.stats.chunk_misses
            totals["cache.insertions"] += cache.stats.insertions
            totals["cache.evictions"] += cache.stats.evictions
            totals["cache.used_bytes"] += cache.used_bytes
        node = getattr(strategy, "node", None)
        if node is not None:
            for record in node.reconfiguration_history():
                totals["core.reconfigs"] += 1
                totals["core.candidate_keys"] += record.candidate_keys
                totals["core.options_generated"] += record.options_generated
                totals["core.keys_processed"] += record.keys_processed
                totals["core.config_value"] += record.configuration_value
    return totals


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_WIRE_HOT = WireShape(objects=300, strategy="agar", skew=1.1, put_share=0.0,
                      requests_per_slice=8192)

WORKLOADS = {
    "wire_hot": _WIRE_HOT,
    "wire_cold": WireShape(objects=8192, strategy="backend", skew=None,
                           put_share=0.0, requests_per_slice=4096, redraw=True),
    "wire_rw": replace(_WIRE_HOT, put_share=0.2, requests_per_slice=6144),
    "engine_clean": EngineShape(clients_per_region=256, reads_per_client=160,
                                faulted=False),
    "engine_faulted": EngineShape(clients_per_region=128, reads_per_client=110,
                                  faulted=True),
    "reconfig": ReconfigShape(),
}


def run_workload(name: str, run: RunConfig) -> Outcome:
    shape = WORKLOADS[name]
    if run.smoke:
        shape = shape.smoke()
    if isinstance(shape, WireShape):
        return asyncio.run(_run_wire(shape, run))
    if isinstance(shape, EngineShape):
        return _run_engine(shape, run)
    return _run_reconfig(shape, run)
