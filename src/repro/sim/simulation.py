"""The classic experiment driver: one client, one region, one strategy.

A :class:`Simulation` stands in for one of the paper's experiment runs: it
populates the geo-distributed store with the workload's objects, builds a read
strategy (Backend, LRU-c, LFU-c or Agar) in the chosen client region, replays
the request stream as a closed loop (the clock advances by each read's
latency) and aggregates the statistics the figures report.

Since the discrete-event refactor this driver is the 1-client / 1-region
special case of :class:`~repro.sim.engine.EventEngine`: :meth:`Simulation.run`
builds a single-region engine configuration and executes it, which is
bit-identical to the original closed loop (see the engine's determinism
contract).  The pre-engine loop is retained as :meth:`Simulation.run_legacy`,
the reference implementation the equivalence test suite compares against.

``run_comparison`` repeats a set of strategies over several seeds — the
paper's "averages of 5 runs" — and returns per-strategy aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.object_store import ErasureCodedStore
from repro.cache.base import CacheSnapshot
from repro.client.stats import LatencyStats, ReadResult
from repro.client.strategies import ClientConfig, make_strategy
from repro.core.agar_node import AgarNodeConfig
from repro.erasure.chunk import ErasureCodingParams
from repro.geo.topology import Topology, default_topology
from repro.sim.clock import SimulationClock
from repro.sim.engine import EngineConfig, EngineResult, EventEngine, RegionSpec
from repro.workload.workload import WorkloadSpec, generate_requests


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulated run needs.

    Attributes:
        workload: the workload specification (objects, requests, distribution).
        client_region: region the client and its cache run in.
        strategy: strategy name (``"backend"``, ``"agar"``, ``"lru-5"``, ...).
        cache_capacity_bytes: local cache capacity (ignored by ``backend``).
        params: erasure-coding parameters (paper: RS(9, 3)).
        client: client latency constants.
        agar: Agar node tunables (only used by the ``agar`` strategy).
        topology_seed: seed for latency jitter.
        warmup_requests: number of initial requests excluded from statistics
            (0 reproduces the paper, which includes cold misses).
    """

    workload: WorkloadSpec
    client_region: str = "frankfurt"
    strategy: str = "agar"
    cache_capacity_bytes: int = 10 * 1024 * 1024
    params: ErasureCodingParams = ErasureCodingParams(9, 3)
    client: ClientConfig = ClientConfig()
    agar: AgarNodeConfig | None = None
    topology_seed: int = 0
    warmup_requests: int = 0

    def engine_config(self) -> EngineConfig:
        """This configuration as a 1-client/1-region engine configuration."""
        return EngineConfig(
            workload=self.workload,
            regions=(RegionSpec(region=self.client_region, clients=1,
                                strategy=self.strategy),),
            cache_capacity_bytes=self.cache_capacity_bytes,
            params=self.params,
            client=self.client,
            agar=self.agar,
            topology_seed=self.topology_seed,
            warmup_requests=self.warmup_requests,
        )


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    strategy: str
    client_region: str
    workload_name: str
    stats: LatencyStats
    duration_s: float
    cache_snapshot: CacheSnapshot | None = None
    results: list[ReadResult] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        """Average read latency of the run."""
        return self.stats.mean_latency_ms

    @property
    def hit_ratio(self) -> float:
        """Full+partial hit ratio of the run."""
        return self.stats.hit_ratio


@dataclass
class AggregatedResult:
    """Mean metrics over several runs of the same configuration."""

    strategy: str
    client_region: str
    workload_name: str
    runs: int
    mean_latency_ms: float
    hit_ratio: float
    full_hit_ratio: float
    per_run_latency_ms: list[float]
    per_run_hit_ratio: list[float]
    last_cache_snapshot: CacheSnapshot | None = None


class Simulation:
    """One simulated experiment run (1-client special case of the engine).

    Args:
        config: the simulation configuration.
        topology: optionally reuse a topology; a fresh calibrated topology is
            created otherwise (with ``config.topology_seed``).
        keep_results: retain every individual :class:`ReadResult` (memory
            heavy; useful for time-series analysis and tests).
    """

    def __init__(self, config: SimulationConfig, topology: Topology | None = None,
                 keep_results: bool = False) -> None:
        self._config = config
        self._topology = topology or default_topology(seed=config.topology_seed)
        self._topology.validate_region(config.client_region)
        self._keep_results = keep_results
        self._engine = EventEngine(
            config.engine_config(), topology=self._topology, keep_results=keep_results
        )

    @property
    def config(self) -> SimulationConfig:
        """The simulation configuration."""
        return self._config

    @property
    def engine(self) -> EventEngine:
        """The discrete-event engine backing this driver."""
        return self._engine

    def build_store(self) -> ErasureCodedStore:
        """Create and populate the store with the workload's objects."""
        store = ErasureCodedStore(self._topology, params=self._config.params)
        store.populate(
            object_count=self._config.workload.object_count,
            object_size=self._config.workload.object_size,
            key_prefix=self._config.workload.key_prefix,
        )
        return store

    def _to_simulation_result(self, engine_result: EngineResult) -> SimulationResult:
        region_result = engine_result.regions[self._config.client_region]
        return SimulationResult(
            strategy=self._config.strategy,
            client_region=self._config.client_region,
            workload_name=self._config.workload.name,
            stats=region_result.stats,
            duration_s=region_result.duration_s,
            cache_snapshot=region_result.cache_snapshot,
            results=region_result.results,
        )

    def run(self, seed: int | None = None) -> SimulationResult:
        """Execute one run against a freshly deployed (cold) system.

        Args:
            seed: per-run seed for the request stream and latency jitter;
                defaults to the workload's seed.
        """
        effective_seed = self._config.workload.seed if seed is None else seed
        return self._to_simulation_result(self._engine.run(seed=effective_seed))

    def run_many(self, runs: int = 5, base_seed: int | None = None,
                 flush_between_runs: bool = False) -> AggregatedResult:
        """Repeat the run with different seeds and aggregate (paper: 5 runs).

        Args:
            runs: number of repetitions.
            base_seed: seed of the first run (subsequent runs add 1, 2, ...).
            flush_between_runs: if True each run starts against a cold, freshly
                deployed system; if False (default) the deployment — caches,
                popularity statistics and the simulated clock — persists across
                runs, which mirrors repeating YCSB runs against a long-running
                deployment as the paper does.
        """
        if runs <= 0:
            raise ValueError("runs must be positive")
        base = self._config.workload.seed if base_seed is None else base_seed

        if flush_between_runs:
            results = [self.run(seed=base + run_index) for run_index in range(runs)]
            return aggregate_results(results)

        self._topology.latency.reseed(self._config.topology_seed + base)
        deployment = self._engine.build_deployment()
        results = [
            self._to_simulation_result(
                self._engine.execute(deployment, seed=base + run_index)
            )
            for run_index in range(runs)
        ]
        return aggregate_results(results)

    # ------------------------------------------------------------------ #
    # Reference implementation (pre-engine closed loop)
    # ------------------------------------------------------------------ #
    def run_legacy(self, seed: int | None = None) -> SimulationResult:
        """The original closed-loop driver, kept as a reference.

        The engine path must reproduce this bit-identically for the 1-client
        closed loop; ``tests/sim/test_engine.py`` asserts it.
        """
        config = self._config
        effective_seed = config.workload.seed if seed is None else seed
        self._topology.latency.reseed(config.topology_seed + effective_seed)

        store = self.build_store()
        clock = SimulationClock()
        strategy = make_strategy(
            config.strategy,
            store=store,
            client_region=config.client_region,
            cache_capacity_bytes=config.cache_capacity_bytes,
            clock=clock,
            client_config=config.client,
            node_config=config.agar,
        )

        requests = generate_requests(config.workload, seed=effective_seed)
        stats = LatencyStats(capacity=max(len(requests), 1))
        kept: list[ReadResult] = []
        start = clock.now()

        for request in requests:
            result = strategy.read(request.key, now=clock.now())
            clock.advance_ms(result.latency_ms)
            if request.sequence >= config.warmup_requests:
                stats.record(result)
            if self._keep_results:
                kept.append(result)

        return SimulationResult(
            strategy=config.strategy,
            client_region=config.client_region,
            workload_name=config.workload.name,
            stats=stats,
            duration_s=clock.now() - start,
            cache_snapshot=strategy.cache_snapshot(),
            results=kept,
        )


def aggregate_results(results: list[SimulationResult]) -> AggregatedResult:
    """Average per-run metrics of repeated runs of one configuration."""
    if not results:
        raise ValueError("at least one result is required")
    first = results[0]
    latencies = [result.mean_latency_ms for result in results]
    hit_ratios = [result.hit_ratio for result in results]
    full_hits = [result.stats.full_hit_ratio for result in results]
    return AggregatedResult(
        strategy=first.strategy,
        client_region=first.client_region,
        workload_name=first.workload_name,
        runs=len(results),
        mean_latency_ms=sum(latencies) / len(latencies),
        hit_ratio=sum(hit_ratios) / len(hit_ratios),
        full_hit_ratio=sum(full_hits) / len(full_hits),
        per_run_latency_ms=latencies,
        per_run_hit_ratio=hit_ratios,
        last_cache_snapshot=results[-1].cache_snapshot,
    )


def run_comparison(workload: WorkloadSpec, strategies: list[str], client_region: str,
                   cache_capacity_bytes: int, runs: int = 5,
                   agar_config: AgarNodeConfig | None = None,
                   client_config: ClientConfig | None = None,
                   topology: Topology | None = None,
                   topology_seed: int = 0,
                   warmup_requests: int = 0,
                   flush_between_runs: bool = False) -> dict[str, AggregatedResult]:
    """Run several strategies under identical conditions and aggregate each.

    This is the workhorse of the Fig. 6/7/8 experiments.

    Args:
        warmup_requests: per-run requests excluded from the statistics (0
            reproduces the paper, which includes cold misses).
        flush_between_runs: if True every repetition starts against a cold,
            freshly deployed system; the default False repeats runs against
            the same long-running deployment — the paper's warm-cache
            repetition.
    """
    configs = {
        strategy: SimulationConfig(
            workload=workload,
            client_region=client_region,
            strategy=strategy,
            cache_capacity_bytes=cache_capacity_bytes,
            agar=agar_config,
            client=client_config or ClientConfig(),
            topology_seed=topology_seed,
            warmup_requests=warmup_requests,
        )
        for strategy in strategies
    }
    return {
        strategy: Simulation(config, topology=topology).run_many(
            runs=runs, flush_between_runs=flush_between_runs)
        for strategy, config in configs.items()
    }
