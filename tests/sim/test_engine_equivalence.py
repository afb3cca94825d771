"""Bit-identical equivalence of the lane scheduler against the heap loop.

The PR that introduced the calendar/lane scheduler (``EventEngine.execute``)
kept the previous global-heap event loop verbatim as
``EventEngine.execute_reference``.  This suite drives both over every
supported deployment shape — closed loop, Poisson arrivals, multi-region,
heterogeneous strategies and cache sizes, collaboration, timer-driven and
piggybacked reconfiguration, warm repeated runs — and asserts the outcomes are
identical to the bit: latencies, hit counters, durations, per-read results and
cache snapshots.

It also pins down the determinism contract of the process-parallel sharded
path: the forked execution is bit-identical to the in-process fallback and to
itself across repetitions (each region shard draws jitter from its own
region-derived stream, so sharded results are reproducible but intentionally
not comparable to the shared-stream in-process interleaving).
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.client.resilience import ResilienceConfig
from repro.client.strategies import ClientConfig
from repro.sim.engine import (
    EngineConfig,
    EventEngine,
    RegionSpec,
)
from repro.sim.faults import AZFailure, BackendBrownout, FaultSchedule, RegionOutage
from repro.workload.workload import poisson_arrivals, zipfian_workload

MEGABYTE = 1024 * 1024

#: A deliberately aggressive resilience setting: the tight timeout factor
#: (the topology's σ is 0.06, so ~20% of chunk fetches overshoot 1.05× the
#: expectation) and the low hedge quantile make retries and hedges routine
#: within a 120-request run instead of tail events.
AGGRESSIVE_RESILIENCE = ResilienceConfig(
    retry_budget=2, timeout_factor=1.05, backoff_base_ms=4.0,
    hedge=True, hedge_quantile=0.7, hedge_min_samples=8,
)


def workload(requests: int = 120, objects: int = 30, seed: int = 11):
    return zipfian_workload(1.1, request_count=requests, object_count=objects, seed=seed)


def _shapes() -> dict[str, EngineConfig]:
    base = workload()
    return {
        "closed_1region_1client": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt"),),
            cache_capacity_bytes=5 * MEGABYTE,
        ),
        "closed_2regions_multiclient": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=4),
                     RegionSpec("sydney", clients=4)),
            cache_capacity_bytes=5 * MEGABYTE,
        ),
        "poisson_2regions": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=3),
                     RegionSpec("sydney", clients=3)),
            cache_capacity_bytes=5 * MEGABYTE,
            arrival=poisson_arrivals(4.0),
        ),
        "collaboration": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=4),
                     RegionSpec("sydney", clients=4)),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=True,
        ),
        "heterogeneous": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2, strategy="agar",
                                cache_capacity_bytes=8 * MEGABYTE),
                     RegionSpec("sydney", clients=2, strategy="lfu-5",
                                cache_capacity_bytes=2 * MEGABYTE)),
            cache_capacity_bytes=5 * MEGABYTE,
        ),
        "warmup_lru": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2, strategy="lru-5"),
                     RegionSpec("sydney", clients=2, strategy="lru-5")),
            cache_capacity_bytes=5 * MEGABYTE,
            warmup_requests=30,
        ),
        "timer_single_region": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt"),),
            cache_capacity_bytes=5 * MEGABYTE,
            timer_reconfiguration=True,
        ),
        "backend_poisson": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2, strategy="backend"),
                     RegionSpec("sydney", clients=2, strategy="backend")),
            cache_capacity_bytes=5 * MEGABYTE,
            arrival=poisson_arrivals(6.0),
        ),
        "faulted_outage": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("sydney", clients=2, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0)]),
        ),
        "faulted_mixed_timer": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
            timer_reconfiguration=True,
            faults=FaultSchedule([
                RegionOutage("sao_paulo", 10.0, 40.0),
                BackendBrownout("tokyo", 20.0, 60.0, multiplier=4.0),
                AZFailure("frankfurt", 30.0, 50.0),
            ]),
        ),
        "faulted_unavailable": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2, strategy="backend"),),
            cache_capacity_bytes=5 * MEGABYTE,
            faults=FaultSchedule([RegionOutage("sao_paulo", 5.0, 500.0),
                                  RegionOutage("n_virginia", 5.0, 500.0)]),
        ),
        "faulted_collaboration": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=True,
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 45.0)]),
        ),
        # Shapes forcing wave/block horizon truncation in the batched
        # drainer: the closed-loop backend shape drives the fully batched
        # wave dispatch (with warmup filtering), the brownout window forces
        # the mid-run fallback to per-event waves and the recovery back to
        # batched ones, and the mixed timer shape truncates waves at
        # reconfiguration timers between arrivals.
        "backend_closed_warmup": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=3, strategy="backend"),
                     RegionSpec("sydney", clients=3, strategy="backend")),
            cache_capacity_bytes=5 * MEGABYTE,
            warmup_requests=30,
        ),
        "faulted_brownout_backend_closed": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=3, strategy="backend"),),
            cache_capacity_bytes=5 * MEGABYTE,
            faults=FaultSchedule([BackendBrownout("n_virginia", 5.0, 20.0,
                                                  multiplier=3.0)]),
        ),
        "timer_mixed_closed": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=3),
                     RegionSpec("sydney", clients=3, strategy="backend")),
            cache_capacity_bytes=5 * MEGABYTE,
            timer_reconfiguration=True,
        ),
        # Resilience-tier shapes: retried/hedged reads layered over faults,
        # emergency (fault-reactive) reconfiguration, and hedging against a
        # heterogeneous deployment.  These must be bit-identical too — the
        # resilient composition draws extra jitter samples (redraws, hedges)
        # in a fixed order that both schedulers must reproduce.
        "resilient_retry_faulted": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
            client=ClientConfig(resilience=ResilienceConfig(
                retry_budget=2, timeout_factor=1.05, backoff_base_ms=4.0)),
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0),
                                  BackendBrownout("tokyo", 20.0, 60.0,
                                                  multiplier=4.0)]),
        ),
        "resilient_hedged": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("sydney", clients=2, strategy="lru-5")),
            cache_capacity_bytes=5 * MEGABYTE,
            client=ClientConfig(resilience=AGGRESSIVE_RESILIENCE),
        ),
        "resilient_emergency_reconfig": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
            timer_reconfiguration=True,
            client=ClientConfig(resilience=ResilienceConfig(
                retry_budget=1, timeout_factor=1.1,
                emergency_reconfiguration=True)),
            faults=FaultSchedule([RegionOutage("sao_paulo", 8.0, 25.0)]),
        ),
        "faulted_collaboration_darked": EngineConfig(
            workload=base,
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=True,
            # The AZ failure hits a *client* region, so the provenance-aware
            # catalogs must dark exactly dublin's entries in frankfurt's
            # neighbour view (and vice versa nothing).
            faults=FaultSchedule([AZFailure("dublin", 15.0, 45.0)]),
        ),
    }


def assert_results_identical(fast, reference):
    """Assert two EngineResults are identical to the bit."""
    assert fast.duration_s == reference.duration_s
    assert set(fast.regions) == set(reference.regions)
    for region in fast.regions:
        fast_region = fast.regions[region]
        reference_region = reference.regions[region]
        assert np.array_equal(fast_region.stats.latencies_array(),
                              reference_region.stats.latencies_array())
        for counter in ("full_hits", "partial_hits", "misses",
                        "cache_chunks_total", "backend_chunks_total",
                        "neighbor_chunks_total", "degraded_reads",
                        "unavailable_reads", "retries_total",
                        "hedged_reads", "hedge_wins"):
            assert getattr(fast_region.stats, counter) == \
                getattr(reference_region.stats, counter), (region, counter)
        assert fast_region.results == reference_region.results
        assert (fast_region.cache_snapshot is None) == \
            (reference_region.cache_snapshot is None)
        if fast_region.cache_snapshot is not None:
            assert fast_region.cache_snapshot.chunks_per_key == \
                reference_region.cache_snapshot.chunks_per_key


def run_both(config: EngineConfig, seeds=(3, 4)):
    """Run execute and execute_reference over the same (warm) deployment."""
    outcomes = []
    for method in ("execute", "execute_reference"):
        engine = EventEngine(config, keep_results=True)
        engine.topology.latency.reseed(config.topology_seed + seeds[0])
        deployment = engine.build_deployment()
        outcomes.append([getattr(engine, method)(deployment, seed) for seed in seeds])
    return outcomes


class TestLaneSchedulerEquivalence:
    """execute must reproduce execute_reference bit-for-bit on every shape."""

    @pytest.mark.parametrize("shape", sorted(_shapes()))
    def test_bit_identical(self, shape):
        config = _shapes()[shape]
        fast_runs, reference_runs = run_both(config)
        for fast, reference in zip(fast_runs, reference_runs):
            assert_results_identical(fast, reference)

    @pytest.mark.parametrize("strategy", ["backend", "lru-5", "lfu-5",
                                          "lfu-online-3", "agar"])
    def test_bit_identical_per_strategy(self, strategy):
        config = EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=3, strategy=strategy),
                     RegionSpec("sydney", clients=3, strategy=strategy)),
            cache_capacity_bytes=5 * MEGABYTE,
        )
        fast_runs, reference_runs = run_both(config)
        for fast, reference in zip(fast_runs, reference_runs):
            assert_results_identical(fast, reference)

    @pytest.mark.parametrize("strategy", ["lru-5", "lfu-5", "agar"])
    def test_bit_identical_zero_jitter(self, strategy):
        """Zero-jitter topologies make exact event-time ties routine (every
        read of a key costs the same), so this shape exercises the lane
        scheduler's insertion-order tie-breaking against the reference heap."""
        from repro.geo.topology import default_topology, table1_topology

        for factory in (lambda: default_topology(seed=0, jitter=0.0),
                        lambda: table1_topology(seed=0)):
            config = EngineConfig(
                workload=workload(requests=80),
                regions=(RegionSpec("frankfurt", clients=4, strategy=strategy),
                         RegionSpec("sydney", clients=4, strategy=strategy)),
                cache_capacity_bytes=5 * MEGABYTE,
            )
            outcomes = []
            for method in ("execute", "execute_reference"):
                topology = factory()
                assert not topology.latency.fully_jittered
                engine = EventEngine(config, topology=topology, keep_results=True)
                deployment = engine.build_deployment()
                outcomes.append(getattr(engine, method)(deployment, 3))
            assert_results_identical(*outcomes)

    @pytest.mark.parametrize("shape", ["backend_closed_warmup",
                                       "faulted_brownout_backend_closed",
                                       "closed_2regions_multiclient"])
    def test_bit_identical_unkept_stats(self, shape):
        """Without kept results the wave dispatcher records uniform miss
        blocks straight into the stats buffer (no ReadResult objects); the
        recorded latencies and counters must still match the reference."""
        config = _shapes()[shape]
        outcomes = []
        for method in ("execute", "execute_reference"):
            engine = EventEngine(config, keep_results=False)
            engine.topology.latency.reseed(config.topology_seed + 3)
            deployment = engine.build_deployment()
            outcomes.append(getattr(engine, method)(deployment, 3))
        assert_results_identical(*outcomes)

    def test_run_uses_lane_scheduler(self):
        """EventEngine.run (the public cold-run entry) equals the reference."""
        config = _shapes()["closed_2regions_multiclient"]
        via_run = EventEngine(config, keep_results=True).run(seed=5)

        engine = EventEngine(config, keep_results=True)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        reference = engine.execute_reference(deployment, 5)
        assert_results_identical(via_run, reference)


class TestResilienceEquivalence:
    """The resilient read path (retries, hedges, emergency reconfiguration)
    must stay bit-identical across all three execution paths, and the
    equivalence shapes must actually exercise it (non-vacuous counters)."""

    def resilient_config(self, **overrides):
        defaults = dict(
            workload=workload(),
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
            client=ClientConfig(resilience=AGGRESSIVE_RESILIENCE),
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0)]),
        )
        defaults.update(overrides)
        return EngineConfig(**defaults)

    def test_shapes_exercise_retries_and_hedges(self):
        """Guard against vacuous equivalence: the aggressive resilience
        shapes must produce nonzero retry and hedge counters."""
        fast_runs, _ = run_both(_shapes()["resilient_retry_faulted"])
        assert fast_runs[0].overall_stats().retries_total > 0

        fast_runs, _ = run_both(_shapes()["resilient_hedged"])
        stats = fast_runs[0].overall_stats()
        assert stats.hedged_reads > 0
        assert stats.hedge_wins <= stats.hedged_reads

    def test_emergency_reconfiguration_fires(self):
        """With emergency reconfiguration on, the agar nodes must re-solve on
        both the outage onset and the recovery."""
        config = _shapes()["resilient_emergency_reconfig"]
        engine = EventEngine(config, keep_results=True)
        engine.topology.latency.reseed(config.topology_seed + 3)
        deployment = engine.build_deployment()
        engine.execute(deployment, 3)
        for strategy in deployment.strategies:
            node = strategy.node
            assert node.emergency_reconfigurations >= 2
            lags = node.fault_reaction_lags_s
            assert lags and max(lags) == pytest.approx(0.0, abs=1e-9)

    def test_resilient_fork_matches_in_process_fallback(self):
        config = self.resilient_config()
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)
        assert forked.overall_stats().hedged_reads > 0

    def test_resilient_sharded_is_reproducible(self):
        config = self.resilient_config()
        first = EventEngine(config).run_sharded(seed=5)
        second = EventEngine(config).run_sharded(seed=5)
        assert_results_identical(first, second)

    def test_resilient_split_region_fork_matches_in_process(self):
        config = self.resilient_config(
            regions=(RegionSpec("frankfurt", clients=4, shards=2),
                     RegionSpec("dublin", clients=2)),
        )
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)

    def test_resilient_collaborative_fork_matches_in_process(self):
        """Hedged reads over per-neighbour (provenance-aware) catalogs with a
        client-region AZ failure: the round protocol's catalogs and the
        resilient composition must agree across fork and in-process."""
        config = self.resilient_config(
            collaboration=True,
            faults=FaultSchedule([AZFailure("dublin", 15.0, 45.0)]),
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("dublin", clients=2)),
        )
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)


class TestShardedDeterminism:
    """The process-parallel path must match its in-process twin bit-for-bit."""

    def sharded_config(self):
        return EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=4),
                     RegionSpec("sydney", clients=4, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
        )

    def test_fork_matches_in_process_fallback(self):
        config = self.sharded_config()
        forked = EventEngine(config).run_sharded(seed=5, processes=True)
        sequential = EventEngine(config).run_sharded(seed=5, processes=False)
        assert_results_identical(forked, sequential)

    def test_sharded_is_reproducible(self):
        config = self.sharded_config()
        first = EventEngine(config).run_sharded(seed=5)
        second = EventEngine(config).run_sharded(seed=5)
        assert_results_identical(first, second)

    def test_sharded_preserves_client_streams(self):
        """Sharding changes jitter streams (and with them the interleaving of
        a region's clients), but not the request streams themselves: each
        region replays exactly the same multiset of reads as in-process."""
        config = self.sharded_config()
        sharded = EventEngine(config, keep_results=True).run_sharded(seed=5)
        engine = EventEngine(config, keep_results=True)
        in_process = engine.run(seed=5)
        for region in sharded.regions:
            sharded_keys = sorted(r.key for r in sharded.regions[region].results)
            in_process_keys = sorted(r.key for r in in_process.regions[region].results)
            assert sharded_keys == in_process_keys

    def test_faulted_fork_matches_in_process_fallback(self):
        config = EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=4),
                     RegionSpec("dublin", clients=4, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0),
                                  BackendBrownout("tokyo", 15.0, 50.0)]),
        )
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)
        assert forked.overall_stats().degraded_reads > 0

    def test_faulted_sharded_is_reproducible(self):
        config = EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=4),
                     RegionSpec("dublin", clients=4)),
            cache_capacity_bytes=5 * MEGABYTE,
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0)]),
        )
        first = EventEngine(config).run_sharded(seed=5)
        second = EventEngine(config).run_sharded(seed=5)
        assert_results_identical(first, second)

    def test_parent_deployment_left_cold(self):
        """Sharded workers mutate copies; the caller's deployment stays cold."""
        config = self.sharded_config()
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        engine.execute_sharded(deployment, 5)
        for strategy in deployment.strategies:
            snapshot = strategy.cache_snapshot()
            if snapshot is not None:
                assert not snapshot.chunks_per_key


class TestIntraRegionSharding:
    """``RegionSpec.shards`` splits one region's clients across several
    workers.  Sub-shard 0 reuses the region's historical jitter seed, so
    ``shards=1`` stays bit-identical to the pre-sharding contract; higher
    sub-shards derive independent streams, so splitting changes jitter
    interleavings but must never change the request streams themselves."""

    def split_config(self, shards=2, clients=6, requests=80):
        return EngineConfig(
            workload=workload(requests=requests),
            regions=(RegionSpec("frankfurt", clients=clients, shards=shards),
                     RegionSpec("sydney", clients=4, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
        )

    def test_fork_matches_in_process_fallback(self):
        config = self.split_config()
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)

    def test_split_region_is_reproducible(self):
        config = self.split_config(shards=3)
        first = EventEngine(config).run_sharded(seed=5)
        second = EventEngine(config).run_sharded(seed=5)
        assert_results_identical(first, second)

    def test_single_shard_matches_historical_seeding(self):
        """shards=1 must be bit-identical to a spec without the field."""
        explicit = self.split_config(shards=1)
        implicit = EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=6),
                     RegionSpec("sydney", clients=4, strategy="lfu-5")),
            cache_capacity_bytes=5 * MEGABYTE,
        )
        first = EventEngine(explicit, keep_results=True).run_sharded(seed=5)
        second = EventEngine(implicit, keep_results=True).run_sharded(seed=5)
        assert_results_identical(first, second)

    def test_split_preserves_request_streams(self):
        """Splitting a region redistributes its clients, not their reads:
        the merged region replays the same multiset of requests (and total
        count) as the unsplit run, and the merged stats account for every
        sub-shard's clients."""
        whole = EventEngine(self.split_config(shards=1),
                            keep_results=True).run_sharded(seed=5)
        split = EventEngine(self.split_config(shards=3),
                            keep_results=True).run_sharded(seed=5)
        for region in whole.regions:
            whole_keys = sorted(r.key for r in whole.regions[region].results)
            split_keys = sorted(r.key for r in split.regions[region].results)
            assert split_keys == whole_keys
        merged = split.regions["frankfurt"]
        assert merged.clients == 6
        assert merged.stats.count == whole.regions["frankfurt"].stats.count

    def test_uneven_split_covers_every_client(self):
        """clients not divisible by shards still covers each client once."""
        config = self.split_config(shards=4, clients=6)
        split = EventEngine(config, keep_results=True).run_sharded(seed=5)
        whole = EventEngine(self.split_config(shards=1, clients=6),
                            keep_results=True).run_sharded(seed=5)
        assert split.regions["frankfurt"].stats.count == \
            whole.regions["frankfurt"].stats.count

    def test_faulted_split_fork_matches_in_process(self):
        config = EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=6, shards=2),
                     RegionSpec("dublin", clients=4)),
            cache_capacity_bytes=5 * MEGABYTE,
            faults=FaultSchedule([RegionOutage("sao_paulo", 10.0, 40.0)]),
        )
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)

    def test_shards_validation(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            RegionSpec("frankfurt", clients=4, shards=0)
        with pytest.raises(ValueError, match="shards cannot exceed clients"):
            RegionSpec("frankfurt", clients=2, shards=3)


class TestCollaborativeSharding:
    """§VI deployments shard through the message-passing round protocol:
    workers pause at collaboration-period boundaries, exchange announcements
    with the parent, apply their share of the staggered round and resume.
    The forked path must match the in-process protocol bit-for-bit."""

    def collab_config(self, regions=("frankfurt", "sydney"), clients=4,
                      requests=120, **kwargs):
        return EngineConfig(
            workload=workload(requests=requests),
            regions=tuple(RegionSpec(region, clients=clients) for region in regions),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=True,
            **kwargs,
        )

    def test_fork_matches_in_process_protocol(self):
        config = self.collab_config()
        forked = EventEngine(config, keep_results=True).run_sharded(seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(seed=5, processes=False)
        assert_results_identical(forked, sequential)

    def test_fork_matches_in_process_three_regions(self):
        """Three regions exercise the staggered-round ordering: region i's
        round must see the new configurations of regions < i and the previous
        configurations of regions > i."""
        config = self.collab_config(regions=("frankfurt", "dublin", "sydney"),
                                    clients=2, requests=90)
        forked = EventEngine(config, keep_results=True).run_sharded(seed=7, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(seed=7, processes=False)
        assert_results_identical(forked, sequential)

    def test_reproducible(self):
        config = self.collab_config()
        first = EventEngine(config).run_sharded(seed=5)
        second = EventEngine(config).run_sharded(seed=5)
        assert_results_identical(first, second)

    def test_collaboration_period_override(self):
        config = self.collab_config(collaboration_period_s=10.0)
        forked = EventEngine(config, keep_results=True).run_sharded(seed=3, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(seed=3, processes=False)
        assert_results_identical(forked, sequential)

    def test_rounds_change_the_outcome(self):
        """The exchange rounds must actually happen: a collaborative sharded
        run differs from the same deployment with collaboration disabled
        (same per-shard jitter streams, so any difference comes from the
        discounted configurations)."""
        collab = EventEngine(self.collab_config()).run_sharded(seed=5, processes=False)
        independent_config = EngineConfig(
            workload=workload(requests=120),
            regions=(RegionSpec("frankfurt", clients=4),
                     RegionSpec("sydney", clients=4)),
            cache_capacity_bytes=5 * MEGABYTE,
            timer_reconfiguration=True,
        )
        independent = EventEngine(independent_config).run_sharded(seed=5, processes=False)
        assert any(
            collab.regions[region].stats.latencies_array().tolist()
            != independent.regions[region].stats.latencies_array().tolist()
            for region in collab.regions
        )

    def test_publishes_final_announcements(self):
        """The parent coordinator receives the workers' final configurations
        (for overlap reporting) while the parent deployment itself stays cold."""
        config = self.collab_config()
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        engine.execute_sharded(deployment, 5)
        announcements = deployment.coordinator.announcements()
        assert {a.region for a in announcements} == {"frankfurt", "sydney"}
        assert any(a.pinned_chunks for a in announcements)
        overlap = deployment.coordinator.latest_overlap()
        assert ("frankfurt", "sydney") in overlap
        for strategy in deployment.strategies:
            assert not strategy.cache_snapshot().chunks_per_key

    def test_single_region_collaborative(self):
        """A one-region §VI deployment degenerates to rounds with no
        neighbours; the sharded path must still run it (local protocol)."""
        config = self.collab_config(regions=("frankfurt",), clients=2, requests=60)
        sharded = EventEngine(config).run_sharded(seed=2)
        assert sharded.regions["frankfurt"].stats.count == 2 * 60

    def test_intra_region_split_fork_matches_in_process(self):
        """A region split across sub-shards still runs the round protocol:
        every sub-shard receives the region's neighbour catalogs, sub-shard 0
        is the region's designated announcer, and the forked path matches the
        in-process one bit-for-bit."""
        config = EngineConfig(
            workload=workload(requests=90),
            regions=(RegionSpec("frankfurt", clients=4, shards=2),
                     RegionSpec("sydney", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=True,
        )
        forked = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=True)
        sequential = EventEngine(config, keep_results=True).run_sharded(
            seed=5, processes=False)
        assert_results_identical(forked, sequential)
        assert forked.regions["frankfurt"].stats.count == 4 * 90

    def test_intra_region_split_publishes_announcements(self):
        config = EngineConfig(
            workload=workload(requests=90),
            regions=(RegionSpec("frankfurt", clients=4, shards=2),
                     RegionSpec("sydney", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=True,
        )
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        engine.execute_sharded(deployment, 5)
        announcements = deployment.coordinator.announcements()
        assert {a.region for a in announcements} == {"frankfurt", "sydney"}

    def test_warm_deployment_runs_from_current_clock(self):
        """Boundaries are anchored at the deployment clock's current time, so
        repeated sharded runs against one parent deployment stay aligned."""
        config = self.collab_config(requests=60, clients=2)
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        first = engine.execute_sharded(deployment, 5, processes=False)
        second = engine.execute_sharded(deployment, 5, processes=False)
        assert first.total_requests == second.total_requests == 2 * 2 * 60


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fork start method is unavailable")
class TestShardFailures:
    """A forked worker that fails or dies raises in the caller and takes its
    siblings with it, whether or not the deployment collaborates."""

    #: How long the healthy sibling stalls in its first read — far longer
    #: than the failure takes to reach the parent, so an orphan is caught.
    STALL_S = 5.0

    def failing_deployment(self, fail, shards=1, collaboration=False):
        """Region 0's reads call ``fail``; region 1 outlives the failure."""
        config = EngineConfig(
            workload=workload(requests=80),
            regions=(RegionSpec("frankfurt", clients=4, shards=shards),
                     RegionSpec("sydney", clients=4)),
            cache_capacity_bytes=5 * MEGABYTE,
            collaboration=collaboration,
        )
        engine = EventEngine(config)
        engine.topology.latency.reseed(config.topology_seed + 5)
        deployment = engine.build_deployment()
        failing, healthy = deployment.strategies
        failing.read_indexed = fail
        healthy_read = healthy.read_indexed
        pending = [self.STALL_S]

        def stalled(key_index, now):
            if pending:
                time.sleep(pending.pop())
            return healthy_read(key_index, now)

        healthy.read_indexed = stalled
        return engine, deployment

    @staticmethod
    def boom(key_index, now):
        raise LookupError(f"no plan for key {key_index}")

    @pytest.mark.parametrize("collaboration", [False, True],
                             ids=["independent", "collaborative"])
    @pytest.mark.parametrize("shards", [1, 2], ids=["whole", "split"])
    def test_failing_shard_raises_and_leaves_no_worker(self, shards, collaboration):
        engine, deployment = self.failing_deployment(
            self.boom, shards=shards, collaboration=collaboration)
        started = time.monotonic()
        with pytest.raises(LookupError, match="no plan for key"):
            engine.execute_sharded(deployment, 5, processes=True)
        assert time.monotonic() - started < self.STALL_S
        assert multiprocessing.active_children() == []

    def test_failure_before_the_first_command(self):
        """A worker that fails while building its shard may have hung up
        before the parent's first send; the caller still gets its error."""
        engine, deployment = self.failing_deployment(self.boom)

        def unprepared(keys):
            raise LookupError(f"cannot prepare {len(keys)} keys")

        deployment.strategies[0].prepare_indexed_reads = unprepared
        with pytest.raises(LookupError, match="cannot prepare 30 keys"):
            engine.execute_sharded(deployment, 5, processes=True)
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_named(self):
        """A worker that exits without replying is reported by region,
        sub-shard and exit code — not as a bare ``EOFError``."""
        engine, deployment = self.failing_deployment(
            lambda key_index, now: os._exit(3), shards=2)
        with pytest.raises(RuntimeError,
                           match=r"'frankfurt'.*sub-shard 0.*exit code 3"):
            engine.execute_sharded(deployment, 5, processes=True)
        assert multiprocessing.active_children() == []


class TestDeploymentAggregate:
    def test_aggregate_merges_regions(self):
        config = EngineConfig(
            workload=workload(requests=60),
            regions=(RegionSpec("frankfurt", clients=2),
                     RegionSpec("sydney", clients=2)),
            cache_capacity_bytes=5 * MEGABYTE,
        )
        result = EventEngine(config).run(seed=2)
        aggregate = result.aggregate()
        assert aggregate.requests == result.total_requests == 4 * 60
        assert aggregate.throughput_rps == pytest.approx(result.throughput_rps)
        assert 0.0 <= aggregate.hit_ratio <= 1.0
        assert aggregate.p50_latency_ms <= aggregate.p95_latency_ms \
            <= aggregate.p99_latency_ms
        merged = result.overall_stats()
        assert aggregate.p99_latency_ms == merged.p99_latency_ms
        assert aggregate.mean_latency_ms == pytest.approx(merged.mean_latency_ms)

    def test_region_capacity_override(self):
        spec = RegionSpec("frankfurt", cache_capacity_bytes=2 * MEGABYTE)
        config = EngineConfig(
            workload=workload(requests=30),
            regions=(spec, RegionSpec("sydney")),
            cache_capacity_bytes=8 * MEGABYTE,
        )
        deployment = EventEngine(config).build_deployment()
        frankfurt, sydney = deployment.strategies
        assert frankfurt.cache.capacity_bytes == 2 * MEGABYTE
        assert sydney.cache.capacity_bytes == 8 * MEGABYTE

    def test_region_capacity_validation(self):
        with pytest.raises(ValueError):
            RegionSpec("frankfurt", cache_capacity_bytes=0)
