"""Fault injection: schedules, degraded reads, availability and recovery.

Covers the `repro.sim.faults` timeline compiler, the strategies' degraded
read path (re-planning against survivors, counted failures below ``k``
reachable chunks, brownout multipliers, AZ cache skips), the engine-level
invariants (degraded reads only during the outage, zero request failures
while at least ``k`` chunks remain reachable) and the windowed latency
series used by the recovery reports.  The bit-identity of faulted runs
across the three execution paths lives in ``test_engine_equivalence.py``.
"""

import itertools
import math

import pytest

from repro.backend import ErasureCodedStore
from repro.client.stats import (
    HitType,
    LatencyStats,
    ReadResult,
    windowed_latency_series,
)
from repro.client.resilience import ResilienceConfig
from repro.client.strategies import (
    AgarReadStrategy,
    BackendReadStrategy,
    ClientConfig,
    FixedChunkCachingStrategy,
)
from repro.erasure import DecodingError, ErasureCodingParams
from repro.geo import default_topology
from repro.sim.engine import EngineConfig, EventEngine, RegionSpec
from repro.sim.faults import (
    CLEAR_STATE,
    AZFailure,
    BackendBrownout,
    FaultSchedule,
    FaultState,
    RegionOutage,
)
from repro.workload.workload import zipfian_workload

MEGABYTE = 1024 * 1024

#: Regions hosting the five chunks of an RS(3, 2) object, in chunk order.
SMALL_CHUNK_REGIONS = ("frankfurt", "dublin", "n_virginia", "sao_paulo", "tokyo")


class TestFaultSchedule:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            RegionOutage("tokyo", start_s=-1.0, end_s=5.0)
        with pytest.raises(ValueError):
            RegionOutage("tokyo", start_s=5.0, end_s=5.0)
        with pytest.raises(ValueError):
            BackendBrownout("tokyo", start_s=0.0, end_s=5.0, multiplier=0.0)

    @pytest.mark.parametrize("fault_type",
                             (RegionOutage, BackendBrownout, AZFailure))
    @pytest.mark.parametrize("bound", ("start_s", "end_s"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf),
                             ids=("nan", "inf", "-inf"))
    def test_non_finite_window_bound_refused(self, fault_type, bound, value):
        window = {"start_s": 10.0, "end_s": 20.0, bound: value}
        with pytest.raises(ValueError, match="finite"):
            fault_type("sydney", **window)

    @pytest.mark.parametrize("multiplier", (math.nan, math.inf),
                             ids=("nan", "inf"))
    def test_non_finite_multiplier_refused(self, multiplier):
        with pytest.raises(ValueError, match="finite"):
            BackendBrownout("tokyo", 0.0, 5.0, multiplier=multiplier)

    def test_empty_schedule(self):
        schedule = FaultSchedule([])
        assert schedule.is_empty
        assert schedule.initial_state is CLEAR_STATE or \
            schedule.initial_state.is_clear
        assert schedule.transitions == ()
        assert schedule.state_at(100.0).is_clear

    def test_timeline_states_are_complete(self):
        schedule = FaultSchedule([
            RegionOutage("sydney", 10.0, 30.0),
            BackendBrownout("tokyo", 20.0, 40.0, multiplier=3.0),
        ])
        assert schedule.initial_state.is_clear
        assert schedule.state_at(15.0).down_backends == frozenset({"sydney"})
        mid = schedule.state_at(25.0)
        assert mid.down_backends == frozenset({"sydney"})
        assert mid.brownouts == (("tokyo", 3.0),)
        late = schedule.state_at(35.0)
        assert late.down_backends == frozenset()
        assert late.brownouts == (("tokyo", 3.0),)
        assert schedule.state_at(40.0).is_clear
        # Boundaries are [start, end): active at start, clear at end.
        assert schedule.state_at(10.0).down_backends == frozenset({"sydney"})
        assert schedule.state_at(30.0).down_backends == frozenset()

    def test_overlapping_brownouts_rejected(self):
        with pytest.raises(ValueError, match="overlapping BackendBrownout"):
            FaultSchedule([
                BackendBrownout("tokyo", 0.0, 10.0, multiplier=2.0),
                BackendBrownout("tokyo", 5.0, 15.0, multiplier=3.0),
            ])

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ValueError, match="overlapping RegionOutage"):
            FaultSchedule([
                RegionOutage("tokyo", 0.0, 10.0),
                RegionOutage("tokyo", 9.0, 20.0),
            ])

    def test_adjacent_and_cross_region_windows_allowed(self):
        # Back-to-back windows ([a, b) then [b, c)) and same-window faults of
        # different kinds or regions still compose.
        schedule = FaultSchedule([
            RegionOutage("tokyo", 0.0, 10.0),
            RegionOutage("tokyo", 10.0, 20.0),
            RegionOutage("sydney", 5.0, 15.0),
            BackendBrownout("tokyo", 5.0, 15.0, multiplier=2.0),
        ])
        mid = schedule.state_at(12.0)
        assert mid.down_backends == frozenset({"tokyo", "sydney"})
        assert dict(mid.brownouts)["tokyo"] == pytest.approx(2.0)

    def test_describe_lists_every_window(self):
        schedule = FaultSchedule([
            BackendBrownout("tokyo", 20.0, 40.0, multiplier=3.0),
            RegionOutage("sydney", 10.0, 30.0),
            AZFailure("frankfurt", 5.0, 8.0),
        ])
        text = schedule.describe()
        lines = text.splitlines()
        assert lines[0] == "fault schedule:"
        assert len(lines) == 6  # title, header, rule, three windows
        # Sorted by start time; details name the disturbance semantics.
        assert "AZFailure" in lines[3] and "cache + backend down" in lines[3]
        assert "RegionOutage" in lines[4] and "backend down" in lines[4]
        assert "BackendBrownout" in lines[5] and "latency x3" in lines[5]
        assert "[20, 40)" in lines[5]

    def test_describe_empty(self):
        assert FaultSchedule([]).describe() == "fault schedule: (empty)"

    def test_az_failure_downs_cache_and_backend(self):
        schedule = FaultSchedule([AZFailure("frankfurt", 0.0, 10.0)])
        state = schedule.state_at(5.0)
        assert "frankfurt" in state.down_backends
        assert "frankfurt" in state.down_caches

    def test_regions_and_end(self):
        schedule = FaultSchedule([
            RegionOutage("sydney", 10.0, 30.0),
            AZFailure("frankfurt", 5.0, 8.0),
        ])
        assert schedule.regions() == frozenset({"sydney", "frankfurt"})
        assert schedule.end_s == 30.0


@pytest.fixture
def small_store(topology):
    """RS(3, 2): five real-payload chunks, one per region (sydney hosts none)."""
    store = ErasureCodedStore(topology, params=ErasureCodingParams(3, 2))
    payload = bytes(range(256)) * 12
    store.put("obj", payload)
    store._payload = payload  # stashed for round-trip assertions
    return store


def outage_state(*regions: str) -> FaultState:
    return FaultState(down_backends=frozenset(regions))


class TestSurvivorPatterns:
    """Every pattern of lost regions down to exactly k chunks must decode."""

    @pytest.mark.parametrize("down", [
        combo
        for size in (1, 2)
        for combo in itertools.combinations(SMALL_CHUNK_REGIONS, size)
    ])
    def test_reads_succeed_with_at_least_k_chunks(self, small_store, down):
        strategy = BackendReadStrategy(small_store, "frankfurt")
        strategy.set_fault_state(outage_state(*down))
        result = strategy.read("obj", now=0.0)
        assert not result.failed
        assert result.chunks_from_backend == 3
        assert not set(down) & set(result.backend_regions)
        # The failure-free plan uses the nearest three (frankfurt, dublin,
        # n_virginia); the read degrades exactly when that plan was touched.
        planned = {"frankfurt", "dublin", "n_virginia"}
        assert result.degraded == bool(set(down) & planned)
        # The surviving chunks really decode back to the payload.
        metadata = small_store.metadata("obj")
        survivors = {
            index: small_store.get_chunk("obj", index)
            for index, region in enumerate(SMALL_CHUNK_REGIONS)
            if region not in down
        }
        decoded = small_store.codec.decode(
            metadata, dict(list(survivors.items())[:3]))
        assert decoded == small_store._payload

    @pytest.mark.parametrize("down", [
        combo for combo in itertools.combinations(SMALL_CHUNK_REGIONS, 3)
    ])
    def test_reads_fail_below_k_chunks(self, small_store, down):
        strategy = BackendReadStrategy(small_store, "frankfurt")
        strategy.set_fault_state(outage_state(*down))
        result = strategy.read("obj", now=0.0)
        assert result.failed
        assert result.hit_type is HitType.MISS
        assert result.chunks_from_backend == 0
        assert result.backend_regions == ()
        metadata = small_store.metadata("obj")
        survivors = {
            index: small_store.get_chunk("obj", index)
            for index, region in enumerate(SMALL_CHUNK_REGIONS)
            if region not in down
        }
        with pytest.raises(DecodingError):
            small_store.codec.decode(metadata, survivors)

    @pytest.mark.parametrize("down", [
        combo
        for size in (1, 2, 3)
        for combo in itertools.combinations(SMALL_CHUNK_REGIONS, size)
    ])
    def test_indexed_path_matches_string_path(self, small_store, down):
        direct = BackendReadStrategy(small_store, "frankfurt")
        indexed = BackendReadStrategy(small_store, "frankfurt")
        indexed.prepare_indexed_reads(["obj"])
        direct.set_fault_state(outage_state(*down))
        indexed.set_fault_state(outage_state(*down))
        assert indexed.read_indexed(0, 0.0) == direct.read("obj", 0.0)

    def test_clearing_state_restores_failure_free_plan(self, small_store):
        strategy = BackendReadStrategy(small_store, "frankfurt")
        clean = strategy.read("obj", now=0.0)
        strategy.set_fault_state(outage_state("dublin"))
        degraded = strategy.read("obj", now=1.0)
        assert degraded.degraded
        strategy.set_fault_state(None)
        restored = strategy.read("obj", now=2.0)
        assert not restored.degraded
        assert restored.backend_regions == clean.backend_regions


class TestBrownout:
    def brownout_state(self, region, multiplier):
        return FaultState(brownouts=((region, multiplier),))

    def test_multiplier_slows_planned_region(self, store):
        clean = BackendReadStrategy(store, "frankfurt")
        slowed = BackendReadStrategy(store, "frankfurt")
        slowed.set_fault_state(self.brownout_state("tokyo", 5.0))
        clean_result = clean.read("object-0", now=0.0)
        slowed_result = slowed.read("object-0", now=0.0)
        assert slowed_result.latency_ms > clean_result.latency_ms
        assert not slowed_result.degraded
        assert not slowed_result.failed
        assert slowed_result.backend_regions == clean_result.backend_regions

    def test_unplanned_region_brownout_is_free(self, store):
        clean = BackendReadStrategy(store, "frankfurt")
        slowed = BackendReadStrategy(store, "frankfurt")
        # Sydney's chunks are discarded by the failure-free RS(9, 3) plan.
        slowed.set_fault_state(self.brownout_state("sydney", 10.0))
        assert slowed.read("object-0", 0.0) == clean.read("object-0", 0.0)


class TestAZFailure:
    def az_state(self, region):
        return FaultState(down_backends=frozenset({region}),
                          down_caches=frozenset({region}))

    def test_cache_skipped_while_az_down(self, store):
        strategy = FixedChunkCachingStrategy(store, "frankfurt", 10 * MEGABYTE,
                                             chunks_per_object=5, policy="lru")
        strategy.read("object-0", now=0.0)
        warm = strategy.read("object-0", now=1.0)
        assert warm.chunks_from_cache == 5
        strategy.set_fault_state(self.az_state("frankfurt"))
        dark = strategy.read("object-0", now=2.0)
        assert dark.chunks_from_cache == 0
        assert dark.degraded
        assert not dark.failed
        strategy.set_fault_state(CLEAR_STATE)
        recovered = strategy.read("object-0", now=3.0)
        assert recovered.chunks_from_cache == 5
        assert not recovered.degraded

    def test_remote_az_failure_leaves_cache_alone(self, store):
        strategy = FixedChunkCachingStrategy(store, "frankfurt", 10 * MEGABYTE,
                                             chunks_per_object=5, policy="lru")
        strategy.read("object-0", now=0.0)
        # Dublin sits in the warm read's backend share (the cache pins the
        # five most distant chunks, so the remaining plan is the nearest
        # four: frankfurt's and dublin's).
        strategy.set_fault_state(self.az_state("dublin"))
        result = strategy.read("object-0", now=1.0)
        assert result.chunks_from_cache == 5
        assert result.degraded  # the backend share re-planned around dublin
        assert "dublin" not in result.backend_regions

    def test_agar_control_plane_survives_az_failure(self, store):
        strategy = AgarReadStrategy(store, "frankfurt", 10 * MEGABYTE)
        strategy.set_fault_state(self.az_state("frankfurt"))
        before = strategy.node.request_monitor.requests_seen
        result = strategy.read("object-0", now=0.0)
        assert not result.failed
        # Popularity tracking keeps running while the cache is dark.
        assert strategy.node.request_monitor.requests_seen == before + 1


def engine_config(faults, strategy="agar", regions=("frankfurt", "dublin"),
                  requests=150):
    return EngineConfig(
        workload=zipfian_workload(1.1, request_count=requests, object_count=30,
                                  seed=11),
        regions=tuple(RegionSpec(region, clients=2, strategy=strategy)
                      for region in regions),
        cache_capacity_bytes=5 * MEGABYTE,
        faults=faults,
    )


class TestEngineFaulted:
    def test_degraded_only_during_outage_and_no_failures(self):
        outage = RegionOutage("sao_paulo", 10.0, 50.0)
        config = engine_config(FaultSchedule([outage]))
        engine = EventEngine(config, keep_results=True)
        result = engine.run(seed=5)
        stats = result.overall_stats()
        assert stats.degraded_reads > 0
        assert stats.unavailable_reads == 0
        for region_result in result.regions.values():
            for read in region_result.results:
                if read.degraded:
                    assert outage.start_s <= read.started_at_s < outage.end_s

    def test_two_regions_down_fails_reads(self):
        faults = FaultSchedule([RegionOutage("sao_paulo", 5.0, 500.0),
                                RegionOutage("n_virginia", 5.0, 500.0)])
        config = engine_config(faults, strategy="backend",
                               regions=("frankfurt",))
        result = EventEngine(config).run(seed=5)
        stats = result.overall_stats()
        assert stats.unavailable_reads > 0
        # Counted as unavailable, not as latency samples.
        assert stats.count + stats.unavailable_reads == config.workload.request_count * 2

    def test_faulted_run_is_deterministic(self):
        config = engine_config(FaultSchedule([RegionOutage("sao_paulo", 10.0, 50.0)]))
        first = EventEngine(config).run(seed=5)
        second = EventEngine(config).run(seed=5)
        assert first.overall_stats().summary() == second.overall_stats().summary()

    def test_unknown_fault_region_rejected(self):
        config = engine_config(FaultSchedule([RegionOutage("mars", 0.0, 10.0)]))
        with pytest.raises(KeyError):
            EventEngine(config)

    def test_summary_reports_fault_counters(self):
        config = engine_config(FaultSchedule([RegionOutage("sao_paulo", 10.0, 50.0)]))
        summary = EventEngine(config).run(seed=5).overall_stats().summary()
        assert summary["degraded_reads"] > 0
        assert summary["unavailable_reads"] == 0


class TestProvenanceCatalogs:
    """Provenance-aware neighbour catalogs: a remote ``AZFailure`` or
    ``RegionOutage`` darks exactly the faulted neighbour's entries, the
    others keep serving, and the legacy flat (provenance-free) catalog keeps
    its pre-PR conservative behaviour."""

    def split_catalog(self, store):
        """An Agar client plus a two-neighbour catalog split over the needed
        chunks.  Sydney hosts none of the failure-free plan's chunks, so a
        sydney fault leaves the backend plan untouched and any change in the
        neighbour counters is pure provenance."""
        from repro.erasure.chunk import ChunkId

        config = ClientConfig(overhead_ms=0.0, include_decode_cost=False)
        strategy = AgarReadStrategy(store, "frankfurt", MEGABYTE, config=config)
        plan = strategy._plan_for("object-0")
        needed = plan.nearest[:plan.data_chunks]
        assert all(placed.region != "sydney" for placed in needed)
        chunk_ids = [ChunkId(key="object-0", index=placed.index)
                     for placed in needed]
        half = len(chunk_ids) // 2
        catalog = {"sydney": frozenset(chunk_ids[:half]),
                   "tokyo": frozenset(chunk_ids[half:])}
        cheap = min(placed.latency_ms for placed in needed) / 2
        strategy.set_neighbor_catalog(catalog, cheap)
        return strategy, catalog, len(chunk_ids), half

    def test_remote_az_failure_darks_only_that_neighbor(self, store):
        strategy, catalog, total, half = self.split_catalog(store)
        clean = strategy.read("object-0", now=0.0)
        assert clean.chunks_from_neighbors == total

        strategy.set_fault_state(FaultState(
            down_backends=frozenset({"sydney"}),
            down_caches=frozenset({"sydney"})))
        dark = strategy.read("object-0", now=1.0)
        # Sydney's share reverts to the backend; tokyo's keeps serving.
        assert dark.chunks_from_neighbors == total - half
        assert dark.chunks_from_backend == half
        assert not dark.degraded  # the backend plan itself was untouched
        assert strategy._neighbor_pinned == catalog["tokyo"]

        strategy.set_fault_state(CLEAR_STATE)
        recovered = strategy.read("object-0", now=2.0)
        assert recovered.chunks_from_neighbors == total
        assert strategy._neighbor_pinned == \
            catalog["sydney"] | catalog["tokyo"]

    def test_region_outage_darks_neighbor_too(self, store):
        """A RegionOutage conservatively cuts the colocated cache as well."""
        strategy, catalog, total, half = self.split_catalog(store)
        strategy.set_fault_state(outage_state("sydney"))
        dark = strategy.read("object-0", now=0.0)
        assert dark.chunks_from_neighbors == total - half
        assert strategy._neighbor_pinned == catalog["tokyo"]

    def test_flat_catalog_keeps_legacy_behaviour(self, store):
        """A provenance-free catalog has no owner to dark: remote faults
        leave it whole (the documented pre-provenance contract)."""
        from repro.erasure.chunk import ChunkId

        config = ClientConfig(overhead_ms=0.0, include_decode_cost=False)
        strategy = AgarReadStrategy(store, "frankfurt", MEGABYTE, config=config)
        plan = strategy._plan_for("object-0")
        needed = plan.nearest[:plan.data_chunks]
        flat = frozenset(ChunkId(key="object-0", index=placed.index)
                         for placed in needed)
        cheap = min(placed.latency_ms for placed in needed) / 2
        strategy.set_neighbor_catalog(flat, cheap)
        strategy.set_fault_state(FaultState(
            down_backends=frozenset({"sydney"}),
            down_caches=frozenset({"sydney"})))
        result = strategy.read("object-0", now=0.0)
        assert result.chunks_from_neighbors == len(needed)

    def test_indexed_path_matches_string_path(self, store):
        strategy, catalog, total, half = self.split_catalog(store)
        indexed = AgarReadStrategy(
            store, "frankfurt", MEGABYTE,
            config=ClientConfig(overhead_ms=0.0, include_decode_cost=False))
        indexed.set_neighbor_catalog(catalog, strategy._neighbor_read_ms)
        indexed.prepare_indexed_reads(["object-0"])
        state = FaultState(down_backends=frozenset({"sydney"}),
                           down_caches=frozenset({"sydney"}))
        strategy.set_fault_state(state)
        indexed.set_fault_state(state)
        assert indexed.read_indexed(0, 0.0) == strategy.read("object-0", 0.0)


class TestFaultReaction:
    """Fault-reactive (emergency) reconfiguration at the strategy level."""

    def agar(self, store, emergency: bool):
        return AgarReadStrategy(
            store, "frankfurt", 10 * MEGABYTE,
            config=ClientConfig(resilience=ResilienceConfig(
                emergency_reconfiguration=emergency)))

    def test_emergency_resolve_has_zero_lag(self, store):
        strategy = self.agar(store, emergency=True)
        strategy.read("object-0", now=0.0)
        node = strategy.node
        solves = len(node.cache_manager.history)

        strategy.set_fault_state(outage_state("sao_paulo"))
        strategy.react_to_fault(now=10.0)
        assert len(node.cache_manager.history) == solves + 1
        assert node.fault_reaction_lags_s == [0.0]
        assert node.region_manager.down_regions == frozenset({"sao_paulo"})
        # The knapsack now plans against the survivor view: the penalized
        # region sorts behind every healthy link.
        estimates = node.region_manager.latency_estimates()
        assert max(estimates, key=estimates.get) == "sao_paulo"

        strategy.set_fault_state(CLEAR_STATE)
        strategy.react_to_fault(now=25.0)
        assert len(node.cache_manager.history) == solves + 2
        assert node.fault_reaction_lags_s == [0.0, 0.0]
        assert node.region_manager.down_regions == frozenset()

    def test_without_emergency_lag_spans_to_next_periodic_solve(self, store):
        strategy = self.agar(store, emergency=False)
        strategy.read("object-0", now=0.0)
        node = strategy.node
        solves = len(node.cache_manager.history)

        strategy.set_fault_state(outage_state("sao_paulo"))
        strategy.react_to_fault(now=10.0)
        assert len(node.cache_manager.history) == solves
        assert node.fault_reaction_lags_s == []  # still pending
        node.reconfigure(now=37.0)  # the next periodic solve
        assert node.fault_reaction_lags_s == pytest.approx([27.0])

    def test_initial_clear_install_is_not_a_transition(self, store):
        strategy = self.agar(store, emergency=True)
        node = strategy.node
        solves = len(node.cache_manager.history)
        strategy.react_to_fault(now=0.0)
        assert len(node.cache_manager.history) == solves
        node.reconfigure(now=30.0)
        assert node.fault_reaction_lags_s == []


class TestWindowedSeries:
    @staticmethod
    def read(started_at_s, latency_ms, degraded=False, failed=False):
        return ReadResult(key="k", latency_ms=latency_ms, hit_type=HitType.MISS,
                          chunks_from_cache=0, chunks_from_backend=3,
                          started_at_s=started_at_s, degraded=degraded,
                          failed=failed)

    def test_buckets_and_percentiles(self):
        reads = [self.read(0.5, 100.0), self.read(0.6, 300.0),
                 self.read(1.5, 200.0)]
        windows = windowed_latency_series(reads, window_s=1.0, end_s=2.0)
        assert len(windows) == 2
        first, second = windows
        assert first.reads == 2
        assert first.mean_ms == pytest.approx(200.0)
        assert first.p50_ms == 100.0 and first.p99_ms == 300.0
        assert second.reads == 1 and second.p99_ms == 200.0

    def test_percentile_rule_matches_latency_stats(self):
        latencies = [float(value) for value in range(1, 42)]
        reads = [self.read(0.1 + 0.01 * i, latency)
                 for i, latency in enumerate(latencies)]
        stats = LatencyStats()
        for read in reads:
            stats.record(read)
        (window,) = windowed_latency_series(reads, window_s=10.0, end_s=10.0)
        assert window.p50_ms == stats.p50_latency_ms
        assert window.p99_ms == stats.p99_latency_ms

    def test_empty_windows_kept_and_failed_reads_counted(self):
        reads = [self.read(0.5, 100.0),
                 self.read(2.5, 0.0, failed=True),
                 self.read(2.6, 400.0, degraded=True)]
        windows = windowed_latency_series(reads, window_s=1.0, end_s=3.0)
        assert len(windows) == 3
        assert windows[1].reads == 0 and windows[1].p99_ms == 0.0
        assert windows[2].reads == 1  # the failed read is not a sample
        assert windows[2].unavailable == 1
        assert windows[2].degraded == 1

    def test_out_of_range_reads_skipped(self):
        reads = [self.read(5.0, 100.0)]
        windows = windowed_latency_series(reads, window_s=1.0, end_s=2.0)
        assert all(window.reads == 0 for window in windows)

    def test_window_count_covers_duration(self):
        windows = windowed_latency_series([], window_s=3.0, end_s=10.0)
        assert len(windows) == math.ceil(10.0 / 3.0)
        assert windows[-1].end_s >= 10.0
