"""Tests for the cache-configuration knapsack solver (Figs. 4 and 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import optimality_gap, solve_exact
from repro.core.greedy import solve_greedy_density, solve_greedy_marginal
from repro.core.knapsack import (
    CacheConfiguration,
    EMPTY_CONFIGURATION,
    KnapsackSolver,
    configuration_summary,
)
from repro.core.options import CachingOption, generate_caching_options
from repro.erasure import ChunkId
from repro.geo.topology import TABLE1_FRANKFURT_LATENCIES


def make_option(key: str, weight: int, value: float, popularity: float = 1.0) -> CachingOption:
    improvement = value / popularity if popularity else 0.0
    return CachingOption(
        key=key,
        chunk_indices=tuple(range(weight)),
        weight=weight,
        latency_improvement_ms=improvement,
        marginal_improvement_ms=improvement,
        popularity=popularity,
        residual_latency_ms=0.0,
    )


def option_chain(key: str, popularity: float, chunks_by_region=None, latencies=None):
    chunks_by_region = chunks_by_region or {
        region: [index, index + 6]
        for index, region in enumerate(TABLE1_FRANKFURT_LATENCIES)
    }
    latencies = latencies or TABLE1_FRANKFURT_LATENCIES
    return generate_caching_options(
        key, chunks_by_region, latencies, popularity=popularity,
        data_chunks=9, parity_chunks=3, cache_read_ms=20.0,
    )


class TestCacheConfiguration:
    def test_empty(self):
        assert EMPTY_CONFIGURATION.weight == 0
        assert EMPTY_CONFIGURATION.value == 0.0
        assert len(EMPTY_CONFIGURATION) == 0

    def test_duplicate_key_rejected(self):
        option = make_option("a", 1, 1.0)
        with pytest.raises(ValueError):
            CacheConfiguration(options=(option, make_option("a", 3, 3.0)))

    def test_chunk_ids(self):
        config = CacheConfiguration(options=(make_option("a", 2, 2.0), make_option("b", 1, 1.0)))
        assert config.chunk_ids() == frozenset(
            {ChunkId("a", 0), ChunkId("a", 1), ChunkId("b", 0)}
        )

    def test_configuration_summary(self):
        config = CacheConfiguration(options=(
            make_option("a", 9, 1.0), make_option("b", 9, 1.0), make_option("c", 5, 1.0),
        ))
        assert configuration_summary(config) == {9: 2, 5: 1}


class TestSolverBasics:
    def test_empty_inputs(self):
        assert KnapsackSolver(10).solve({}).best is EMPTY_CONFIGURATION
        assert KnapsackSolver(0).solve({"a": [make_option("a", 1, 1.0)]}).best is EMPTY_CONFIGURATION

    def test_capacity_respected(self):
        options = {"a": [make_option("a", 4, 40.0)], "b": [make_option("b", 4, 30.0)]}
        best = KnapsackSolver(5).solve_configuration(options)
        assert best.weight <= 5
        assert best.value == pytest.approx(40.0)

    def test_at_most_one_option_per_key(self):
        options = {"a": [make_option("a", 1, 10.0), make_option("a", 3, 25.0)]}
        best = KnapsackSolver(4).solve_configuration(options)
        assert len(best) == 1
        assert len(best.chunks_for("a")) == 3

    def test_oversized_options_ignored(self):
        options = {"a": [make_option("a", 10, 1000.0), make_option("a", 2, 5.0)]}
        best = KnapsackSolver(4).solve_configuration(options)
        assert len(best.chunks_for("a")) == 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            KnapsackSolver(-1)
        with pytest.raises(ValueError):
            KnapsackSolver(1, stop_after_extra_keys=-2)

    def test_relax_makes_room_for_second_object(self):
        """The scenario Fig. 5 targets: shrink one object to admit another."""
        options = {
            "big": [make_option("big", 2, 20.0), make_option("big", 4, 22.0)],
            "new": [make_option("new", 2, 15.0)],
        }
        with_relax = KnapsackSolver(4, use_relax=True).solve_configuration(options)
        assert with_relax.value == pytest.approx(35.0)
        assert {opt.key: opt.weight for opt in with_relax.options} == {"big": 2, "new": 2}

    def test_early_stop_reports(self):
        options = {f"k{i}": option_chain(f"k{i}", popularity=100 - i) for i in range(30)}
        result = KnapsackSolver(9, stop_after_extra_keys=2).solve(options)
        assert result.stopped_early
        assert result.keys_processed < 30
        no_stop = KnapsackSolver(9, stop_after_extra_keys=None).solve(options)
        assert not no_stop.stopped_early
        assert no_stop.keys_processed == 30


class TestSolverQuality:
    def test_matches_exact_on_paper_structure(self):
        options = {
            f"k{i}": option_chain(f"k{i}", popularity=pop)
            for i, pop in enumerate([100, 50, 20, 10, 5, 2])
        }
        for capacity in (9, 18, 27, 45):
            heuristic = KnapsackSolver(capacity).solve_configuration(options)
            exact = solve_exact(options, capacity)
            gap = optimality_gap(heuristic.value, exact.value)
            assert gap <= 0.05, f"capacity {capacity}: gap {gap:.3f}"
            assert heuristic.weight <= capacity

    def test_beats_or_matches_greedy_density(self):
        options = {
            f"k{i}": option_chain(f"k{i}", popularity=pop)
            for i, pop in enumerate([90, 60, 40, 25, 12, 6, 3])
        }
        capacity = 30
        heuristic = KnapsackSolver(capacity).solve_configuration(options)
        greedy = solve_greedy_density(options, capacity)
        assert heuristic.value >= greedy.value - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        populations=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=8),
        capacity=st.integers(min_value=1, max_value=40),
    )
    def test_heuristic_close_to_exact_property(self, populations, capacity):
        """Invariant: the DP heuristic is within 10 % of the exact optimum and feasible."""
        options = {
            f"k{i}": option_chain(f"k{i}", popularity=pop)
            for i, pop in enumerate(populations)
        }
        result = KnapsackSolver(capacity).solve(options)
        exact = solve_exact(options, capacity)
        assert result.best.weight <= capacity
        keys = result.best.keys()
        assert len(keys) == len(set(keys))
        assert optimality_gap(result.best.value, exact.value) <= 0.10


class TestGreedyBaselines:
    def test_greedy_density_respects_capacity_and_uniqueness(self):
        options = {f"k{i}": option_chain(f"k{i}", popularity=10 + i) for i in range(6)}
        config = solve_greedy_density(options, 20)
        assert config.weight <= 20
        assert len(config.keys()) == len(set(config.keys()))

    def test_greedy_marginal_respects_capacity(self):
        options = {f"k{i}": option_chain(f"k{i}", popularity=10 + i) for i in range(6)}
        config = solve_greedy_marginal(options, 20)
        assert config.weight <= 20

    def test_greedy_density_suboptimal_on_adversarial_case(self):
        """§II-D: greedy by density can leave large value on the table."""
        options = {
            # Tiny but dense option...
            "dense": [make_option("dense", 1, 10.0)],
            # ...that blocks nothing, plus two large options that fill the knapsack.
            "big1": [make_option("big1", 5, 40.0)],
            "big2": [make_option("big2", 5, 40.0)],
        }
        capacity = 10
        greedy = solve_greedy_density(options, capacity)
        exact = solve_exact(options, capacity)
        assert exact.value > greedy.value

    def test_empty_inputs(self):
        assert solve_greedy_density({}, 10) is EMPTY_CONFIGURATION
        assert solve_greedy_marginal({}, 10) is EMPTY_CONFIGURATION
        assert solve_exact({}, 10) is EMPTY_CONFIGURATION

    def test_exact_validation(self):
        with pytest.raises(ValueError):
            solve_exact({"a": [make_option("a", 1, 1.0)]}, -1)
