"""Equivalence suite: optimized KnapsackSolver vs. the reference solver.

The optimized solver (scalar-state DP, parent-pointer reconstruction) must
produce *exactly* the same best value and weight as
:class:`ReferenceKnapsackSolver`, the direct transcription of the paper's
pseudo-code, on randomized instances — including with relaxation disabled and
with every early-stop setting.
"""

import random

import pytest

from repro.core.knapsack import KnapsackSolver
from repro.core.options import CachingOption
from repro.experiments.ablation import synthetic_options

from reference.knapsack import ReferenceKnapsackSolver


def random_options(rng: random.Random, key_count: int) -> dict[str, list[CachingOption]]:
    """A random multiple-choice instance with clustered weights and values.

    Duplicate values and weights are generated on purpose: ties are where an
    order-sensitive rewrite of the DP would diverge from the reference.
    """
    options_by_key = {}
    for index in range(key_count):
        key = f"key-{index}"
        options = []
        previous_weight = 0
        for _ in range(rng.randint(1, 4)):
            weight = previous_weight + rng.randint(1, 4)
            previous_weight = weight
            value = rng.choice([1.0, 2.5, 4.0, 8.0, 16.0]) * rng.randint(1, 6)
            options.append(
                CachingOption(
                    key=key,
                    chunk_indices=tuple(range(weight)),
                    weight=weight,
                    latency_improvement_ms=value,
                    marginal_improvement_ms=value,
                    popularity=1.0,
                    residual_latency_ms=0.0,
                )
            )
        options_by_key[key] = options
    return options_by_key


def assert_equivalent(options_by_key, capacity, use_relax=True, stop_after_extra_keys=25):
    reference = ReferenceKnapsackSolver(
        capacity, use_relax=use_relax, stop_after_extra_keys=stop_after_extra_keys
    ).solve(options_by_key)
    optimized = KnapsackSolver(
        capacity, use_relax=use_relax, stop_after_extra_keys=stop_after_extra_keys
    ).solve(options_by_key)

    assert optimized.best.value == reference.best.value
    assert optimized.best.weight == reference.best.weight
    assert optimized.keys_processed == reference.keys_processed
    assert optimized.stopped_early == reference.stopped_early
    assert set(optimized.table) == set(reference.table)
    for slot in reference.table:
        assert optimized.table[slot].value == reference.table[slot].value
        assert optimized.table[slot].weight == reference.table[slot].weight
    return reference, optimized


@pytest.mark.parametrize("seed", range(40))
def test_random_instances_match_reference(seed):
    rng = random.Random(seed)
    options_by_key = random_options(rng, key_count=rng.randint(1, 14))
    capacity = rng.randint(1, 30)
    assert_equivalent(options_by_key, capacity)


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_no_relax(seed):
    rng = random.Random(1000 + seed)
    options_by_key = random_options(rng, key_count=rng.randint(1, 12))
    assert_equivalent(options_by_key, rng.randint(1, 25), use_relax=False)


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_early_stop_variants(seed):
    rng = random.Random(2000 + seed)
    options_by_key = random_options(rng, key_count=rng.randint(4, 12))
    capacity = rng.randint(1, 20)
    for stop in (None, 0, 2):
        assert_equivalent(options_by_key, capacity, stop_after_extra_keys=stop)


@pytest.mark.parametrize("seed", range(6))
def test_synthetic_paper_instances_match_reference(seed):
    """Instances with the paper's option structure (region-boundary weights)."""
    options_by_key = synthetic_options(object_count=10 + 3 * seed, skew=0.8 + 0.1 * seed,
                                       seed=seed)
    for capacity in (9, 27, 45):
        reference, optimized = assert_equivalent(options_by_key, capacity)
        # Exact option lists should match too on these well-formed instances.
        for slot in reference.table:
            assert [
                (option.key, option.weight) for option in reference.table[slot].options
            ] == [
                (option.key, option.weight) for option in optimized.table[slot].options
            ]


def test_degenerate_inputs_match_reference():
    assert_equivalent({}, 10)
    options = random_options(random.Random(3), key_count=3)
    assert_equivalent(options, 0)
    # Options larger than the capacity are dropped by both solvers.
    assert_equivalent(options, 1)
