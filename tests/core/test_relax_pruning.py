"""The relaxation prune is sound: it only ever skips scans that find nothing.

``KnapsackSolver._relax_pass`` skips a state when the smallest displacement
loss along its chain exceeds the offered option's value by more than a
rounding slack.  These tests aim at that boundary — equal values, values one
ulp apart, magnitudes from 1e-6 to 1e12 in one instance, zero popularity,
smaller options worth more than larger ones — and compare every ``MaxV`` slot
with :class:`ReferenceKnapsackSolver`, which has no prune.  The work counters
the prune reports are deterministic, so they are pinned exactly.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import ErasureCodedStore
from repro.core.agar_node import AgarNode
from repro.core.knapsack import KnapsackSolver
from repro.core.options import CachingOption
from repro.experiments.ablation import synthetic_options
from repro.geo import default_topology
from repro.workload.workload import generate_request_ranks, zipfian_workload

from reference.knapsack import ReferenceKnapsackSolver

MEGABYTE = 1024 * 1024


def make_option(key: str, weight: int, value: float, popularity: float = 1.0) -> CachingOption:
    """An option whose ``value`` is exactly ``popularity × value``."""
    return CachingOption(key=key, chunk_indices=tuple(range(weight)), weight=weight,
                         latency_improvement_ms=value, marginal_improvement_ms=value,
                         popularity=popularity, residual_latency_ms=0.0)


def nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return value


@st.composite
def boundary_instances(draw):
    """Few distinct magnitudes, nudged by at most an ulp: ties and near-ties."""
    magnitudes = draw(st.lists(
        st.sampled_from([1e-6, 0.3, 1.0, 7.5, 1e3, 1e12]), min_size=1, max_size=3))
    options_by_key = {}
    for index in range(draw(st.integers(1, 9))):
        key = f"key-{index}"
        popularity = draw(st.sampled_from([1.0, 1.0, 1.0, 0.0]))
        weight, options = 0, []
        for position in range(draw(st.integers(1, 4))):
            # A zero step repeats a weight: the first option of a weight wins.
            weight += draw(st.integers(0 if position else 1, 3))
            value = nudged(draw(st.sampled_from(magnitudes)), draw(st.integers(-1, 1)))
            options.append(make_option(key, weight, value, popularity))
        options_by_key[key] = options
    return options_by_key, draw(st.integers(1, 24)), draw(st.sampled_from([None, 0, 2]))


def chosen(configuration) -> list[tuple[str, int]]:
    return [(option.key, option.weight) for option in configuration.options]


def assert_matches_reference(options_by_key, capacity, stop):
    reference = ReferenceKnapsackSolver(capacity, stop_after_extra_keys=stop).solve(options_by_key)
    pruned = KnapsackSolver(capacity, stop_after_extra_keys=stop).solve(options_by_key)

    assert pruned.keys_processed == reference.keys_processed
    assert pruned.stopped_early == reference.stopped_early
    assert set(pruned.table) == set(reference.table)
    for slot, expected in reference.table.items():
        assert chosen(pruned.table[slot]) == chosen(expected)
        assert pruned.table[slot].value == expected.value
        assert pruned.table[slot].weight == expected.weight
    assert chosen(pruned.best) == chosen(reference.best)
    assert pruned.best.value == reference.best.value
    return pruned


@settings(max_examples=300, deadline=None)
@given(instance=boundary_instances())
def test_every_slot_matches_the_unpruned_reference(instance):
    assert_matches_reference(*instance)


#: Instances on which a prune without slack (skip when ``loss − value ≥ 0``) is
#: wrong: at an exact tie the float candidate ``((base − old) + new)`` rounds
#: to one ulp *above* ``base``, and the reference takes that "improvement".
ROUNDING_TIES = [
    (14, {"key-0": [(1, "0x1.0c6f7a0b5ed8ep-20"), (2, "0x1.0c6f7a0b5ed8cp-20"),
                    (4, "0x1.0c6f7a0b5ed8cp-20"), (4, "0x1.0c6f7a0b5ed8dp-20")],
          "key-1": [(3, "0x1.0c6f7a0b5ed8ep-20")],
          "key-2": [(1, "0x1.0c6f7a0b5ed8cp-20")],
          "key-3": [(3, "0x1.0c6f7a0b5ed8dp-20"), (3, "0x1.0c6f7a0b5ed8cp-20"),
                    (3, "0x1.0c6f7a0b5ed8ep-20")],
          "key-4": [(3, "0x1.0c6f7a0b5ed8ep-20"), (3, "0x1.0c6f7a0b5ed8cp-20"),
                    (3, "0x1.0c6f7a0b5ed8dp-20")],
          "key-5": [(2, "0x1.0c6f7a0b5ed8dp-20"), (5, "0x1.0c6f7a0b5ed8ep-20")],
          "key-6": [(3, "0x1.0c6f7a0b5ed8dp-20"), (4, "0x1.0c6f7a0b5ed8dp-20")],
          "key-7": [(3, "0x1.0c6f7a0b5ed8ep-20")],
          "key-8": [(3, "0x1.0c6f7a0b5ed8cp-20")]}),
    (15, {"key-0": [(3, "0x1.3333333333333p-2"), (4, "0x1.3333333333334p-2")],
          "key-1": [(2, "0x1.3333333333332p-2"), (2, "0x1.3333333333333p-2"),
                    (2, "0x1.0c6f7a0b5ed8dp-20")],
          "key-2": [(3, "0x1.3333333333333p-2"), (3, "0x1.0c6f7a0b5ed8ep-20")],
          "key-3": [(1, "0x1.3333333333333p-2"), (3, "0x1.3333333333332p-2"),
                    (6, "0x1.3333333333333p-2")],
          "key-4": [(1, "0x1.3333333333332p-2"), (2, "0x1.3333333333334p-2")]}),
]


@pytest.mark.parametrize("capacity,ladders", ROUNDING_TIES)
def test_a_tie_that_rounds_up_is_still_scanned(capacity, ladders):
    options_by_key = {
        key: [make_option(key, weight, float.fromhex(value)) for weight, value in ladder]
        for key, ladder in ladders.items()
    }
    pruned = assert_matches_reference(options_by_key, capacity, None)
    assert pruned.relax_improved > 0


#: Instances whose best configurations tie exactly, in value and in weight,
#: in two slots of the table: the winner is the first in slot order.
SLOT_ORDER_TIES = [
    (6, 2, {"key-0": [(1, "0x1.0c6f7a0b5ed8dp-20"), (4, "0x1.3333333333333p-2"),
                      (7, "0x1.3333333333334p-2"), (9, "0x1.3333333333334p-2")],
            "key-1": [(1, "0x1.3333333333333p-2"), (4, "0x1.3333333333334p-2")],
            "key-2": [(2, "0x1.3333333333334p-2")],
            "key-3": [(2, "0x1.3333333333334p-2"), (3, "0x1.3333333333332p-2"),
                      (6, "0x1.3333333333332p-2"), (7, "0x1.3333333333334p-2")],
            "key-4": [(2, "0x1.3333333333334p-2")],
            "key-5": [(3, "0x1.3333333333334p-2")],
            "key-6": [(1, "0x1.3333333333333p-2"), (2, "0x1.3333333333333p-2")]}),
]


@pytest.mark.parametrize("capacity,stop,ladders", SLOT_ORDER_TIES)
def test_an_exact_tie_goes_to_the_first_slot(capacity, stop, ladders):
    options_by_key = {
        key: [make_option(key, weight, float.fromhex(value)) for weight, value in ladder]
        for key, ladder in ladders.items()
    }
    assert_matches_reference(options_by_key, capacity, stop)


@pytest.mark.parametrize("poison", [math.nan, math.inf])
def test_non_finite_values_never_prune(poison):
    """A NaN or infinite slack compares false: every state gets the full scan."""
    options_by_key = {
        f"key-{index}": [make_option(f"key-{index}", 1, 10.0 - index),
                         make_option(f"key-{index}", 3, 40.0 - index)]
        for index in range(6)
    }
    options_by_key["key-3"][0] = make_option("key-3", 1, poison)
    result = KnapsackSolver(12).solve(options_by_key)
    assert result.relax_pruned == 0
    assert result.relax_scans > 0


def test_work_counters_are_exact_on_the_benchmark_instance():
    """The 60-object / 90-chunk instance of ``test_bench_knapsack_solver``."""
    options = synthetic_options(object_count=60, skew=1.1, seed=5)
    result = KnapsackSolver(capacity_weight=90).solve(options)
    assert (result.relax_scans, result.relax_pruned, result.relax_improved) == (0, 10519, 0)
    without = KnapsackSolver(capacity_weight=90, use_relax=False).solve(options)
    assert (without.relax_scans, without.relax_pruned, without.relax_improved) == (0, 0, 0)


def test_one_shared_ladder_prunes_nearly_every_scan():
    """1,024 round-robin objects, 305-chunk cache: the end-to-end benchmark's shape."""
    store = ErasureCodedStore(default_topology(seed=7))
    store.populate(object_count=1024, object_size=MEGABYTE)
    node = AgarNode("frankfurt", store, cache_capacity_bytes=34 * MEGABYTE)
    # Three periods, as a benchmark slice has: after one, hundreds of objects
    # read once or twice tie exactly in popularity, and ties are never pruned.
    for period in range(3):
        workload = zipfian_workload(1.1, request_count=3000, object_count=1024,
                                    seed=7 + period)
        for rank in generate_request_ranks(workload).tolist():
            node.request_monitor.record_request(workload.key_for_rank(rank))
        record = node.reconfigure(30.0 * (period + 1))

    attempts = record.relax_scans + record.relax_pruned
    assert attempts > 10_000
    assert record.relax_pruned / attempts >= 0.95
    assert record.relax_improved == 0
