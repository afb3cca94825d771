"""A lazily stamped option table solves exactly as the options it stands for.

``CacheManager.generate_options`` returns an :class:`OptionTable` that creates
a key's options when the key is first looked up, and ``KnapsackSolver.solve``
ranks keys and sizes its prune bounds from the table's value rows alone.
Three solves must agree on every instance: the table itself, the plain ``dict``
of all its options (the form tests, ablations and a §VI ``transform`` hand
the solver) and :class:`ReferenceKnapsackSolver`, which knows neither the
table nor any of the solver's shortcuts.  The instances cross random
popularities — ties, zeros, NaN and infinity included — with the three
placements of the reconfiguration golden, an outage view, capacities from
zero (below the lightest rung) upwards and every solver setting.
"""

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knapsack import KnapsackSolver, ReferenceKnapsackSolver
from repro.core.options import OptionTable

_spec = importlib.util.spec_from_file_location(
    "freeze_reconfig", Path(__file__).resolve().parents[1] / "golden" / "freeze_reconfig.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

#: One frankfurt cache manager per placement, shared by every example: the
#: popularity map, the outage view and the solver are what an example varies.
MANAGERS = {placement: freeze.build_node(3, placement, True, 25).cache_manager
            for placement in freeze.PLACEMENTS}

POPULARITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 40.0, 1e-9, 1e9, math.nan, math.inf]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def outcome(result) -> tuple:
    """What a solve decided; floats as hex so that NaN equals NaN."""
    return (float(result.best.value).hex(), result.best.weight,
            [(option.key, option.weight) for option in result.best.options],
            result.keys_processed, result.stopped_early)


def work(result) -> tuple[int, int, int]:
    return result.relax_scans, result.relax_pruned, result.relax_improved


def solve_three_ways(manager, popularity, capacity, use_relax, stop):
    table = manager.generate_options(popularity)
    assert isinstance(table, OptionTable) and table.stamped_count == 0
    solver = KnapsackSolver(capacity, use_relax=use_relax, stop_after_extra_keys=stop)
    lazy = solver.solve(table)
    stamped = table.stamped_count

    options = dict(table.items())
    eager = solver.solve(options)
    reference = ReferenceKnapsackSolver(
        capacity, use_relax=use_relax, stop_after_extra_keys=stop).solve(options)

    assert outcome(lazy) == outcome(eager) == outcome(reference)
    assert work(lazy) == work(eager)
    # Only the keys the DP reached were stamped, and all of their options.
    assert stamped == sum(len(options[key]) for key in reached(options, lazy, capacity))
    return lazy


def reached(options_by_key, result, capacity) -> set[str]:
    """The first ``keys_processed`` keys of the ranking, recomputed from the options."""
    usable = {key: [option.value for option in options if option.weight <= capacity]
              for key, options in options_by_key.items()}
    ranking = sorted((key for key, values in usable.items() if values),
                     key=lambda key: (-max(usable[key]), key))
    return set(ranking[:result.keys_processed])


@settings(max_examples=150, deadline=None)
@given(placement=st.sampled_from(freeze.PLACEMENTS),
       popularities=st.one_of(   # a handful of keys, or enough to fill the table and stop early
           st.lists(POPULARITIES, max_size=12),
           st.lists(POPULARITIES, min_size=40, max_size=freeze.OBJECTS)),
       down=st.sampled_from([frozenset(), frozenset({"sao_paulo"})]),
       capacity=st.integers(0, 60),
       use_relax=st.booleans(),
       stop=st.sampled_from([None, 0, 3, 25]))
def test_table_dict_and_reference_agree(placement, popularities, down, capacity,
                                        use_relax, stop):
    manager = MANAGERS[placement]
    manager._region_manager.set_down_regions(down)
    popularity = {f"object-{index}": value for index, value in enumerate(popularities)}
    solve_three_ways(manager, popularity, capacity, use_relax, stop)


@pytest.mark.parametrize("seed", freeze.SEEDS)
def test_an_instance_where_relaxation_improves(seed):
    """The whole-pass bound must fall through to the scans that replace states."""
    node = freeze.build_node(seed, "explicit", True, None)
    freeze.feed_period(node, seed, 0)
    popularity = node.request_monitor.end_period()
    manager = node.cache_manager
    result = solve_three_ways(manager, popularity, manager.capacity_chunks, True, None)
    assert result.relax_improved > 0


def test_a_capacity_below_the_lightest_rung_reaches_nothing():
    manager = MANAGERS["explicit"]
    manager._region_manager.set_down_regions(frozenset())
    popularity = {f"object-{index}": 5.0 for index in range(freeze.OBJECTS)}
    table = manager.generate_options(popularity)
    lightest = min(option.weight for options in table.values() for option in options)
    assert lightest == 1
    # Keys whose lightest rung is heavier than the cache are never looked up.
    table = manager.generate_options(popularity)
    result = KnapsackSolver(1, stop_after_extra_keys=None).solve(table)
    heavy = [key for key, options in dict(table.items()).items()
             if min(option.weight for option in options) > 1]
    assert heavy and result.keys_processed == len(table) - len(heavy)
    assert result.best.weight == 1
