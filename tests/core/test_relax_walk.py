"""A relax scan stops where the rows below it cannot improve the state.

``_relax`` walks a chain from its head and stops at the first row whose
``min_loss`` — over that row and every row below it — exceeds the offered
option's value by more than the rounding slack: the relaxation prune's
argument, applied node by node.  These instances sit on both edges of that
stop and compare every ``MaxV`` slot with the reference transcription
(``tests/reference/knapsack.py``), which walks every chain in full:

* a swap whose loss exceeds the option's value by less than the slack, yet
  whose float candidate rounds above the state's total (a stop without the
  slack skips it);
* the same swap with a NaN-valued key in the instance, which makes the slack
  NaN (a stop written as ``loss − value ≤ slack`` never walks at all).
"""

import math

import pytest

from repro.core.knapsack import KnapsackSolver
from repro.core.options import CachingOption

from reference.knapsack import ReferenceKnapsackSolver

#: ``x``'s weight-2 option shrunk to its weight-1 option gives up
#: ``X2 − X1``, 2**-56 more than ``Y``; ``((1.5 − X2) + X1) + Y`` still rounds
#: one ulp above 1.5.
X1 = float.fromhex("0x1.9999999999999p-8")
X2 = float.fromhex("0x1.999999999999cp-6")
Y = float.fromhex("0x1.3333333333333p-6")


def make_option(key: str, weight: int, value: float) -> CachingOption:
    return CachingOption(key=key, chunk_indices=tuple(range(weight)), weight=weight,
                         latency_improvement_ms=value, marginal_improvement_ms=value,
                         popularity=1.0, residual_latency_ms=0.0)


def rounding_swap(extra: dict | None = None) -> dict:
    """``{a, x@2}`` totals exactly 1.5 in slot 3; ``y`` relaxes it to ``{a, x@1, y}``."""
    options = {"a": [make_option("a", 1, 1.5 - X2)],
               "x": [make_option("x", 1, X1), make_option("x", 2, X2)],
               "y": [make_option("y", 1, Y)]}
    options.update(extra or {})
    return options


def chosen(configuration) -> list[tuple[str, int]]:
    return [(option.key, option.weight) for option in configuration.options]


def assert_matches_reference(options_by_key, capacity):
    reference = ReferenceKnapsackSolver(capacity, stop_after_extra_keys=None).solve(options_by_key)
    result = KnapsackSolver(capacity, stop_after_extra_keys=None).solve(options_by_key)
    assert set(result.table) == set(reference.table)
    for slot, expected in reference.table.items():
        assert chosen(result.table[slot]) == chosen(expected), slot
        assert float(result.table[slot].value).hex() == float(expected.value).hex()  # NaN too
    assert result.relax_improved > 0
    return result


def test_the_instance_is_on_the_edge():
    assert 0.0 < (X2 - X1) - Y < 2.0 ** -45
    assert ((1.5 - X2) + X1) + Y > 1.5
    assert (1.5 - X2) + X2 == 1.5


@pytest.mark.parametrize("capacity", [3, 4])
def test_a_swap_within_the_slack_is_still_walked_to(capacity):
    result = assert_matches_reference(rounding_swap(), capacity)
    assert chosen(result.table[3]) == [("a", 1), ("x", 1), ("y", 1)]


@pytest.mark.parametrize("capacity", [4, 5])
def test_a_nan_slack_walks_every_chain(capacity):
    result = assert_matches_reference(
        rounding_swap({"z": [make_option("z", 2, math.nan)]}), capacity)
    assert result.relax_pruned == 0
