"""The winner is re-summed only within rounding of the best running total.

A materialized ``MaxV`` table ranks its configurations by their own value —
``sum`` of the options in insertion order — then by the lighter weight, and
``max`` keeps the first maximum in slot order.  ``KnapsackSolver`` re-sums
only the states whose running total (a left-to-right float sum) lies within
twice the rounding bound of the largest one.  On Python 3.11 the builtin
``sum`` of floats *is* that left-to-right sum, so the bound never decides
anything there; since 3.12 it is compensated.  These tests bind the module's
``sum`` to the builtin and to ``math.fsum`` (exactly rounded) on instances
whose configurations tie or nearly tie, so the bound is exercised on every
interpreter, and require the full scan's answer.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import knapsack
from repro.core.knapsack import KnapsackSolver
from repro.core.options import CachingOption

SUMS = {"builtin": sum, "fsum": math.fsum}

#: Below half an ulp of 1.0: ``1.0 + TINY`` rounds back to 1.0, but two of
#: them add up to more than half an ulp.
TINY = 3 * 2.0 ** -55


def make_option(key: str, weight: int, value: float) -> CachingOption:
    return CachingOption(key=key, chunk_indices=tuple(range(weight)), weight=weight,
                         latency_improvement_ms=value, marginal_improvement_ms=value,
                         popularity=1.0, residual_latency_ms=0.0)


def full_scan(result):
    """What ranking every materialized configuration would pick."""
    return max(result.table.values(), key=lambda config: (config.value, -config.weight))


def chosen(configuration) -> list[tuple[str, int]]:
    return [(option.key, option.weight) for option in configuration.options]


def solve_with(monkeypatch, summation, options_by_key, capacity, stop=None):
    monkeypatch.setattr(knapsack, "sum", summation, raising=False)
    result = KnapsackSolver(capacity, stop_after_extra_keys=stop).solve(options_by_key)
    assert chosen(result.best) == chosen(full_scan(result))
    assert result.best.value == full_scan(result).value
    return result


@pytest.mark.parametrize("name", SUMS)
def test_a_state_below_the_best_running_total_can_win(monkeypatch, name):
    """``{a, b, c}`` runs to 1.0 but sums to ``1 + 2**-52`` when compensated.

    The best running total is ``{y}``'s, ``1 + 2**-52``, one slot higher;
    exactly rounded, ``{a, b, c}`` ties it and, lighter, ranks first.
    """
    options = {"y": [make_option("y", 4, 1.0 + 2.0 ** -52)],
               "a": [make_option("a", 1, 1.0)],
               "b": [make_option("b", 1, TINY)],
               "c": [make_option("c", 1, TINY)]}
    result = solve_with(monkeypatch, SUMS[name], options, 4)
    assert result.table[3].value == SUMS[name]([1.0, TINY, TINY])
    # Builtin: a left-to-right sum on 3.11, compensated since 3.12.
    compensated = SUMS[name]([1.0, TINY, TINY]) > 1.0
    assert name == "builtin" or compensated
    assert chosen(result.best) == ([("a", 1), ("b", 1), ("c", 1)] if compensated
                                   else [("y", 4)])


@st.composite
def near_ties(draw):
    """A few keys whose values meet at ``1 ± ulps`` and sub-ulp crumbs."""
    values = st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, TINY, 2.0 ** -53,
                              0.1, 0.2, 0.3, 0.0])
    options_by_key = {}
    for index in range(draw(st.integers(1, 8))):
        key = f"key-{index}"
        weight, options = 0, []
        for _ in range(draw(st.integers(1, 3))):
            weight += draw(st.integers(1, 2))
            options.append(make_option(key, weight, draw(values)))
        options_by_key[key] = options
    return options_by_key, draw(st.integers(1, 12)), draw(st.sampled_from([None, 0, 2]))


@settings(max_examples=200, deadline=None)
@given(instance=near_ties(), name=st.sampled_from(sorted(SUMS)))
def test_the_winner_is_the_full_scans(instance, name):
    with pytest.MonkeyPatch.context() as monkeypatch:
        solve_with(monkeypatch, SUMS[name], *instance)
