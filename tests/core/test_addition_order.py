"""An addition pass in two parts decides as one sweep over its sources.

``KnapsackSolver._addition_pass`` stores every source that is not *light* in
one array batch, then walks the light ones — states a total-eviction
relaxation left lighter than their slot — in slot order against the live
table.  The argument: a slot ``t`` is the target of one non-light source at
most, ``t − weight``, and every light source that reaches ``t`` sits above
it, so a single sweep in slot order meets the batch's candidate for ``t``
first, then the light ones in the order the tail walks them.  These
instances make two light slots and a non-light source reach the same target
in one pass; every ``MaxV`` slot is compared with the reference
transcription (``tests/reference/knapsack.py``), and a spy requires that the
light sources were visited and shared the target.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knapsack import KnapsackSolver
from repro.core.options import CachingOption

from reference.knapsack import ReferenceKnapsackSolver


def make_option(key: str, weight: int, value: float) -> CachingOption:
    return CachingOption(key=key, chunk_indices=tuple(range(weight)), weight=weight,
                         latency_improvement_ms=value, marginal_improvement_ms=value,
                         popularity=1.0, residual_latency_ms=0.0)


def ladders(core_value: float = 1.0, last: tuple[float, float] = (2.0, 13.0)) -> dict:
    """The four keys that make the shared target, in ranking order.

    ``k2``'s relaxation evicts ``k1`` (no weight-1 option) from slot 3 and
    ``k0`` (no weight-3 option) from slot 5, leaving ``{k2}`` — weight 2 — in
    both; ``k3``'s weight-1 addition then reaches slot 3 from slot 2 (not
    light) and from both light slots.
    """
    scaled = {"k0": [(4, 56.0), (5, 10.0)], "k1": [(3, 10.0), (5, 10.0), (6, 31.0)],
              "k2": [(2, 30.0)]}
    options = {key: [make_option(key, weight, value * core_value) for weight, value in ladder]
               for key, ladder in scaled.items()}
    options["k3"] = [make_option("k3", 1, last[0] * core_value),
                     make_option("k3", 4, last[1] * core_value)]
    return options


@contextmanager
def spying():
    """Count light sources visited, and note targets two light and one plain source share."""
    seen = {"light_visits": 0, "shared": []}
    addition = KnapsackSolver._addition_pass
    add_light = KnapsackSolver._add_light

    def spy_addition(self, table, entry):
        weight = table.pool.entries[entry][2]
        reached: dict[int, list[int]] = {}
        for slot in sorted(table.light):
            # The light state's chain weight: the row its slot heads.
            target = int(table.pool.weight[table.heads[slot]]) + weight
            if table.unheld[slot] and target <= self.capacity_weight:
                reached.setdefault(target, []).append(slot)
        for target, slots in reached.items():
            source = target - weight
            if (len(slots) > 1 and source >= 0 and table.unheld[source]
                    and source not in table.light):
                seen["shared"].append((target, source, slots))
        return addition(self, table, entry)

    def spy_add_light(self, table, entry, sources):
        seen["light_visits"] += len(sources)
        return add_light(self, table, entry, sources)

    with mock.patch.object(KnapsackSolver, "_addition_pass", spy_addition), \
            mock.patch.object(KnapsackSolver, "_add_light", spy_add_light):
        yield seen


def chosen(configuration) -> list[tuple[str, int]]:
    return [(option.key, option.weight) for option in configuration.options]


def assert_matches_reference(options_by_key, capacity, stop=None):
    reference = ReferenceKnapsackSolver(capacity, stop_after_extra_keys=stop).solve(options_by_key)
    with spying() as seen:
        result = KnapsackSolver(capacity, stop_after_extra_keys=stop).solve(options_by_key)
    assert result.keys_processed == reference.keys_processed
    assert result.stopped_early == reference.stopped_early
    assert set(result.table) == set(reference.table)
    for slot, expected in reference.table.items():
        assert chosen(result.table[slot]) == chosen(expected), slot
        assert result.table[slot].value == expected.value
        assert result.table[slot].weight == expected.weight
    assert chosen(result.best) == chosen(reference.best)
    assert result.best.value == reference.best.value
    return seen


@pytest.mark.parametrize("capacity", [6, 7, 9, 12])
def test_two_light_slots_and_a_plain_source_share_a_target(capacity):
    seen = assert_matches_reference(ladders(), capacity)
    assert seen["light_visits"] >= 2
    # k3's weight-1 pass: slot 2 and the light slots 3 and 5 all reach slot 3.
    assert (3, 2, [3, 5]) in seen["shared"]


#: Instances on which the two-part pass goes wrong when its order is: the
#: light sources walked *before* the batch (a light state worth more than the
#: batch's candidate is overwritten by it); compared with the occupants from
#: before the pass instead of the live table (the batch's candidate is
#: overwritten by a light state worth no more); walked in descending slot
#: order (of two equal light states the later wins a tie).
ORDER_SENSITIVE = [
    (7, {"a": [(4, 53.0), (6, 34.0)], "b": [(1, 9.0), (5, 65.0), (6, 13.0)],
         "c": [(2, 8.0)], "d": [(1, 14.0), (3, 3.0), (4, 13.0)]}),
    (9, {"a": [(1, 14.0), (3, 4.0)], "b": [(3, 16.0), (4, 16.0), (6, 7.0)],
         "c": [(3, 19.0), (4, 12.0)]}),
    (11, {"a": [(1, 12.0), (3, 40.0), (5, 14.0)], "b": [(3, 13.0), (4, 33.0), (6, 48.0)],
          "c": [(5, 29.0), (6, 48.0)], "d": [(3, 43.0)], "e": [(3, 25.0)],
          "f": [(2, 11.0)]}),
]


@pytest.mark.parametrize("capacity,instance", ORDER_SENSITIVE)
def test_order_sensitive_light_tails(capacity, instance):
    options = {key: [make_option(key, weight, value) for weight, value in ladder]
               for key, ladder in instance.items()}
    assert assert_matches_reference(options, capacity)["light_visits"] > 0


@st.composite
def trailing_keys(draw, best: float) -> dict:
    """Keys ranked after ``k3``: a heavy head worth less than ``best``, lighter rungs below it.

    Heads shrink key by key, so the ranking is theirs; the lighter rungs are
    fractions of the head (ties included) that can outbid a rung of an
    earlier key, which is what evicts an object outright.
    """
    count = draw(st.integers(1, 6))
    options = {}
    for index in range(count):
        key = f"k{4 + index}"
        head_weight = draw(st.integers(2, 6))
        head_value = best * ((count - index) / count)   # never above ``best``
        rungs = [(head_weight, head_value)] + [
            (draw(st.integers(1, head_weight - 1)),
             head_value * draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0])))
            for _ in range(draw(st.integers(1, 2)))]
        options[key] = [make_option(key, weight, value) for weight, value in sorted(rungs)]
    return options


@st.composite
def light_instances(draw):
    """The directed shape at a power-of-two scale, ``k3`` re-valued, trailing keys after it."""
    core_value = 2.0 ** draw(st.integers(-40, 40))
    last = (draw(st.floats(0.5, 29.0)), draw(st.floats(0.5, 29.0)))
    options = ladders(core_value, last)
    options.update(draw(trailing_keys(max(last) * core_value)))
    return options, draw(st.integers(6, 16)), draw(st.sampled_from([None, 2, 25]))


@settings(max_examples=300, deadline=None)
@given(instance=light_instances())
def test_light_tails_match_the_reference(instance):
    seen = assert_matches_reference(*instance)
    assert seen["light_visits"] >= 2
    assert any(target == 3 and source == 2 and slots[:2] == [3, 5]
               for target, source, slots in seen["shared"])
