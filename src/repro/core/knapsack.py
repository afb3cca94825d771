"""The cache-configuration Knapsack solver (paper §IV-B, Figs. 4 and 5).

Choosing which chunks to cache is a multiple-choice knapsack problem: each
object contributes several mutually exclusive caching options (§IV-A) and the
cache capacity bounds the total weight.  The paper solves it with a dynamic
programming heuristic:

* ``MaxV[w]`` holds the best configuration found so far of weight at most ``w``;
* every option is offered to every intermediate configuration twice — once via
  **relaxation** (replace an already-chosen option of another object with a
  smaller one of the same object to make room, Fig. 5) and once via
  **addition** (extend the configuration, Fig. 4 lines 14–21);
* objects are processed in decreasing value order, and the paper's §VI
  optimisation stops a fixed number of objects after ``MaxV[capacity]`` is
  first reached, making the run time depend on the cache size rather than on
  the dataset size.

Two implementations are provided:

* :class:`KnapsackSolver` — the optimized solver.  The DP state is scalar: a
  weight-indexed array of ``(value, weight, key-bitmask, option-chain)``
  records, so the inner loops touch only floats, ints and list cells.  Keys
  are ranked, and the bounds below sized, from the option *values* alone; a
  key's options are looked up when the DP reaches it, so a mapping that
  creates them on demand (:class:`~repro.core.options.OptionTable`) creates
  them for the head of the ranking only.  A relaxation pass is skipped
  outright when a table-wide lower bound on what shrinking any chosen object
  would cost already exceeds the option's value, and state by state from a
  per-state bound when it does not; an addition pass visits only the sources
  that beat the occupant of their target slot; and only the winning state is
  materialized as a :class:`CacheConfiguration`.
* :class:`ReferenceKnapsackSolver` — the original direct transcription of the
  paper's pseudo-code, which derives an immutable :class:`CacheConfiguration`
  for every intermediate state.  It is kept as the ground truth for the
  equivalence test-suite and for the ablation benchmarks.

:mod:`repro.core.exact` and :mod:`repro.core.greedy` provide an exact MCKP
solver and a greedy baseline for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.options import (
    CachingOption,
    best_option_value,
    option_with_weight,
    value_rows,
)
from repro.erasure.chunk import ChunkId


@dataclass(frozen=True)
class CacheConfiguration:
    """An assignment of caching options to objects (at most one per object).

    Configurations are immutable; the solver derives new ones via
    :meth:`with_option` and :meth:`replace`.  Weight, value and the key index
    are computed once at construction time, so the properties are O(1).
    """

    options: tuple[CachingOption, ...] = ()
    _by_key: dict[str, CachingOption] = field(init=False, repr=False, compare=False)
    _weight: int = field(init=False, repr=False, compare=False)
    _value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_key: dict[str, CachingOption] = {}
        for option in self.options:
            if option.key in by_key:
                raise ValueError(f"configuration contains two options for key {option.key!r}")
            by_key[option.key] = option
        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_weight", sum(option.weight for option in self.options))
        object.__setattr__(self, "_value", sum(option.value for option in self.options))

    # -- inspection ---------------------------------------------------- #
    @property
    def weight(self) -> int:
        """Total number of chunks the configuration caches."""
        return self._weight

    @property
    def value(self) -> float:
        """Total value (popularity-weighted latency improvement)."""
        return self._value

    def has_key(self, key: str) -> bool:
        """True if the configuration already caches chunks of ``key``."""
        return key in self._by_key

    def option_for(self, key: str) -> CachingOption | None:
        """The option chosen for ``key``, if any."""
        return self._by_key.get(key)

    def keys(self) -> list[str]:
        """Keys with at least one cached chunk, in insertion order."""
        return [option.key for option in self.options]

    def chunks_for(self, key: str) -> tuple[int, ...]:
        """Chunk indices cached for ``key`` (empty tuple if none)."""
        option = self._by_key.get(key)
        return option.chunk_indices if option else ()

    def chunk_ids(self) -> frozenset[ChunkId]:
        """All chunk ids named by the configuration (what the cache should pin)."""
        ids = set()
        for option in self.options:
            for index in option.chunk_indices:
                ids.add(ChunkId(key=option.key, index=index))
        return frozenset(ids)

    def __len__(self) -> int:
        return len(self.options)

    # -- derivation ---------------------------------------------------- #
    def with_option(self, option: CachingOption) -> "CacheConfiguration":
        """Return a new configuration with ``option`` appended.

        Raises:
            ValueError: if the configuration already has an option for the key.
        """
        return CacheConfiguration(options=self.options + (option,))

    def replace(self, old: CachingOption, replacement: CachingOption | None,
                added: CachingOption | None = None) -> "CacheConfiguration":
        """Return a new configuration with ``old`` swapped for ``replacement``.

        ``replacement`` may be ``None`` (total eviction of the old object,
        paper Fig. 5); ``added`` is an option for another object appended at
        the end (the option that the relaxation made room for).
        """
        position = -1
        for index, option in enumerate(self.options):
            if option is old:
                position = index
                break
        if position < 0:
            # Identity miss: fall back to a single equality scan.
            for index, option in enumerate(self.options):
                if option == old:
                    position = index
                    break
        new_options = list(self.options)
        if position >= 0:
            if replacement is not None:
                new_options[position] = replacement
            else:
                del new_options[position]
        if added is not None:
            new_options.append(added)
        return CacheConfiguration(options=tuple(new_options))


EMPTY_CONFIGURATION = CacheConfiguration()

_INF = float("inf")

#: Stands in for the replacement entry of a total eviction: no option, no value.
_EVICTED = (None, 0.0)

#: Relaxation-pruning slack as a share of the instance's total option value.
#: The float candidate ``((base - old) + replacement) + new`` of a relax scan
#: is within four roundings (each at most 2**-53 of that total) of its exact
#: value, so a bound that clears 2**-45 of it cannot be a rounding artefact.
_PRUNE_SLACK = 2.0 ** -45


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    Attributes:
        best: the configuration to install (highest value with weight ≤ capacity).
        table: the final ``MaxV`` table (weight slot → best configuration seen).
        keys_processed: how many objects the solver examined.
        stopped_early: whether the §VI early-stop optimisation triggered.
        relax_scans: relaxation attempts that walked a state's chain.
        relax_pruned: relaxation attempts skipped by the displacement bound.
        relax_improved: relaxation attempts that replaced their state.
    """

    best: CacheConfiguration
    table: Mapping[int, CacheConfiguration]
    keys_processed: int
    stopped_early: bool
    relax_scans: int = 0
    relax_pruned: int = 0
    relax_improved: int = 0


class _State:
    """One scalar DP record: the configuration at a ``MaxV`` weight slot.

    ``chain`` is a singly linked chain of
    ``[option, value, weight, key_bit, parent, loss, min_loss]`` nodes in
    reverse insertion order, so the relax scan touches only list cells — no
    property calls.  ``mask`` is a bitmask over the solver's key indices — an
    O(1) replacement for ``has_key``.

    A node's ``loss`` has one entry per distinct option weight ``w`` of the
    instance: the value given up by shrinking the node to make room for an
    option of weight ``w`` (``inf`` when the node is lighter than ``w``).
    Its ``min_loss`` is the entry-wise minimum of ``loss`` over the node and
    its ancestors — at the head of a chain, the bound
    :meth:`KnapsackSolver._relax_pass` prunes that state with.  It stays
    ``None`` until :func:`_min_loss` is asked for it: most states are
    replaced before any pass looks at them one by one.
    """

    __slots__ = ("value", "weight", "mask", "chain")

    def __init__(self, value: float, weight: int, mask: int, chain: list | None) -> None:
        self.value = value
        self.weight = weight
        self.mask = mask
        self.chain = chain

    def nodes_in_order(self) -> list[list]:
        """The chain's nodes in insertion order."""
        nodes: list[list] = []
        node = self.chain
        while node is not None:
            nodes.append(node)
            node = node[4]
        nodes.reverse()
        return nodes

    def materialize(self) -> CacheConfiguration:
        """Build the full configuration object."""
        return CacheConfiguration(options=tuple(node[0] for node in self.nodes_in_order()))


def _min_loss(node: list) -> tuple[float, ...]:
    """``node``'s ``min_loss``, filled in on it and on the ancestors it needed."""
    unresolved = []
    while node is not None and node[6] is None:
        unresolved.append(node)
        node = node[4]
    bound = None if node is None else node[6]
    while unresolved:
        node = unresolved.pop()
        bound = node[6] = node[5] if bound is None else tuple(map(min, bound, node[5]))
    return bound


class _LazyTable(Mapping):
    """The ``MaxV`` table, materialized from the DP states on first access."""

    def __init__(self, states: list[_State | None]) -> None:
        self._states = states

    @cached_property
    def _table(self) -> dict[int, CacheConfiguration]:
        return {slot: state.materialize()
                for slot, state in enumerate(self._states) if state is not None}

    def __getitem__(self, slot: int) -> CacheConfiguration:
        return self._table[slot]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


class _Table:
    """``MaxV`` and what lets a pass skip most of it.

    ``states[w]`` is the state at weight slot ``w``; slot 0 always holds the
    empty configuration.  ``values`` mirrors the states' values slot by slot
    (``-inf`` where there is none), so an addition pass finds the few sources
    that improve their target with array arithmetic.  ``light`` holds the
    slots whose state weighs less than the slot — a relaxation evicted an
    object outright — and whose addition target is therefore not
    ``slot + weight``.  ``floor`` bounds the ``min_loss`` of every state from
    below, column by column: it is lowered whenever a chain grows and never
    raised when a state is replaced, so it may be stale but never too high.
    ``occupied`` counts the states, ``holders`` are the slots whose state
    holds the key being processed, ``max_slot`` is the highest occupied slot.
    """

    __slots__ = ("states", "values", "light", "floor", "occupied", "holders", "max_slot")

    def __init__(self, capacity: int, columns: int) -> None:
        self.states: list[_State | None] = [None] * (capacity + 1)
        self.states[0] = _State(0.0, 0, 0, None)
        self.values = np.full(capacity + 1, -_INF)
        self.values[0] = 0.0
        self.light: set[int] = set()
        self.floor = (_INF,) * columns
        self.occupied = 1
        self.holders: set[int] = set()
        self.max_slot = 0


class KnapsackSolver:
    """The paper's dynamic-programming heuristic for cache configuration.

    This is the optimized solver: the DP operates on scalar
    ``(value, weight, mask, chain)`` records in a weight-indexed array, with
    per-option weight/value read once, O(1) key-membership checks and
    parent-pointer reconstruction.  It is exactly equivalent (same best value
    and weight) to :class:`ReferenceKnapsackSolver`, which transcribes the
    paper's pseudo-code directly; the equivalence suite asserts this on
    randomized instances.

    Args:
        capacity_weight: cache capacity expressed in chunks.
        use_relax: enable the relaxation step (Fig. 5); disabling it leaves a
            plain addition-only DP, used by the ablation benchmark.
        stop_after_extra_keys: §VI optimisation — how many more objects to
            process after ``MaxV[capacity]`` is first reached (``None``
            disables early stopping).
    """

    def __init__(self, capacity_weight: int, use_relax: bool = True,
                 stop_after_extra_keys: int | None = 25) -> None:
        if capacity_weight < 0:
            raise ValueError("capacity_weight must be non-negative")
        if stop_after_extra_keys is not None and stop_after_extra_keys < 0:
            raise ValueError("stop_after_extra_keys must be non-negative or None")
        self._capacity = capacity_weight
        self._use_relax = use_relax
        self._stop_after_extra_keys = stop_after_extra_keys

    @property
    def capacity_weight(self) -> int:
        """Cache capacity in chunks."""
        return self._capacity

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> SolverResult:
        """Compute a cache configuration from per-object caching options.

        Objects are processed in decreasing order of their best option value
        (Fig. 4 line 8: "iterate through keys in decreasing value order").
        """
        if self._capacity == 0 or not options_by_key:
            return SolverResult(best=EMPTY_CONFIGURATION, table={0: EMPTY_CONFIGURATION},
                                keys_processed=0, stopped_early=False)

        capacity = self._capacity
        # Rank the keys and size the prune from their values alone: a key's
        # options are looked up only when the DP reaches it.
        ranking, distinct_weights, total_value = value_rows(options_by_key, capacity)
        ranking.sort()   # by value, then key: keys are unique, nothing after them is compared

        # Columns of the loss tuples, and the prune's rounding allowance.
        # A NaN or infinite value makes the slack so, and no state prunes.
        weights = sorted(distinct_weights)
        column = {weight: index for index, weight in enumerate(weights)}
        slack = _PRUNE_SLACK * total_value
        finite = slack < _INF

        table = _Table(capacity, len(weights))
        # Per-key exact-weight lookup (SearchOption of Fig. 5), built as the
        # DP reaches a key: a chain only ever holds keys already processed.
        weight_index: dict[str, dict[int, tuple]] = {}

        keys_since_full: int | None = None
        keys_processed = 0
        stopped_early = False
        scans = pruned = improved = 0

        for index, row in enumerate(ranking):
            key = row[1]
            bit = 1 << index
            usable = [option for option in options_by_key[key] if option.weight <= capacity]
            entries, weight_index[key] = _index_options(usable, weights)
            table.holders.clear()
            for entry in entries:
                if self._use_relax:
                    counts = self._relax_pass(table, entry, bit, column[entry[2]],
                                              slack, weight_index)
                    scans += counts[0]
                    pruned += counts[1]
                    improved += counts[2]
                self._addition_pass(table, entry, bit, finite)
            keys_processed += 1

            if self._stop_after_extra_keys is not None:
                if keys_since_full is None and table.max_slot >= capacity:
                    keys_since_full = 0
                elif keys_since_full is not None:
                    keys_since_full += 1
                    if keys_since_full >= self._stop_after_extra_keys:
                        stopped_early = True
                        break

        states = table.states
        # The key a materialized table was ranked by: the configuration's own
        # value — ``sum`` of its options in insertion order, which need not
        # equal the DP's running total bit for bit — then the lighter one;
        # ``max`` keeps the first maximum in slot order.
        winner = max((state for state in states if state is not None),
                     key=lambda state: (sum([node[1] for node in state.nodes_in_order()]),
                                        -state.weight))
        return SolverResult(best=winner.materialize(), table=_LazyTable(states),
                            keys_processed=keys_processed, stopped_early=stopped_early,
                            relax_scans=scans, relax_pruned=pruned, relax_improved=improved)

    def solve_configuration(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration:
        """Convenience wrapper returning only the best configuration."""
        return self.solve(options_by_key).best

    # ------------------------------------------------------------------ #
    # DP passes
    # ------------------------------------------------------------------ #
    def _addition_pass(self, table: _Table, entry: tuple, bit: int, finite: bool) -> None:
        """Fig. 4 lines 14–21: extend existing configurations with ``entry``'s option.

        Only sources that beat the occupant their target slot had *before* the
        pass are visited: slot values only grow within a pass, so every other
        source loses against the live table as well.  ``finite`` says the
        instance has no NaN or infinite value, without which the value mirror
        cannot stand for ``existing is None``; otherwise every slot is visited.
        """
        capacity = self._capacity
        option, option_value, option_weight, loss = entry
        states = table.states
        values = table.values
        if finite:
            reach = capacity + 1 - option_weight
            sources = (values[:reach] + option_value
                       > values[option_weight:]).nonzero()[0].tolist()
            if table.light:
                sources = sorted(table.light.union(sources))
        else:
            sources = range(capacity + 1)
        stored: list[int] = []
        vacant = 0
        # The states as they were: additions inside this pass must not feed
        # further additions of the same option.
        for state in [states[slot] for slot in sources]:
            if state is None or state.mask & bit:
                continue
            new_weight = state.weight + option_weight
            if new_weight > capacity:
                continue
            new_value = state.value + option_value
            existing = states[new_weight]
            if existing is None:
                vacant += 1
            elif not existing.value < new_value:
                continue
            states[new_weight] = _State(
                new_value, new_weight, state.mask | bit,
                [option, option_value, option_weight, bit, state.chain, loss, None])
            values[new_weight] = new_value
            stored.append(new_weight)
        if stored:
            table.holders.update(stored)
            table.light.difference_update(stored)
            table.occupied += vacant
            table.max_slot = max(table.max_slot, max(stored))
            table.floor = tuple(map(min, table.floor, loss))

    def _relax_pass(self, table: _Table, entry: tuple, bit: int,
                    column: int, slack: float,
                    weight_index: Mapping[str, Mapping[int, tuple]]) -> tuple[int, int, int]:
        """Fig. 4 lines 10–12 / Fig. 5: improve configurations at constant weight slot.

        A swap gains ``option value − loss`` over the state, so a state whose
        smallest loss for this option's weight exceeds the option's value by
        more than the rounding ``slack`` has no improving candidate and is
        skipped — all of them at once when the table's ``floor`` already
        clears that bar; anything closer — every exact tie included — gets
        the full scan.  Returns ``(scanned, pruned, improved)`` state counts.
        """
        option_value = entry[1]
        if table.floor[column] - option_value > slack:
            # Every state with a chain that does not hold the key yet.
            return 0, table.occupied - 1 - len(table.holders), 0
        scans = pruned = improved = 0
        for slot, state in enumerate(table.states):
            if state is None or state.mask & bit or state.chain is None:
                continue
            min_loss = state.chain[6] or _min_loss(state.chain)
            if min_loss[column] - option_value > slack:
                pruned += 1
                continue
            scans += 1
            better = self._relax(state, entry, bit, weight_index)
            if better is not None and better.value > state.value:
                table.states[slot] = better
                table.values[slot] = better.value
                table.holders.add(slot)
                if better.weight < slot:
                    table.light.add(slot)
                else:
                    table.light.discard(slot)
                table.floor = tuple(map(min, table.floor, _min_loss(better.chain)))
                improved += 1
        return scans, pruned, improved

    def _relax(self, state: _State, entry: tuple, bit: int,
               weight_index: Mapping[str, Mapping[int, tuple]]) -> _State | None:
        """Fig. 5: make room for ``entry``'s option by shrinking one already-chosen object.

        The replacement option must have *exactly* the weight freed by the
        swap (``OldOption.Weight − Option.Weight``), so the configuration's
        total weight never changes — the invariant that keeps ``MaxV[w]`` a
        weight-``w`` configuration.  When no such option exists the old object
        may be evicted entirely ("the replacement can be total"), which keeps
        the weight bounded by ``w``.

        Returns the best improved state, or ``None`` if no replacement
        increases the value.
        """
        option, option_value, option_weight, loss = entry
        base_value = state.value
        best_value = base_value
        best_node: list | None = None
        best_replacement: tuple | None = None

        # The chain is in reverse insertion order.  The reference scans in
        # insertion order and keeps the *first* candidate achieving the best
        # value, so here a later (= earlier-inserted) candidate may take over
        # on equality: strictly-better than the base, at-least-as-good as the
        # incumbent.
        node = state.chain
        while node is not None:
            freed_weight = node[2] - option_weight
            if freed_weight >= 0:
                # A negative freed weight means the new option is larger than
                # the old one; swapping would exceed the slot's weight.
                replacement = None
                replacement_value = 0.0
                if freed_weight >= 1:
                    replacement = weight_index[node[0].key].get(freed_weight)
                    if replacement is not None:
                        replacement_value = replacement[1]
                candidate_value = base_value - node[1] + replacement_value + option_value
                if candidate_value > base_value and candidate_value >= best_value:
                    best_value = candidate_value
                    best_node = node
                    best_replacement = replacement
            node = node[4]

        if best_node is None:
            return None

        # Rebuild the chain in insertion order with the swap applied, exactly
        # as CacheConfiguration.replace would, and recompute the scalar value
        # as the ordered sum so floats match the reference bit for bit.
        value = 0.0
        weight = 0
        mask = 0
        chain: list | None = None
        for existing in state.nodes_in_order():
            if existing is best_node:
                if best_replacement is None:
                    continue
                kept_option, kept_value, kept_weight, kept_loss = best_replacement
            else:
                kept_option, kept_value, kept_weight, _, _, kept_loss, _ = existing
            chain = [kept_option, kept_value, kept_weight, existing[3], chain, kept_loss, None]
            value += kept_value
            weight += kept_weight
            mask |= existing[3]
        return _State(value + option_value, weight + option_weight, mask | bit,
                      [option, option_value, option_weight, bit, chain, loss, None])


def _index_options(options: Sequence[CachingOption],
                   weights: Sequence[int]) -> tuple[list[tuple], dict[int, tuple]]:
    """One key's ``(option, value, weight, loss)`` entries and exact-weight index.

    Entries come back in increasing weight (the order the DP offers them);
    the index keeps the *first* option of a weight, as
    :func:`~repro.core.options.option_with_weight`'s linear scan does.
    ``loss[i]`` is what shrinking the option by ``weights[i]`` gives up: its
    value minus that of the key's option of exactly the remaining weight
    (nothing, when there is none and the object is evicted).
    """
    entries: list[tuple] = []
    by_weight: dict[int, tuple] = {}
    # Lightest first, so an option's lighter siblings are already indexed.
    for option in sorted(options, key=attrgetter("weight")):
        weight = option.weight
        value = option.value
        entry = (option, value, weight, tuple(
            _INF if weight < shrink else value - by_weight.get(weight - shrink, _EVICTED)[1]
            for shrink in weights))
        entries.append(entry)
        by_weight.setdefault(weight, entry)
    return entries, by_weight


class ReferenceKnapsackSolver:
    """Direct transcription of the paper's pseudo-code (Figs. 4 and 5).

    Each intermediate ``MaxV`` entry is a full immutable
    :class:`CacheConfiguration`.  This is the original, slow implementation;
    it serves as ground truth for :class:`KnapsackSolver`'s equivalence tests
    and accepts the same constructor arguments.
    """

    def __init__(self, capacity_weight: int, use_relax: bool = True,
                 stop_after_extra_keys: int | None = 25) -> None:
        if capacity_weight < 0:
            raise ValueError("capacity_weight must be non-negative")
        if stop_after_extra_keys is not None and stop_after_extra_keys < 0:
            raise ValueError("stop_after_extra_keys must be non-negative or None")
        self._capacity = capacity_weight
        self._use_relax = use_relax
        self._stop_after_extra_keys = stop_after_extra_keys

    @property
    def capacity_weight(self) -> int:
        """Cache capacity in chunks."""
        return self._capacity

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> SolverResult:
        """Compute a cache configuration from per-object caching options."""
        if self._capacity == 0 or not options_by_key:
            return SolverResult(best=EMPTY_CONFIGURATION, table={0: EMPTY_CONFIGURATION},
                                keys_processed=0, stopped_early=False)

        usable = {
            key: [option for option in options if option.weight <= self._capacity]
            for key, options in options_by_key.items()
        }
        usable = {key: options for key, options in usable.items() if options}
        ordered_keys = sorted(usable, key=lambda key: (-best_option_value(usable[key]), key))

        table: dict[int, CacheConfiguration] = {0: EMPTY_CONFIGURATION}
        keys_since_full: int | None = None
        keys_processed = 0
        stopped_early = False

        for key in ordered_keys:
            for option in sorted(usable[key], key=lambda opt: opt.weight):
                if self._use_relax:
                    self._relax_pass(table, option, usable)
                self._addition_pass(table, option)
            keys_processed += 1

            if self._stop_after_extra_keys is not None:
                if keys_since_full is None and self._capacity_reached(table):
                    keys_since_full = 0
                elif keys_since_full is not None:
                    keys_since_full += 1
                    if keys_since_full >= self._stop_after_extra_keys:
                        stopped_early = True
                        break

        best = max(table.values(), key=lambda config: (config.value, -config.weight))
        return SolverResult(best=best, table=table, keys_processed=keys_processed,
                            stopped_early=stopped_early)

    def solve_configuration(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration:
        """Convenience wrapper returning only the best configuration."""
        return self.solve(options_by_key).best

    # ------------------------------------------------------------------ #
    # DP passes
    # ------------------------------------------------------------------ #
    def _capacity_reached(self, table: dict[int, CacheConfiguration]) -> bool:
        return any(weight >= self._capacity for weight in table)

    def _addition_pass(self, table: dict[int, CacheConfiguration], option: CachingOption) -> None:
        """Fig. 4 lines 14–21: extend existing configurations with ``option``."""
        for weight, config in sorted(table.items()):
            if config.has_key(option.key):
                continue
            new_weight = config.weight + option.weight
            if new_weight > self._capacity:
                continue
            new_value = config.value + option.value
            existing = table.get(new_weight)
            if existing is None or existing.value < new_value:
                table[new_weight] = config.with_option(option)

    def _relax_pass(self, table: dict[int, CacheConfiguration], option: CachingOption,
                    options_by_key: Mapping[str, Sequence[CachingOption]]) -> None:
        """Fig. 4 lines 10–12 / Fig. 5: improve configurations at constant weight."""
        for weight, config in list(table.items()):
            improved = self._relax(config, option, options_by_key)
            if improved is not None and improved.value > config.value:
                table[weight] = improved

    def _relax(self, config: CacheConfiguration, option: CachingOption,
               options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration | None:
        """Fig. 5: make room for ``option`` by shrinking one already-chosen object."""
        if config.has_key(option.key) or not config.options:
            return None

        best_choice: tuple[CachingOption, CachingOption | None] | None = None
        best_value = config.value

        for old_option in config.options:
            freed_weight = old_option.weight - option.weight
            if freed_weight < 0:
                # The new option is larger than the old one; swapping would
                # exceed the slot's weight.
                continue
            replacement = None
            if freed_weight >= 1:
                replacement = option_with_weight(
                    options_by_key.get(old_option.key, ()), freed_weight
                )
            replacement_value = replacement.value if replacement is not None else 0.0
            candidate_value = config.value - old_option.value + replacement_value + option.value
            if candidate_value > best_value:
                best_value = candidate_value
                best_choice = (old_option, replacement)

        if best_choice is None:
            return None
        old_option, replacement = best_choice
        return config.replace(old_option, replacement, added=option)


def configuration_summary(configuration: CacheConfiguration) -> dict[int, int]:
    """Histogram {cached chunk count: number of objects} for a configuration.

    This is the quantity Fig. 10 visualises for Agar's cache contents.
    """
    histogram: dict[int, int] = {}
    for option in configuration.options:
        histogram[option.weight] = histogram.get(option.weight, 0) + 1
    return histogram


def total_chunks(configurations: Iterable[CacheConfiguration]) -> int:
    """Total chunks across several configurations (used in multi-region reports)."""
    return sum(config.weight for config in configurations)
