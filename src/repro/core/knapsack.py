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

:class:`KnapsackSolver` runs that heuristic over arrays.  ``MaxV`` is one
head row per weight slot — the last-added node of a chain of option nodes,
kept as rows of a NumPy node pool that carry the configuration's running
total value and weight — beside a float array of those totals and bool arrays
of the occupied slots and of those whose state lacks the current key.  Keys are ranked, and
the bounds below sized, from the option *values* alone; a key's options are
looked up when the DP reaches it, so a mapping that creates them on demand
(:class:`~repro.core.options.OptionTable`) creates them for the head of the
ranking only.  A relaxation pass is skipped outright when a table-wide lower
bound on what shrinking any chosen object would cost already exceeds the
option's value, and state by state from a per-state bound when it does not;
an addition pass is one gather–compare–scatter over the slot arrays that
stores its batch as pool rows; only the states whose running total is within
rounding of the best are re-summed to pick the winner, and only the winner is
materialized as a :class:`CacheConfiguration`.  The paper's pseudo-code transcribed directly,
with a configuration object per state, is the test suite's oracle
(``tests/reference/knapsack.py``).

:mod:`repro.core.exact` and :mod:`repro.core.greedy` provide an exact MCKP
solver and a greedy baseline for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.options import CachingOption, value_rows
from repro.erasure.chunk import ChunkId


@dataclass(frozen=True)
class CacheConfiguration:
    """An assignment of caching options to objects (at most one per object).

    Configurations are immutable.  Weight, value and the key index are
    computed once at construction time, so the properties are O(1).
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

    def keys(self) -> list[str]:
        """Keys with at least one cached chunk, in insertion order."""
        return [option.key for option in self.options]

    def chunks_for(self, key: str) -> tuple[int, ...]:
        """Chunk indices cached for ``key`` (empty tuple if none)."""
        option = self._by_key.get(key)
        return option.chunk_indices if option else ()

    def chunk_ids(self) -> frozenset[ChunkId]:
        """All chunk ids named by the configuration (what the cache should pin)."""
        return frozenset(ChunkId(option.key, index)
                         for option in self.options for index in option.chunk_indices)

    def __len__(self) -> int:
        return len(self.options)


EMPTY_CONFIGURATION = CacheConfiguration()

_INF = float("inf")

#: Relaxation-pruning slack as a share of the instance's total option value.
#: The float candidate ``((base - old) + replacement) + new`` of a relax scan
#: is within four roundings (each at most 2**-53 of that total) of its exact
#: value, so a bound that clears 2**-45 of it cannot be a rounding artefact.
_PRUNE_SLACK = 2.0 ** -45

#: Winner slack per option of a chain, as a share of the instance's total
#: option value.  A running total — a left-to-right float sum, one rounding per
#: option — and the ``sum`` a :class:`CacheConfiguration` reports for the same
#: options (compensated since Python 3.12, exactly rounded under ``math.fsum``)
#: are each within ``(options + 1) × 2**-53`` of that total of the exact sum;
#: ``(options + 2) × 2**-52`` covers their distance with room for the float
#: arithmetic of the bound itself.
_SUM_SLACK = 2.0 ** -52


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


# A chain node is a row of the solve's node pool (:class:`_Pool`).  Four
# arrays hold, per row, the index of the node's entry — ``(option, value,
# weight, loss, by_weight)`` in ``_Pool.entries`` — the ``parent`` row of the
# node added before it (−1 for none), and the running ``total`` value and
# chain ``weight`` of the configuration whose head the node is.  A chain is
# its configuration in reverse insertion order, and no state is a Python
# object the garbage collector tracks.  ``by_weight`` maps each weight of the
# entry's key to the index of its first option of that weight
# (``SearchOption`` of Fig. 5, see :func:`_index_options`).
#
# An entry's ``loss`` has one value per distinct option weight ``w`` of the
# instance: what shrinking the option to make room for an option of weight
# ``w`` gives up (``inf`` when it is lighter than ``w``).  A row's
# ``min_loss`` is the entry-wise minimum of ``loss`` over the row and its
# ancestors — at the head of a chain, the bound
# :meth:`KnapsackSolver._relax_pass` prunes that state with.  It is kept per
# row once :meth:`_Pool.min_loss` is asked for it: most states are replaced
# before any pass looks at them one by one.


class _Pool:
    """The chain nodes of one solve, as rows of four arrays grown by doubling."""

    __slots__ = ("entries", "entry", "parent", "total", "weight", "ids", "size", "views", "min_losses")

    def __init__(self, rows: int) -> None:
        self.entries: list[tuple] = []
        self.entry = np.empty(rows, dtype=np.int64)
        self.parent = np.empty(rows, dtype=np.int64)
        self.total = np.empty(rows)
        self.weight = np.empty(rows, dtype=np.int64)
        self.ids = np.arange(rows)
        self.size = 0
        # ``entry`` and ``parent`` read as plain ints, faster than ``item``.
        self.views = memoryview(self.entry), memoryview(self.parent)
        self.min_losses: dict[int, tuple[float, ...]] = {}

    def append(self, entry, parent, total, weight: Sequence[int]) -> np.ndarray:
        """Store a row per ``weight`` given (each other field as many, or one for all); their ids."""
        start = self.size
        self.size += len(weight)
        if self.size > len(self.ids):
            rows = max(self.size, 2 * len(self.ids))
            for name in ("entry", "parent", "total", "weight"):
                setattr(self, name, np.resize(getattr(self, name), rows))
            self.ids = np.arange(rows)
            self.views = memoryview(self.entry), memoryview(self.parent)
        rows = slice(start, self.size)
        self.entry[rows] = entry
        self.parent[rows] = parent
        self.total[rows] = total
        self.weight[rows] = weight
        return self.ids[rows]

    def chain(self, row: int) -> list[int]:
        """The entries of the chain ending at ``row``, in insertion order."""
        entry, parent = self.views
        entries = []
        while row >= 0:
            entries.append(entry[row])
            row = parent[row]
        return entries[::-1]

    def min_loss(self, row: int) -> tuple[float, ...]:
        """``row``'s ``min_loss``, kept for it and for the ancestors it needed."""
        memo = self.min_losses
        entry, parent = self.views
        unresolved = []
        while row >= 0 and row not in memo:
            unresolved.append(row)
            row = parent[row]
        bound = memo.get(row)
        for row in reversed(unresolved):
            loss = self.entries[entry[row]][3]
            bound = memo[row] = loss if bound is None else tuple(map(min, bound, loss))
        return bound

    def materialize(self, row: int) -> CacheConfiguration:
        """The configuration whose chain ends at ``row`` (−1: the empty one)."""
        return CacheConfiguration(options=tuple(self.entries[entry][0]
                                                for entry in self.chain(row)))

    def ranked(self, row: int) -> tuple[float, int]:
        """What a materialized table ranks a state by.

        The configuration's own value — ``sum`` of its options in insertion
        order, which need not equal the DP's running total bit for bit — then
        the lighter one.
        """
        if row < 0:
            return 0.0, 0
        return sum([self.entries[entry][1] for entry in self.chain(row)]), -self.weight.item(row)


class _LazyTable(Mapping):
    """The ``MaxV`` table, materialized from the head rows on first access."""

    def __init__(self, heads: np.ndarray, pool: _Pool) -> None:
        self._heads = heads
        self._pool = pool

    @cached_property
    def _table(self) -> dict[int, CacheConfiguration]:
        return {slot: self._pool.materialize(head)
                for slot, head in enumerate(self._heads.tolist()) if head >= 0 or not slot}

    def __getitem__(self, slot: int) -> CacheConfiguration:
        return self._table[slot]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


class _Table:
    """``MaxV`` as arrays over the weight slots, and what lets a pass skip most of it.

    ``heads[w]`` is the pool row that heads the configuration at weight slot
    ``w``; slot 0 holds the empty configuration, which has no row (−1, as an
    empty slot has).  ``occupied`` says which slots hold a configuration,
    ``values`` their running totals (whatever it holds elsewhere is never
    read), ``unheld`` which of them do not hold the key being processed yet:
    the sources an addition pass may extend and the states a relaxation pass
    may rework (the per-key held set, kept as its complement because that is
    what both passes ask for).  ``light``
    holds the slots whose state weighs less than the slot — a relaxation
    evicted an object outright — and whose addition target is therefore not
    ``slot + weight``.  ``floor`` bounds the ``min_loss`` of every state from
    below, column by column: it is lowered whenever a chain grows and never
    raised when a state is replaced, so it may be stale but never too high.
    ``max_slot`` is the highest occupied slot.
    """

    __slots__ = ("pool", "heads", "values", "occupied", "unheld", "light", "floor", "max_slot")

    def __init__(self, capacity: int, columns: int) -> None:
        self.pool = _Pool(4 * (capacity + 1))
        self.heads = np.full(capacity + 1, -1, dtype=np.int64)
        self.values = np.zeros(capacity + 1)
        self.occupied = np.zeros(capacity + 1, dtype=bool)
        self.occupied[0] = True
        self.unheld = self.occupied.copy()
        self.light: set[int] = set()
        self.floor = (_INF,) * columns
        self.max_slot = 0

    def winner(self, slack: float) -> int:
        """The head row of the state a materialized table ranks first (:meth:`_Pool.ranked`).

        ``max`` over every state keeps the first maximum in slot order.  A
        state's ``sum`` is within ``slack`` of its running total, so one more
        than ``2 × slack`` below the largest total cannot rank first, and only
        the states within that distance are re-summed — all of them when a
        total or the slack is not finite.
        """
        slots = self.occupied.nonzero()[0]
        totals = self.values[slots]
        top = float(totals.max())
        threshold = top - 2.0 * slack
        if -_INF < threshold and top < _INF:
            slots = slots[totals >= threshold]
        return max(self.heads[slots].tolist(), key=self.pool.ranked)


class KnapsackSolver:
    """The paper's dynamic-programming heuristic for cache configuration.

    The DP runs over the head rows of option chains (a NumPy node pool) in a
    weight-indexed array, per-option weight/value read once, key membership and occupancy as
    bool arrays and parent-pointer reconstruction.  It decides exactly as the
    paper's pseudo-code transcribed with a configuration object per state
    (``tests/reference/knapsack.py``): same table slot by slot, same winner,
    same floats; the equivalence suites assert this on randomized instances.

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

        table = _Table(capacity, len(weights))
        entries = table.pool.entries
        keys_since_full: int | None = None
        keys_processed = 0
        stopped_early = False
        scans = pruned = improved = 0

        # A NaN or infinite value makes slot arithmetic so as well; that is
        # no error, ``occupied`` and not the values says where a state is.
        with np.errstate(invalid="ignore", over="ignore"):
            for row in ranking:
                usable = [option for option in options_by_key[row[1]]
                          if option.weight <= capacity]
                np.copyto(table.unheld, table.occupied)
                for entry in _index_options(usable, weights, entries):
                    if self._use_relax:
                        counts = self._relax_pass(table, entry, column[entries[entry][2]],
                                                  slack)
                        scans += counts[0]
                        pruned += counts[1]
                        improved += counts[2]
                    self._addition_pass(table, entry)
                keys_processed += 1

                if self._stop_after_extra_keys is not None:
                    if keys_since_full is None and table.max_slot >= capacity:
                        keys_since_full = 0
                    elif keys_since_full is not None:
                        keys_since_full += 1
                        if keys_since_full >= self._stop_after_extra_keys:
                            stopped_early = True
                            break

        # A chain holds at most one option per key processed.
        winner = table.winner(_SUM_SLACK * (keys_processed + 2) * total_value)
        return SolverResult(best=table.pool.materialize(winner),
                            table=_LazyTable(table.heads, table.pool),
                            keys_processed=keys_processed, stopped_early=stopped_early,
                            relax_scans=scans, relax_pruned=pruned, relax_improved=improved)

    def solve_configuration(self, options_by_key: Mapping[str, Sequence[CachingOption]]) -> CacheConfiguration:
        """Convenience wrapper returning only the best configuration."""
        return self.solve(options_by_key).best

    # ------------------------------------------------------------------ #
    # DP passes
    # ------------------------------------------------------------------ #
    def _addition_pass(self, table: _Table, entry: int) -> None:
        """Fig. 4 lines 14–21: extend existing configurations with ``entry``'s option.

        A source is an occupied slot whose state lacks the key; it adds to
        the slot of its weight plus the option's and is stored there when
        that slot is empty or holds less.  Sources are the states as they
        were before the pass: an addition must not feed another addition of
        the same option.  The sources that are not light go as one batch of
        new pool rows — a slot ``t`` is the target of one of them at most,
        ``t − weight``, so each compares against the occupant its target had
        before the pass.  The light ones (usually none) follow in slot order
        against the live table: one that reaches ``t`` sits above
        ``t − weight``, so that is the order a sweep over all sources in slot
        order meets them in.
        """
        pool = table.pool
        _, value, weight, loss, _ = pool.entries[entry]
        heads = table.heads
        values = table.values
        occupied = table.occupied
        unheld = table.unheld
        light = table.light
        reach = self._capacity + 1 - weight
        totals = values[:reach] + value
        chosen = unheld[:reach] & (~occupied[weight:] | (values[weight:] < totals))
        tail = ()
        if light:
            tail = [heads.item(slot) for slot in sorted(light) if unheld[slot]]
            chosen[[slot for slot in light if slot < reach]] = False
        sources = chosen.nonzero()[0]
        stored = len(sources) > 0
        if stored:
            targets = sources + weight
            totals = totals[sources]
            # Every source's head is read before any target's is replaced.
            heads[targets] = pool.append(entry, heads[sources], totals, targets)
            values[targets] = totals
            occupied[targets] = True
            unheld[targets] = False
            if light:
                light.difference_update(targets.tolist())
            table.max_slot = max(table.max_slot, int(targets[-1]))
        if tail:
            stored = self._add_light(table, entry, tail) or stored
        if stored:
            table.floor = tuple(map(min, table.floor, loss))

    def _add_light(self, table: _Table, entry: int, sources: list[int]) -> bool:
        """An addition pass's light source rows, in slot order; whether one was stored."""
        pool = table.pool
        _, value, weight, _, _ = pool.entries[entry]
        capacity = self._capacity
        heads = table.heads
        stored = False
        for source in sources:
            target = pool.weight.item(source) + weight
            if target > capacity:
                continue
            total = pool.total.item(source) + value
            existing = heads.item(target)
            if existing >= 0 and not pool.total.item(existing) < total:
                continue
            heads[target] = pool.append(entry, source, total, [target])[0]
            table.values[target] = total
            table.occupied[target] = True
            table.unheld[target] = False
            table.light.discard(target)
            table.max_slot = max(table.max_slot, target)
            stored = True
        return stored

    def _relax_pass(self, table: _Table, entry: int, column: int,
                    slack: float) -> tuple[int, int, int]:
        """Fig. 4 lines 10–12 / Fig. 5: improve configurations at constant weight slot.

        A swap gains ``option value − loss`` over the state, so a state whose
        smallest loss for this option's weight exceeds the option's value by
        more than the rounding ``slack`` has no improving candidate and is
        skipped — all of them at once when the table's ``floor`` already
        clears that bar; anything closer — every exact tie included — gets
        the full scan.  Returns ``(scanned, pruned, improved)`` state counts.
        """
        pool = table.pool
        option_value = pool.entries[entry][1]
        unheld = table.unheld
        if table.floor[column] - option_value > slack:
            # Every state with a chain that does not hold the key yet: all
            # unheld slots but slot 0's empty configuration.
            return 0, int(np.count_nonzero(unheld)) - 1, 0
        heads = table.heads
        memo = pool.min_losses
        scans = pruned = improved = 0
        slots = unheld.nonzero()[0]
        for slot, head in zip(slots.tolist(), heads[slots].tolist()):
            if head < 0:
                continue
            min_loss = memo.get(head) or pool.min_loss(head)
            if min_loss[column] - option_value > slack:
                pruned += 1
                continue
            scans += 1
            better = _relax(pool, head, entry, column, slack)
            if better is not None:
                heads[slot] = better
                table.values[slot] = pool.total[better]
                unheld[slot] = False
                if pool.weight[better] < slot:
                    table.light.add(slot)
                else:
                    table.light.discard(slot)
                table.floor = tuple(map(min, table.floor, pool.min_loss(better)))
                improved += 1
        return scans, pruned, improved


def _relax(pool: _Pool, head: int, entry: int, column: int, slack: float) -> int | None:
    """Fig. 5: make room for ``entry``'s option by shrinking one already-chosen object.

    The replacement option must have *exactly* the weight freed by the swap
    (``OldOption.Weight − Option.Weight``), so the configuration's total
    weight never changes — the invariant that keeps ``MaxV[w]`` a
    weight-``w`` configuration.  When no such option exists the old object
    may be evicted entirely ("the replacement can be total"), which keeps the
    weight bounded by ``w``.

    Returns the head row of the best improved chain, or ``None`` if no
    replacement increases the value.
    """
    entries = pool.entries
    entry_of, parent_of = pool.views
    _, option_value, option_weight, _, _ = entries[entry]
    base_value = pool.total.item(head)
    best_value = base_value
    best_node = -1
    best_replacement = None

    # The chain is in reverse insertion order.  The reference scans in
    # insertion order and keeps the *first* candidate achieving the best
    # value, so here a later (= earlier-inserted) candidate may take over on
    # equality: strictly-better than the base, at-least-as-good as the
    # incumbent.  The walk stops at the first node whose ``min_loss`` — over
    # it and every node below it — clears the option's value by more than
    # ``slack``: by the prune's argument none of those nodes improves the state.
    min_losses = pool.min_losses
    node = head
    while node >= 0 and not min_losses[node][column] - option_value > slack:
        _, node_value, node_weight, _, by_weight = entries[entry_of[node]]
        freed_weight = node_weight - option_weight
        if freed_weight >= 0:
            # A negative freed weight means the new option is larger than
            # the old one; swapping would exceed the slot's weight.
            replacement = None
            replacement_value = 0.0
            if freed_weight >= 1:
                replacement = by_weight.get(freed_weight)
                if replacement is not None:
                    replacement_value = entries[replacement][1]
            candidate_value = base_value - node_value + replacement_value + option_value
            if candidate_value > base_value and candidate_value >= best_value:
                best_value = candidate_value
                best_node = node
                best_replacement = replacement
        node = parent_of[node]

    if best_node < 0:
        return None

    # Rebuild the chain from the swapped node on, in insertion order, with
    # the swap applied.  A running total is the left-to-right sum of its
    # chain's values, as the reference's configuration derivation adds them,
    # so the rows below the swap are shared and the floats match bit for bit.
    rebuilt = [entry]
    node = head
    while node != best_node:
        rebuilt.append(entry_of[node])
        node = parent_of[node]
    if best_replacement is not None:
        rebuilt.append(best_replacement)
    rebuilt.reverse()
    parent = parent_of[best_node]
    value, weight = (pool.total.item(parent), pool.weight.item(parent)) if parent >= 0 else (0.0, 0)
    totals = list(accumulate([entries[kept][1] for kept in rebuilt], initial=value))[1:]
    if not totals[-1] > base_value:
        return None
    weights = list(accumulate([entries[kept][2] for kept in rebuilt], initial=weight))[1:]
    start = pool.size
    return pool.append(rebuilt, [parent, *range(start, start + len(rebuilt) - 1)],
                       totals, weights).item(-1)


def _index_options(options: Sequence[CachingOption], weights: Sequence[int],
                   entries: list[tuple]) -> range:
    """Register one key's ``(option, value, weight, loss, by_weight)`` entries.

    Appends them to ``entries`` in increasing weight (the order the DP offers
    them) and returns their indices.  ``by_weight`` maps a weight to the
    index of the key's *first* option of it, as the paper's ``SearchOption``
    scan over the key's options finds it.  ``loss[i]`` is what shrinking the
    option by ``weights[i]`` gives up: its value minus that of the key's
    option of exactly the remaining weight (nothing, when there is none and
    the object is evicted).
    """
    start = len(entries)
    by_weight: dict[int, int] = {}
    first_values: dict[int, float] = {}
    # Lightest first, so an option's lighter siblings are already indexed.
    for option in sorted(options, key=attrgetter("weight")):
        weight = option.weight
        value = option.value
        loss = tuple(_INF if weight < shrink else value - first_values.get(weight - shrink, 0.0)
                     for shrink in weights)
        if weight not in by_weight:
            by_weight[weight] = len(entries)
            first_values[weight] = value
        entries.append((option, value, weight, loss, by_weight))
    return range(start, len(entries))


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
