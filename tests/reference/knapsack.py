"""The knapsack DP as the paper writes it: a configuration object per state.

``KnapsackSolver`` runs the multiple-choice knapsack heuristic of §IV-B
(Figs. 4 and 5) over head nodes of option chains and slot arrays; this is the
direct transcription of the paper's pseudo-code it was checked against, moved
out of the package unchanged but for the two configuration derivations, now
the functions :func:`with_option` and :func:`replace`.  Each ``MaxV`` entry is
a full immutable :class:`CacheConfiguration`, and every option is looked up by
a linear scan (:func:`option_with_weight`).  The equivalence suites
(``tests/core/test_solver_equivalence.py``, ``test_relax_pruning.py``,
``test_option_table_properties.py``, ``test_addition_order.py``) require the
shipped solver to decide exactly as this one does, slot by slot.

The helpers below were ``CacheConfiguration.with_option`` / ``replace`` and
``repro.core.options.option_with_weight`` / ``option_with_weight_at_most`` /
``best_option_value`` until nothing in the package called them any more.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.knapsack import EMPTY_CONFIGURATION, CacheConfiguration, SolverResult
from repro.core.options import CachingOption


def with_option(config: CacheConfiguration, option: CachingOption) -> CacheConfiguration:
    """Return a new configuration with ``option`` appended.

    Raises:
        ValueError: if the configuration already has an option for the key.
    """
    return CacheConfiguration(options=config.options + (option,))


def replace(config: CacheConfiguration, old: CachingOption,
            replacement: CachingOption | None,
            added: CachingOption | None = None) -> CacheConfiguration:
    """Return a new configuration with ``old`` swapped for ``replacement``.

    ``replacement`` may be ``None`` (total eviction of the old object,
    paper Fig. 5); ``added`` is an option for another object appended at
    the end (the option that the relaxation made room for).
    """
    position = -1
    for index, option in enumerate(config.options):
        if option is old:
            position = index
            break
    if position < 0:
        # Identity miss: fall back to a single equality scan.
        for index, option in enumerate(config.options):
            if option == old:
                position = index
                break
    new_options = list(config.options)
    if position >= 0:
        if replacement is not None:
            new_options[position] = replacement
        else:
            del new_options[position]
    if added is not None:
        new_options.append(added)
    return CacheConfiguration(options=tuple(new_options))


def best_option_value(options: Sequence[CachingOption]) -> float:
    """The largest absolute value among a key's options (0 if none)."""
    return max((option.value for option in options), default=0.0)


def option_with_weight(options: Sequence[CachingOption], weight: int) -> CachingOption | None:
    """The option with exactly ``weight`` cached chunks, if one exists.

    This is ``SearchOption(AllOptions, W, Key)`` from the paper's RELAX
    procedure (Fig. 5): the shrunk replacement must have exactly the weight
    that keeps the configuration's total weight unchanged.
    """
    for option in options:
        if option.weight == weight:
            return option
    return None


def option_with_weight_at_most(options: Sequence[CachingOption], max_weight: int) -> CachingOption | None:
    """The most valuable option whose weight does not exceed ``max_weight``.

    Options are generated at region boundaries, so an exact weight may not
    exist; this helper returns the best fitting smaller option.
    """
    fitting = [option for option in options if option.weight <= max_weight]
    if not fitting:
        return None
    return max(fitting, key=lambda option: (option.value, -option.weight))


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

        # The first maximum in slot order, as the shipped solver documents.
        best = max((table[slot] for slot in sorted(table)),
                   key=lambda config: (config.value, -config.weight))
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
            if option.key in config.keys():
                continue
            new_weight = config.weight + option.weight
            if new_weight > self._capacity:
                continue
            new_value = config.value + option.value
            existing = table.get(new_weight)
            if existing is None or existing.value < new_value:
                table[new_weight] = with_option(config, option)

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
        if option.key in config.keys() or not config.options:
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
        return replace(config, old_option, replacement, added=option)
