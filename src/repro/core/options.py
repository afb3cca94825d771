"""Caching-option generation (paper §IV-A).

A *caching option* is a hypothetical configuration for one object: a set of
chunks to cache locally, its weight (number of chunks) and its value (the
latency improvement local clients would see, weighted by the object's
popularity).

Generation follows the paper:

1. The ``m`` chunks furthest from the local region are discarded — in the
   common (failure-free) case clients never fetch them, so caching them would
   only add cache-miss latency.
2. The remaining ``k`` chunks (the *needed set*) are considered from the most
   distant region inwards.  Options are produced at region boundaries: caching
   only part of a region's chunks cannot lower the read latency (the read is
   dominated by the furthest region still contacted), so intermediate weights
   are dominated.  For the paper's deployment (two chunks per region) this
   yields the weights {1, 3, 5, 7, 9} of the §IV example.
3. Each option's *absolute* latency improvement is the difference between the
   furthest region contacted with no caching and the furthest region still
   contacted with the option in place; its *marginal* improvement is measured
   against the previous (smaller) option, matching the arithmetic of the
   paper's worked example (values 160,000 and 64,000 for ``key1``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf, isfinite
from operator import itemgetter
from typing import Iterator, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class PlacedChunk:
    """One chunk of the needed set, as seen from the local region."""

    index: int
    region: str
    latency_ms: float


@dataclass(frozen=True, slots=True)
class CachingOption:
    """One candidate configuration for a single object (paper §IV-A).

    Attributes:
        key: the object the option refers to.
        chunk_indices: the chunk indices that would be cached, most distant
            first.
        weight: number of chunks cached (= ``len(chunk_indices)``).
        latency_improvement_ms: absolute improvement over caching nothing.
        marginal_improvement_ms: improvement over the next-smaller option.
        popularity: EWMA popularity of the object when the option was built.
        residual_latency_ms: latency of the furthest source still contacted
            when this option is in place (backend region or local cache).
    """

    key: str
    chunk_indices: tuple[int, ...]
    weight: int
    latency_improvement_ms: float
    marginal_improvement_ms: float
    popularity: float
    residual_latency_ms: float

    def __post_init__(self) -> None:
        if self.weight != len(self.chunk_indices):
            raise ValueError("weight must equal the number of cached chunks")
        if self.weight <= 0:
            raise ValueError("a caching option must cache at least one chunk")

    @property
    def value(self) -> float:
        """Absolute value: ``popularity × latency improvement`` (paper §IV-A)."""
        return self.popularity * self.latency_improvement_ms

    @property
    def marginal_value(self) -> float:
        """Marginal value relative to the next-smaller option for the same key."""
        return self.popularity * self.marginal_improvement_ms

    def chunk_set(self) -> frozenset[int]:
        """The cached chunk indices as a set."""
        return frozenset(self.chunk_indices)


def needed_chunks(
    chunks_by_region: Mapping[str, Sequence[int]],
    region_latencies: Mapping[str, float],
    data_chunks: int,
    parity_chunks: int,
) -> list[PlacedChunk]:
    """Return the ``k`` chunks a failure-free read fetches, furthest first.

    The ``m`` chunks furthest from the local region are discarded (§IV-A); the
    rest are returned sorted by decreasing latency (ties broken by region name
    and chunk index for determinism).

    Raises:
        ValueError: if fewer than ``k + m`` chunks are placed, or a region is
            missing from ``region_latencies``.
    """
    placed: list[PlacedChunk] = []
    for region, indices in chunks_by_region.items():
        if not indices:
            continue
        if region not in region_latencies:
            raise ValueError(f"no latency estimate for region {region!r}")
        for index in indices:
            placed.append(PlacedChunk(index=index, region=region, latency_ms=float(region_latencies[region])))

    total = data_chunks + parity_chunks
    if len(placed) < total:
        raise ValueError(
            f"object has {len(placed)} placed chunks but k + m = {total} are expected"
        )

    placed.sort(key=lambda chunk: (-chunk.latency_ms, chunk.region, -chunk.index))
    # Discard the m furthest chunks; keep the k the client actually fetches.
    return placed[parity_chunks:]


def baseline_read_latency(
    chunks_by_region: Mapping[str, Sequence[int]],
    region_latencies: Mapping[str, float],
    data_chunks: int,
    parity_chunks: int,
) -> float:
    """Latency of the furthest region contacted when nothing is cached."""
    needed = needed_chunks(chunks_by_region, region_latencies, data_chunks, parity_chunks)
    return needed[0].latency_ms if needed else 0.0


def generate_caching_options(
    key: str,
    chunks_by_region: Mapping[str, Sequence[int]],
    region_latencies: Mapping[str, float],
    popularity: float,
    data_chunks: int,
    parity_chunks: int,
    cache_read_ms: float = 0.0,
    include_all_weights: bool = False,
) -> list[CachingOption]:
    """Generate the caching options for one object (paper §IV-A).

    Args:
        key: object key.
        chunks_by_region: mapping region -> chunk indices stored there.
        region_latencies: per-chunk read latency estimate from the local
            region to every region (the Region Manager's measurements).
        popularity: the object's EWMA popularity.
        data_chunks: ``k``.
        parity_chunks: ``m``.
        cache_read_ms: latency of a local cache read; it is the residual
            latency of the full-replica option (all ``k`` chunks cached).
        include_all_weights: also emit the dominated intermediate weights
            (same improvement as the previous region boundary).  The paper's
            algorithm only needs the boundary options; the flag exists for
            ablation experiments.

    Returns:
        Options sorted by increasing weight.  Empty if the object has no
        cacheable chunks (``k = 0``) or ``popularity`` is negative.
    """
    if popularity < 0:
        raise ValueError("popularity must be non-negative")
    needed = needed_chunks(chunks_by_region, region_latencies, data_chunks, parity_chunks)
    if not needed:
        return []

    baseline = needed[0].latency_ms
    options: list[CachingOption] = []
    cached: list[PlacedChunk] = []
    previous_residual = baseline

    position = 0
    while position < len(needed):
        region = needed[position].region
        group_end = position
        while group_end < len(needed) and needed[group_end].region == region:
            group_end += 1

        if include_all_weights:
            # Intermediate weights: caching part of the region's chunks leaves
            # the region on the critical path, so the residual does not change.
            for partial_end in range(position + 1, group_end):
                cached_partial = needed[:partial_end]
                options.append(
                    CachingOption(
                        key=key,
                        chunk_indices=tuple(chunk.index for chunk in cached_partial),
                        weight=len(cached_partial),
                        latency_improvement_ms=max(baseline - previous_residual, 0.0),
                        marginal_improvement_ms=0.0,
                        popularity=popularity,
                        residual_latency_ms=previous_residual,
                    )
                )

        cached = needed[:group_end]
        if group_end < len(needed):
            residual = needed[group_end].latency_ms
        else:
            residual = cache_read_ms
        improvement = max(baseline - residual, 0.0)
        marginal = max(previous_residual - residual, 0.0)
        options.append(
            CachingOption(
                key=key,
                chunk_indices=tuple(chunk.index for chunk in cached),
                weight=len(cached),
                latency_improvement_ms=improvement,
                marginal_improvement_ms=marginal,
                popularity=popularity,
                residual_latency_ms=residual,
            )
        )
        previous_residual = residual
        position = group_end

    return options


class OptionLadder:
    """The options of one placement shape, with key and popularity left open.

    Objects whose chunks are placed alike have the same options up to the two
    fields an object owns; a ladder keeps one set of them (its ``rungs``) and
    stamps an object's own on request.  ``weights`` and ``gains`` (absolute
    latency improvements) are the rungs' columns: an object's option values
    are its popularity times ``gains``, no option needed.
    """

    __slots__ = ("rungs", "weights", "gains", "best_gain")

    def __init__(self, rungs: Sequence[CachingOption]) -> None:
        self.rungs = tuple(rungs)
        self.weights = tuple(rung.weight for rung in self.rungs)
        self.gains = tuple(rung.latency_improvement_ms for rung in self.rungs)
        #: The largest gain — ``None`` unless every gain is finite, see :meth:`best_value`.
        self.best_gain = max(self.gains) if all(map(isfinite, self.gains)) and self.gains else None

    def fitting(self, max_weight: int) -> "OptionLadder":
        """The ladder of the rungs no heavier than ``max_weight`` (itself, if all are)."""
        if all(weight <= max_weight for weight in self.weights):
            return self
        return OptionLadder([rung for rung in self.rungs if rung.weight <= max_weight])

    def best_value(self, popularity: float) -> float:
        """The largest option value at ``popularity``: ``max`` over ``popularity * gains``.

        Rounding keeps a product monotonic in the gain, so between finite
        non-negative factors the largest gain gives the largest value; an
        infinity can meet a zero, and ``max`` over a NaN depends on the order.
        """
        if self.best_gain is not None and 0.0 <= popularity < inf:
            return popularity * self.best_gain
        return max([popularity * gain for gain in self.gains])

    def stamp(self, key: str, popularity: float) -> list[CachingOption]:
        """The rungs as ``key``'s options at ``popularity``."""
        return [
            CachingOption(key, rung.chunk_indices, rung.weight,
                          rung.latency_improvement_ms, rung.marginal_improvement_ms,
                          popularity, rung.residual_latency_ms)
            for rung in self.rungs
        ]


class OptionTable(Mapping[str, Sequence[CachingOption]]):
    """Caching options per candidate key, stamped when a key is first looked up.

    The table holds a popularity and a ladder per key, in the order the keys
    were added.  ``table[key]`` — and therefore ``items()`` / ``values()`` —
    creates the key's options and keeps them; ``len``, iteration, ``in``,
    :meth:`value_rows` and the two counts do not.
    """

    def __init__(self) -> None:
        # key -> (-best value, key, popularity, ladder): what ranks the key first.
        self._rows: dict[str, tuple[float, str, float, OptionLadder]] = {}
        self._stamped: dict[str, list[CachingOption]] = {}

    def add(self, key: str, popularity: float, ladder: OptionLadder) -> None:
        """Append ``key`` with the options of ``ladder`` (not empty) at ``popularity``."""
        self._rows[key] = (-ladder.best_value(popularity), key, popularity, ladder)

    def __getitem__(self, key: str) -> list[CachingOption]:
        options = self._stamped.get(key)
        if options is None:
            _, _, popularity, ladder = self._rows[key]
            options = self._stamped[key] = ladder.stamp(key, popularity)
        return options

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    @property
    def option_count(self) -> int:
        """How many options the table holds, stamped or not."""
        keys_per_ladder = Counter(map(itemgetter(3), self._rows.values()))
        return sum(len(ladder.rungs) * keys for ladder, keys in keys_per_ladder.items())

    @property
    def stamped_count(self) -> int:
        """How many of them exist as objects so far."""
        return sum(map(len, self._stamped.values()))

    def value_rows(self, max_weight: int) -> tuple[list[tuple], set[int], float]:
        """See :func:`value_rows`; stamps nothing."""
        rows = list(self._rows.values())
        fitting = {ladder: ladder.fitting(max_weight) for ladder in set(map(itemgetter(3), rows))}
        if any(fit is not ladder for ladder, fit in fitting.items()):
            rows = [(-fit.best_value(popularity), key, popularity, fit)
                    for _, key, popularity, ladder in rows
                    for fit in (fitting[ladder],) if fit.rungs]
        weights = {weight for fit in fitting.values() for weight in fit.weights}
        total = sum(map(abs, (popularity * gain for _, _, popularity, ladder in rows
                              for gain in ladder.gains)))
        return rows, weights, total


def value_rows(options_by_key: Mapping[str, Sequence[CachingOption]], max_weight: int,
               ) -> tuple[list[tuple], set[int], float]:
    """What a solver reads of every key before it touches an option.

    Returns one row per key, led by ``(-best value, key)`` and in the
    mapping's order, then the distinct weights and the sum of the absolute
    values (key by key, option by option) of the options behind the rows.
    Only options no heavier than ``max_weight`` count, and a key left without
    one has no row.  An :class:`OptionTable` answers from its ladders without
    creating an option, any other mapping from the options it already holds.
    """
    if isinstance(options_by_key, OptionTable):
        return options_by_key.value_rows(max_weight)
    rows: list[tuple] = []
    values: list[float] = []
    weights: set[int] = set()
    for key, options in options_by_key.items():
        fitting = [option for option in options if option.weight <= max_weight]
        if fitting:
            ladder = [option.value for option in fitting]
            rows.append((-max(ladder), key))
            values += ladder
            weights.update(option.weight for option in fitting)
    return rows, weights, sum(map(abs, values))


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
    exist; this helper returns the best fitting smaller option (used by the
    greedy baselines and by callers that can tolerate a weight decrease).
    """
    fitting = [option for option in options if option.weight <= max_weight]
    if not fitting:
        return None
    return max(fitting, key=lambda option: (option.value, -option.weight))
