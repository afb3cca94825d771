"""The Cache Manager (paper §III-c, §IV).

Periodically recomputes the ideal cache configuration — which objects to cache
and how many chunks of each — from the Request Monitor's popularity statistics
and the Region Manager's latency estimates, then installs it:

* the chunk ids of the configuration are *pinned* in the cache's
  :class:`~repro.cache.policies.PinnedConfigurationPolicy` (admission control
  plus eviction preference), and
* read hints are served to the Request Monitor so clients know which chunks to
  read from / write to the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from repro.cache.chunk_cache import ChunkCache
from repro.cache.policies import PinnedConfigurationPolicy
from repro.core.knapsack import (
    CacheConfiguration,
    EMPTY_CONFIGURATION,
    KnapsackSolver,
    SolverResult,
    configuration_summary,
)
from repro.core.options import (
    CachingOption,
    OptionLadder,
    OptionTable,
    generate_caching_options,
)
from repro.core.region_manager import RegionManager

OptionsByKey = Mapping[str, Sequence[CachingOption]]


@dataclass(frozen=True)
class CacheManagerConfig:
    """Tunables of the cache manager.

    Attributes:
        use_relax: enable the relaxation step of the DP (Fig. 5).
        stop_after_extra_keys: §VI early-stop optimisation (None disables it).
        max_candidate_keys: consider only the N most popular objects the
            store still holds (None = all of them).  A cap on *what may be
            cached*, not a way to bound run time: options are created for the
            keys the solver reaches, so a reconfiguration already costs what
            the cache size makes it cost, not the dataset size (§VI).
        min_popularity: objects below this popularity are not considered.
    """

    use_relax: bool = True
    stop_after_extra_keys: int | None = 25
    max_candidate_keys: int | None = None
    min_popularity: float = 0.0


@dataclass
class ReconfigurationRecord:
    """Book-keeping about one reconfiguration run (drives the §VI micro-bench)."""

    period_index: int
    candidate_keys: int
    options_generated: int
    configured_objects: int
    configured_chunks: int
    configuration_value: float
    keys_processed: int
    stopped_early: bool
    chunk_histogram: dict[int, int] = field(default_factory=dict)
    relax_scans: int = 0
    relax_pruned: int = 0
    relax_improved: int = 0
    #: Of ``options_generated``, how many were created as objects: the solver
    #: looks up only the keys its DP reaches, a ``transform`` every key.
    options_stamped: int = 0


class CacheManager:
    """Computes and installs static cache configurations (paper §III-c).

    Args:
        region_manager: topology and latency estimates for the local region.
        cache: the local chunk cache; its policy must be a
            :class:`PinnedConfigurationPolicy` for installation to take effect.
        chunk_size: size of one chunk in bytes (converts the cache's byte
            capacity into the knapsack's chunk-weight capacity).
        config: solver tunables.
    """

    def __init__(self, region_manager: RegionManager, cache: ChunkCache,
                 chunk_size: int, config: CacheManagerConfig | None = None) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self._region_manager = region_manager
        self._cache = cache
        self._chunk_size = chunk_size
        self._config = config or CacheManagerConfig()
        self._current = EMPTY_CONFIGURATION
        self._history: list[ReconfigurationRecord] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def current_configuration(self) -> CacheConfiguration:
        """The most recently installed configuration."""
        return self._current

    @property
    def capacity_chunks(self) -> int:
        """Cache capacity expressed in chunks."""
        return self._cache.capacity_bytes // self._chunk_size

    @property
    def history(self) -> list[ReconfigurationRecord]:
        """Records of every reconfiguration performed so far."""
        return list(self._history)

    def hints_for(self, key: str) -> tuple[int, ...]:
        """Chunk indices the current configuration wants cached for ``key``."""
        return self._current.chunks_for(key)

    # ------------------------------------------------------------------ #
    # Option generation and solving
    # ------------------------------------------------------------------ #
    def generate_options(self, popularity: Mapping[str, float]) -> OptionTable:
        """Generate caching options for the candidate objects (§IV-A).

        Objects whose chunks are placed alike share one option ladder (the
        first one's options); the returned table stamps a key's own options
        from it when the key is first looked up, so a reconfiguration creates
        options for the keys the solver reaches, not for the catalogue.
        """
        estimates = self._region_manager.latency_estimates()
        cache_read_ms = self._region_manager.cache_read_estimate()
        params = self._region_manager.params

        floor = self._config.min_popularity
        limit = self._config.max_candidate_keys
        # Decreasing popularity, then key.
        candidates = sorted([(-pop, key) for key, pop in popularity.items() if pop > floor])
        if candidates and candidates[-1][0] > 0:   # the least popular one
            raise ValueError("popularity must be non-negative")
        shapes = self._region_manager.placement_shapes(list(map(itemgetter(1), candidates)))
        # A key the store does not hold (any more) has no shape: it is not a
        # candidate and does not count towards the cap.
        resolved = islice(compress(zip(candidates, shapes), shapes), limit)

        ladders: dict[tuple, OptionLadder] = {}
        table = OptionTable()
        placed_like = ladder = None
        for (negated, key), shape in resolved:
            if shape is not placed_like:   # objects placed alike share one shape tuple
                placed_like = shape
                ladder = ladders.get(shape)
                if ladder is None:
                    ladder = ladders[shape] = OptionLadder(generate_caching_options(
                        key=key,
                        chunks_by_region=dict(shape),
                        region_latencies=estimates,
                        popularity=-negated,
                        data_chunks=params.data_chunks,
                        parity_chunks=params.parity_chunks,
                        cache_read_ms=cache_read_ms,
                    ))
            if ladder.rungs:
                table.add(key, -negated, ladder)
        return table

    def solve(self, options_by_key: OptionsByKey) -> SolverResult:
        """Run the knapsack DP over ``options_by_key`` under this manager's settings."""
        solver = KnapsackSolver(
            capacity_weight=self.capacity_chunks,
            use_relax=self._config.use_relax,
            stop_after_extra_keys=self._config.stop_after_extra_keys,
        )
        return solver.solve(options_by_key)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self, configuration: CacheConfiguration) -> None:
        """Make ``configuration`` the active one and pin it in the cache.

        Chunks cached under the previous configuration but absent from the new
        one become eviction candidates; they are not evicted eagerly (the cache
        evicts them lazily as pinned chunks arrive), matching the paper's
        description of the cache being repopulated by client writes.
        """
        self._current = configuration
        policy = self._cache.policy
        if isinstance(policy, PinnedConfigurationPolicy):
            policy.set_configuration(configuration.chunk_ids())

    def reconfigure(self, popularity: Mapping[str, float],
                    transform: Callable[[OptionsByKey], OptionsByKey] | None = None,
                    ) -> ReconfigurationRecord:
        """Full reconfiguration cycle: generate options, solve, install, record.

        ``transform`` re-values the generated options before they are solved
        (a collaborative round discounts them by the neighbours' contents).
        """
        options_by_key = self.generate_options(popularity)
        if transform is not None:
            options_by_key = transform(options_by_key)
        result = self.solve(options_by_key)
        self.install(result.best)
        if isinstance(options_by_key, OptionTable):
            generated, stamped = options_by_key.option_count, options_by_key.stamped_count
        else:
            generated = stamped = sum(len(options) for options in options_by_key.values())
        record = ReconfigurationRecord(
            period_index=len(self._history),
            candidate_keys=len(options_by_key),
            options_generated=generated,
            configured_objects=len(result.best),
            configured_chunks=result.best.weight,
            configuration_value=result.best.value,
            keys_processed=result.keys_processed,
            stopped_early=result.stopped_early,
            chunk_histogram=configuration_summary(result.best),
            relax_scans=result.relax_scans, relax_pruned=result.relax_pruned,
            relax_improved=result.relax_improved, options_stamped=stamped,
        )
        self._history.append(record)
        return record
