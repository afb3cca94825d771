"""The Agar node: wiring of Region Manager, Request Monitor, Cache Manager and cache.

One :class:`AgarNode` runs per region (Fig. 3).  Nodes are independent — they
do not coordinate across regions (§III).  The node owns the reconfiguration
loop: every ``reconfiguration_period`` seconds of (simulated) time it closes
the popularity period and recomputes the static cache configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.backend.object_store import ErasureCodedStore
from repro.cache.chunk_cache import ChunkCache
from repro.cache.policies import PinnedConfigurationPolicy
from repro.core.cache_manager import CacheManager, CacheManagerConfig, ReconfigurationRecord
from repro.core.knapsack import CacheConfiguration
from repro.core.region_manager import RegionManager
from repro.core.request_monitor import (
    DEFAULT_PROCESSING_OVERHEAD_MS,
    ReadHints,
    RequestMonitor,
)

#: Reconfiguration period used throughout the paper's evaluation (§V-A).
DEFAULT_RECONFIGURATION_PERIOD_S = 30.0

#: Default weight of the *current* period's frequency in the EWMA.  The paper
#: states a weighting coefficient of 0.8 (§IV-A); we interpret it as the weight
#: of the accumulated history (i.e. 0.2 on the current period), which is the
#: reading that yields stable popularity estimates at the paper's 30-second
#: period and reproduces its results — see the EWMA ablation benchmark
#: (``benchmarks/test_bench_ablation.py``) for the comparison with the literal
#: reading (0.8 on the current period).
DEFAULT_CURRENT_PERIOD_WEIGHT = 0.2


@dataclass(frozen=True)
class AgarNodeConfig:
    """Tunables of one Agar node.

    Attributes:
        reconfiguration_period_s: how often the cache configuration is
            recomputed (paper: 30 s); finite and positive.
        alpha: EWMA weight of the *current* period's access frequency (see
            :data:`DEFAULT_CURRENT_PERIOD_WEIGHT` for how this maps onto the
            paper's α = 0.8).
        processing_overhead_ms: request monitor/cache manager overhead charged
            to each read (paper §VI: ≈0.5 ms).
        manager: knapsack/cache-manager tunables.
        warm_start: run one reconfiguration immediately using uniform
            popularity over all known keys, so the very first period is not
            served with an empty configuration.  The paper's prototype has a
            warm-up phase for latency probing; configuration warm start is off
            by default to match the prototype's cold start.
    """

    reconfiguration_period_s: float = DEFAULT_RECONFIGURATION_PERIOD_S
    alpha: float = DEFAULT_CURRENT_PERIOD_WEIGHT
    processing_overhead_ms: float = DEFAULT_PROCESSING_OVERHEAD_MS
    manager: CacheManagerConfig = CacheManagerConfig()
    warm_start: bool = False

    def __post_init__(self) -> None:
        period = self.reconfiguration_period_s
        if not (math.isfinite(period) and period > 0):
            raise ValueError("reconfiguration_period_s must be finite and positive")


class AgarNode:
    """A region-level Agar deployment (Fig. 3).

    Args:
        local_region: region the node serves.
        store: the geo-distributed erasure-coded object store.
        cache_capacity_bytes: capacity of the local cache.
        config: node tunables; defaults to the paper's settings.
        clock: optional callable returning the current simulated time in
            seconds; supplied by the simulator so cache recency matches
            simulated time.

    Example:
        >>> from repro.geo import default_topology
        >>> from repro.backend import ErasureCodedStore
        >>> store = ErasureCodedStore(default_topology())
        >>> _ = store.populate(10, 1024 * 1024)
        >>> node = AgarNode("frankfurt", store, cache_capacity_bytes=10 * 1024 * 1024)
        >>> hints = node.on_request("object-0", now=0.0)
        >>> hints.key
        'object-0'
    """

    def __init__(self, local_region: str, store: ErasureCodedStore,
                 cache_capacity_bytes: int, config: AgarNodeConfig | None = None,
                 clock=None) -> None:
        self._config = config or AgarNodeConfig()
        self._store = store
        self._local_region = store.topology.validate_region(local_region)

        chunk_size = store.params.chunk_size(self._default_object_size())
        self._cache = ChunkCache(
            capacity_bytes=cache_capacity_bytes,
            policy=PinnedConfigurationPolicy(),
            clock=clock,
            region=local_region,
        )
        self._region_manager = RegionManager(local_region, store, chunk_size=chunk_size)
        self._cache_manager = CacheManager(
            region_manager=self._region_manager,
            cache=self._cache,
            chunk_size=chunk_size,
            config=self._config.manager,
        )
        self._request_monitor = RequestMonitor(
            cache_manager=self._cache_manager,
            alpha=self._config.alpha,
            processing_overhead_ms=self._config.processing_overhead_ms,
        )
        self._last_reconfiguration_time: float | None = None
        self._auto_reconfigure = True
        # Fault-reaction bookkeeping: transitions awaiting a reconfiguration,
        # and the lag (seconds) each one waited before the knapsack re-solved.
        self._pending_fault_times: list[float] = []
        self._fault_reaction_lags_s: list[float] = []

        if self._config.warm_start:
            uniform = {key: 1.0 for key in store.keys()}
            self._cache_manager.reconfigure(uniform)

    def _default_object_size(self) -> int:
        """Chunk weight accounting uses the catalogue's first object size (1 MB in the paper)."""
        keys = self._store.keys()
        if keys:
            return self._store.metadata(keys[0]).size
        return 1024 * 1024

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> AgarNodeConfig:
        """The node's tunables."""
        return self._config

    @property
    def local_region(self) -> str:
        """Region this node serves."""
        return self._local_region

    @property
    def cache(self) -> ChunkCache:
        """The local chunk cache managed by this node."""
        return self._cache

    @property
    def region_manager(self) -> RegionManager:
        """The node's Region Manager."""
        return self._region_manager

    @property
    def request_monitor(self) -> RequestMonitor:
        """The node's Request Monitor."""
        return self._request_monitor

    @property
    def cache_manager(self) -> CacheManager:
        """The node's Cache Manager."""
        return self._cache_manager

    @property
    def current_configuration(self) -> CacheConfiguration:
        """The currently installed cache configuration."""
        return self._cache_manager.current_configuration

    @property
    def auto_reconfigure(self) -> bool:
        """Whether the node checks the reconfiguration period on each request.

        True (the default) reproduces the prototype's behaviour of
        piggybacking the period check on the read path.  The discrete-event
        engine sets this to False and drives :meth:`reconfigure` from timer
        events instead, so reconfigurations fire at exact period boundaries
        even when no client happens to read at that moment.
        """
        return self._auto_reconfigure

    @auto_reconfigure.setter
    def auto_reconfigure(self, enabled: bool) -> None:
        self._auto_reconfigure = bool(enabled)

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def on_request(self, key: str, now: float) -> ReadHints:
        """Handle a client request: maybe reconfigure, record it, return hints.

        Args:
            key: the object being read.
            now: current simulated time in seconds.
        """
        self.count_request(key, now)
        return self._request_monitor.peek_hints(key)

    def count_request(self, key: str, now: float) -> None:
        """The per-read half of :meth:`on_request`: everything but the hints.

        Runs the piggy-backed period check and records the read.  The hints
        are ``current_configuration.chunks_for(key)`` and change only when a
        configuration is installed, so the read strategy resolves them once
        per installed configuration instead of asking on every read.
        """
        if self._auto_reconfigure:
            self.maybe_reconfigure(now)
        self._request_monitor.count_request(key)

    def maybe_reconfigure(self, now: float) -> ReconfigurationRecord | None:
        """Reconfigure if the reconfiguration period has elapsed."""
        if self._last_reconfiguration_time is None:
            # Align the first period with the first request seen.
            self._last_reconfiguration_time = now
            return None
        if now - self._last_reconfiguration_time < self._config.reconfiguration_period_s:
            return None
        return self.reconfigure(now)

    def reconfigure(self, now: float) -> ReconfigurationRecord:
        """Force a reconfiguration: close the popularity period, solve, install."""
        popularity = self._request_monitor.end_period()
        record = self._cache_manager.reconfigure(popularity)
        self._last_reconfiguration_time = now
        if self._pending_fault_times:
            self._fault_reaction_lags_s.extend(
                now - pending for pending in self._pending_fault_times
            )
            self._pending_fault_times.clear()
        return record

    def reconfiguration_history(self) -> list[ReconfigurationRecord]:
        """All reconfiguration records so far."""
        return self._cache_manager.history

    # ------------------------------------------------------------------ #
    # Fault reaction (repro.client.resilience emergency reconfiguration)
    # ------------------------------------------------------------------ #
    def note_fault_transition(self, now: float) -> None:
        """Stamp a fault-state transition awaiting a reconfiguration.

        The next :meth:`reconfigure` — periodic or emergency — resolves every
        pending stamp into a reaction lag, so
        :attr:`fault_reaction_lags_s` measures how long the knapsack kept
        optimizing against a stale topology after each onset/recovery.
        """
        self._pending_fault_times.append(now)

    def emergency_reconfigure(self, now: float,
                              down_regions: frozenset[str]) -> ReconfigurationRecord:
        """Out-of-band re-solve against the survivor topology.

        Installs ``down_regions`` as the Region Manager's survivor view (no
        re-probing — existing estimates are penalized, so no latency-model
        draws are consumed on the fault path) and runs one bounded
        reconfiguration immediately, outside the periodic timer.  Pass an
        empty set on recovery to re-solve against the healthy topology.
        """
        self._region_manager.set_down_regions(down_regions)
        return self.reconfigure(now)

    @property
    def fault_reaction_lags_s(self) -> list[float]:
        """Reaction lag of every resolved fault transition (seconds)."""
        return list(self._fault_reaction_lags_s)
