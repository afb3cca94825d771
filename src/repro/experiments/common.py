"""Shared configuration for the paper-reproduction experiments.

Every experiment driver in this package regenerates one table or figure of the
paper.  They all consume an :class:`ExperimentSettings` instance so the same
code can run either at the paper's scale (300 objects, 1,000 reads, 5 runs) or
in a faster "quick" mode used by the benchmark suite and CI.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.client.strategies import is_strategy_name
from repro.core.agar_node import AgarNodeConfig
from repro.core.cache_manager import CacheManagerConfig
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import (
    ArrivalSpec,
    WorkloadSpec,
    poisson_arrivals,
    uniform_workload,
    zipfian_workload,
)

#: 1 MiB, the paper's object size.
MEGABYTE = 1024 * 1024

#: Object size of the wire experiments: the paper's 1 MB objects are about
#: backend placement, not loopback bandwidth, so over sockets they are capped
#: and the measurement tracks gateway overhead rather than local throughput.
WIRE_OBJECT_SIZE = 64 * 1024

#: Client region of the single-region experiments (Table I, Fig. 8, the
#: microbenchmarks and the ablations).
CLIENT_REGION = "frankfurt"

#: The strategy line-up of Fig. 6 / Fig. 7.
FIG6_STRATEGIES: tuple[str, ...] = (
    "agar",
    "lru-1", "lru-3", "lru-5", "lru-7", "lru-9",
    "lfu-1", "lfu-3", "lfu-5", "lfu-7", "lfu-9",
    "backend",
)

#: The reduced strategy line-up of Fig. 8 (the paper plots Agar, LRU/LFU-5/9).
FIG8_STRATEGIES: tuple[str, ...] = ("agar", "lru-5", "lru-9", "lfu-5", "lfu-9")

#: Cache sizes swept in Fig. 8a (MB).  The paper also shows the 0 MB backend bar.
FIG8A_CACHE_SIZES_MB: tuple[int, ...] = (5, 10, 20, 50, 100)

#: Zipfian skews swept in Fig. 8b (plus the uniform workload).
FIG8B_SKEWS: tuple[float, ...] = (0.2, 0.5, 0.8, 0.9, 1.0, 1.1, 1.4)

#: Skews plotted in Fig. 9.
FIG9_SKEWS: tuple[float, ...] = (0.5, 0.8, 1.1, 1.4)

#: Chunk counts swept in the Fig. 2 motivating experiment.
FIG2_CHUNK_COUNTS: tuple[int, ...] = (0, 1, 3, 5, 7, 9)

#: Client regions used throughout the evaluation.
EVALUATION_REGIONS: tuple[str, ...] = ("frankfurt", "sydney")


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale knobs shared by all experiment drivers.

    Attributes:
        runs: repetitions per configuration (paper: 5).
        request_count: reads per run (paper: 1,000).
        object_count: objects in the store (paper: 300 of 1 MB, the size
            every experiment uses: ``DEFAULT_OBJECT_SIZE``).
        cache_capacity_bytes: default cache size (paper: 10 MB).
        seed: base seed for workloads and latency jitter.
    """

    runs: int = 5
    request_count: int = 1000
    object_count: int = 300
    cache_capacity_bytes: int = 10 * MEGABYTE
    seed: int = 42

    @classmethod
    def paper(cls) -> "ExperimentSettings":
        """The paper's full scale (§V-A)."""
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """A reduced scale for benchmarks and CI (same shapes, ~10× faster)."""
        return cls(runs=2, request_count=400, object_count=300)

    @classmethod
    def smoke(cls) -> "ExperimentSettings":
        """The minimal scale: one tiny run per configuration.

        Used by the CI docs job to assert the wire commands execute and by
        ``tests/golden/figures.json`` to pin what the simulated figures
        print; numbers at this scale are not meaningful.
        """
        return cls(runs=1, request_count=120, object_count=100)

    def workload(self, skew: float | None = 1.1) -> WorkloadSpec:
        """Build the experiment workload (Zipfian by default, uniform if ``skew`` is None)."""
        if skew is None:
            return uniform_workload(request_count=self.request_count,
                                    object_count=self.object_count, seed=self.seed)
        return zipfian_workload(skew, request_count=self.request_count,
                                object_count=self.object_count, seed=self.seed)

    def wire_workload(self) -> WorkloadSpec:
        """The Zipf 1.1 workload with :data:`WIRE_OBJECT_SIZE` objects."""
        return replace(self.workload(), object_size=WIRE_OBJECT_SIZE)

    def deployment(self, regions: Sequence[RegionSpec], **fields) -> EngineConfig:
        """One deployment of these settings.

        The workload is :meth:`workload` (Zipf 1.1), the cache
        ``cache_capacity_bytes`` with Agar tunables adapted to it
        (:func:`agar_config_for_capacity`), the jitter seeded with ``seed``;
        ``fields`` override these or set further :class:`EngineConfig` fields.
        """
        capacity = fields.get("cache_capacity_bytes", self.cache_capacity_bytes)
        config = {"workload": self.workload(), "cache_capacity_bytes": capacity,
                  "agar": agar_config_for_capacity(capacity),
                  "topology_seed": self.seed, **fields}
        return EngineConfig(regions=tuple(regions), **config)


#: Size-suffix multipliers understood by :func:`parse_cache_size` (binary
#: units, matching :data:`MEGABYTE`).
_SIZE_SUFFIXES = {
    "B": 1,
    "KB": 1024,
    "MB": 1024 * 1024,
    "GB": 1024 * 1024 * 1024,
}


def parse_cache_size(text: str) -> int:
    """Parse a cache size like ``"256MB"``, ``"64kb"`` or ``"1048576"``.

    Bare numbers are bytes; suffixes are binary (``KB`` = 1024 B and so on).

    Raises:
        ValueError: for malformed or non-positive sizes.
    """
    cleaned = text.strip().upper()
    multiplier = 1
    for suffix, factor in sorted(_SIZE_SUFFIXES.items(), key=lambda kv: -len(kv[0])):
        if cleaned.endswith(suffix):
            cleaned = cleaned[: -len(suffix)].strip()
            multiplier = factor
            break
    try:
        value = float(cleaned)
    except ValueError:
        raise ValueError(f"malformed cache size {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"cache size must be finite, got {text!r}")
    size = int(value * multiplier)
    if size <= 0:
        raise ValueError(f"cache size must be positive, got {text!r}")
    return size


@dataclass(frozen=True)
class RegionSpecOption:
    """One ``--region`` CLI value: a region with optional per-region overrides.

    Attributes:
        region: region name.
        strategy: read strategy pinned to this region (None = the
            experiment's/sweep's strategy).
        cache_capacity_bytes: this region's cache size (None = the
            deployment-wide default).
    """

    region: str
    strategy: str | None = None
    cache_capacity_bytes: int | None = None

    @classmethod
    def parse(cls, text: str) -> "RegionSpecOption":
        """Parse ``NAME[:STRATEGY[:CACHE]]``, e.g. ``frankfurt:agar:256MB``.

        Either override may be left empty (``sydney::64MB`` pins only the
        cache size).
        """
        parts = text.split(":")
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"malformed region spec {text!r} "
                             "(expected NAME[:STRATEGY[:CACHE]])")
        region = parts[0].strip()
        if not region:
            raise ValueError(f"malformed region spec {text!r} (empty region name)")
        strategy = parts[1].strip() if len(parts) > 1 and parts[1].strip() else None
        if strategy is not None and not is_strategy_name(strategy):
            raise ValueError(f"unknown strategy {strategy!r} in region spec {text!r} "
                             "(expected backend, agar, lru-<c>, lfu-<c>, "
                             "lru-online-<c> or lfu-online-<c>)")
        capacity = (parse_cache_size(parts[2])
                    if len(parts) > 2 and parts[2].strip() else None)
        return cls(region=region, strategy=strategy, cache_capacity_bytes=capacity)


@dataclass(frozen=True)
class EngineOptions:
    """Discrete-event engine knobs shared by the experiment CLIs.

    The default (1 client, closed loop, no collaboration, figure-default
    regions) is the paper's setting, where the Fig. 6/7/8 runners deploy each
    region on its own; any other setting makes them co-deploy the regions in
    one multi-region deployment.

    Attributes:
        regions: client regions of the deployment (None = the figure's
            default regions).
        clients_per_region: concurrent clients per region.
        arrival_rate_rps: per-client open-loop Poisson arrival rate (None =
            closed loop).
        collaboration: §VI cache collaboration between the regions' Agar
            nodes (applies to the ``agar`` strategy only).
        region_specs: heterogeneous deployment description (``--region``
            flags): per-region strategy and/or cache-size overrides.
            Mutually exclusive with ``regions``.
    """

    regions: tuple[str, ...] | None = None
    clients_per_region: int = 1
    arrival_rate_rps: float | None = None
    collaboration: bool = False
    region_specs: tuple[RegionSpecOption, ...] | None = None

    def __post_init__(self) -> None:
        if self.clients_per_region <= 0:
            raise ValueError("clients_per_region must be positive")
        if self.arrival_rate_rps is not None and not 0 < self.arrival_rate_rps < math.inf:
            raise ValueError("arrival_rate_rps must be finite and positive")
        if self.region_specs is not None:
            if self.regions is not None:
                raise ValueError("give either regions or region_specs, not both")
            if not self.region_specs:
                raise ValueError("region_specs must not be empty")
            names = [spec.region for spec in self.region_specs]
            if len(set(names)) != len(names):
                raise ValueError("region_specs regions must be distinct")

    @property
    def active(self) -> bool:
        """True if any knob deviates from the paper's single-client setting."""
        return (self.regions is not None or self.clients_per_region > 1
                or self.arrival_rate_rps is not None or self.collaboration
                or self.region_specs is not None)

    def arrival_spec(self) -> ArrivalSpec:
        """The options' arrival process as an :class:`ArrivalSpec`."""
        if self.arrival_rate_rps is None:
            return ArrivalSpec()
        return poisson_arrivals(self.arrival_rate_rps)

    def effective_regions(self, default: tuple[str, ...]) -> tuple[str, ...]:
        """The deployment's region names, falling back to the figure's default."""
        if self.region_specs:
            return tuple(spec.region for spec in self.region_specs)
        return self.regions if self.regions else default

    def build_region_specs(self, default_regions: tuple[str, ...], strategy: str,
                           clients: int | None = None) -> tuple[RegionSpec, ...]:
        """Engine :class:`RegionSpec` tuple with per-region overrides applied.

        ``strategy`` is the experiment's (or sweep point's) strategy; regions
        pinned via ``region_specs`` keep their own strategy and cache size.
        Agar regions with a cache-size override also get Agar tunables
        adapted to that size (:func:`agar_config_for_capacity`), since the
        deployment-wide config was derived from the default capacity.
        """
        effective_clients = self.clients_per_region if clients is None else clients
        options = self.region_specs or tuple(
            RegionSpecOption(region) for region in self.effective_regions(default_regions))
        specs = []
        for option in options:
            effective_strategy = option.strategy or strategy
            agar = None
            if option.cache_capacity_bytes is not None and effective_strategy == "agar":
                agar = agar_config_for_capacity(option.cache_capacity_bytes)
            specs.append(RegionSpec(
                region=option.region,
                clients=effective_clients,
                strategy=effective_strategy,
                cache_capacity_bytes=option.cache_capacity_bytes,
                agar=agar,
            ))
        return tuple(specs)


def agar_config_for_capacity(cache_capacity_bytes: int) -> AgarNodeConfig:
    """Agar tunables adapted to the cache size.

    For very large caches (≥ 50 MB, several hundred chunk slots) the dynamic
    program's early-stop window is tightened so reconfiguration time stays in
    the few-second range the paper reports (§VI); the resulting configurations
    are unchanged in practice because everything popular already fits.
    """
    if cache_capacity_bytes >= 50 * MEGABYTE:
        manager = CacheManagerConfig(stop_after_extra_keys=10, max_candidate_keys=200)
        return AgarNodeConfig(manager=manager)
    return AgarNodeConfig()
