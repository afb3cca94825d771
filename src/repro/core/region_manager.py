"""The Region Manager (paper §III-a).

The Region Manager keeps a high-level view of the storage system's topology —
which regions exist and how chunks are distributed among them — and
periodically *measures* how long reading a chunk from each region takes.  The
measurements feed the caching-option values: caching a region's chunks removes
that region from the read's critical path.

In this reproduction the "measurement" samples the latency model the same way
the paper's prototype issues warm-up reads against real regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.backend.object_store import ErasureCodedStore
from repro.erasure.chunk import ErasureCodingParams
from repro.geo.latency import DEFAULT_CHUNK_SIZE

#: Penalty (ms) added to a down region's latency estimate.  Large enough to
#: push the region past every healthy link, so option generation discards its
#: chunks among the ``m`` furthest and the knapsack values caching survivors.
DOWN_REGION_PENALTY_MS = 1.0e6


@dataclass(frozen=True)
class RegionEstimate:
    """One region's measured chunk-read latency, as seen from the local region."""

    region: str
    latency_ms: float
    samples: int


class RegionManager:
    """Topology overview plus live latency estimates for one Agar node.

    Args:
        local_region: the region this Agar node runs in.
        store: the erasure-coded object store (provides placement and topology).
        probe_samples: how many reads the warm-up probe averages per region.
        chunk_size: chunk size used for probes (defaults to the paper's
            1 MB / 9 chunks).
    """

    def __init__(self, local_region: str, store: ErasureCodedStore,
                 probe_samples: int = 5, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        store.topology.validate_region(local_region)
        if probe_samples <= 0:
            raise ValueError("probe_samples must be positive")
        self._local_region = local_region
        self._store = store
        self._probe_samples = probe_samples
        self._chunk_size = chunk_size
        self._estimates: dict[str, float] = {}
        self._cache_read_estimate: float | None = None
        self._down_regions: frozenset[str] = frozenset()
        self.refresh_estimates()

    # ------------------------------------------------------------------ #
    # Topology view
    # ------------------------------------------------------------------ #
    @property
    def local_region(self) -> str:
        """The region this manager (and its cache) serves."""
        return self._local_region

    @property
    def params(self) -> ErasureCodingParams:
        """The erasure-coding parameters of the backing store."""
        return self._store.params

    def regions(self) -> list[str]:
        """All regions of the deployment."""
        return self._store.topology.region_names

    def chunks_by_region(self, key: str) -> dict[str, list[int]]:
        """Which chunks of ``key`` each region stores, under the store's placement policy."""
        return self._store.chunks_by_region(key)

    def placement_shapes(self, keys: Sequence[str]
                         ) -> list[tuple[tuple[str, tuple[int, ...]], ...] | None]:
        """Each key's :meth:`chunks_by_region` as a hashable tuple, ``None`` if unknown.

        Objects placed alike share one tuple; see
        :meth:`ErasureCodedStore.placement_shapes`.
        """
        return self._store.placement_shapes(keys)

    def known_keys(self) -> list[str]:
        """All object keys of the backing store's catalog."""
        return self._store.keys()

    # ------------------------------------------------------------------ #
    # Latency measurements
    # ------------------------------------------------------------------ #
    def refresh_estimates(self) -> dict[str, float]:
        """Re-measure chunk-read latency to every region (warm-up probes)."""
        latency_model = self._store.topology.latency
        self._estimates = {
            region: latency_model.probe(
                self._local_region, region, samples=self._probe_samples, size_bytes=self._chunk_size
            )
            for region in self.regions()
        }
        cache_probe_total = sum(
            latency_model.sample_cache_read(self._local_region, self._chunk_size)
            for _ in range(self._probe_samples)
        )
        self._cache_read_estimate = cache_probe_total / self._probe_samples
        return dict(self._estimates)

    def set_down_regions(self, down_regions: frozenset[str]) -> None:
        """Install the survivor view: penalize estimates of down regions.

        Called on fault transitions (emergency reconfiguration).  The stored
        probe measurements are kept and merely *viewed* through an additive
        :data:`DOWN_REGION_PENALTY_MS` — deliberately no re-probe, which
        would consume latency-model draws on the fault path and perturb the
        deterministic jitter stream.  Pass an empty set on recovery to
        restore the healthy view.
        """
        self._down_regions = frozenset(down_regions)

    @property
    def down_regions(self) -> frozenset[str]:
        """Regions currently penalized as unreachable."""
        return self._down_regions

    def latency_estimates(self) -> dict[str, float]:
        """Latest per-region chunk-read latency estimates (ms).

        Estimates of regions marked down via :meth:`set_down_regions` carry
        the unreachability penalty, so every consumer (option generation
        above all) plans against the survivor topology.
        """
        down = self._down_regions
        if not down:
            return dict(self._estimates)
        return {
            region: latency + DOWN_REGION_PENALTY_MS if region in down else latency
            for region, latency in self._estimates.items()
        }

    def latency_to(self, region: str) -> float:
        """Latest estimate for one region (survivor penalty included).

        Raises:
            KeyError: if the region is unknown.
        """
        try:
            latency = self._estimates[region]
        except KeyError:
            raise KeyError(f"no latency estimate for region {region!r}") from None
        if region in self._down_regions:
            latency += DOWN_REGION_PENALTY_MS
        return latency

    def cache_read_estimate(self) -> float:
        """Estimated latency of a local cache chunk read (ms)."""
        assert self._cache_read_estimate is not None
        return self._cache_read_estimate

    def estimates_table(self) -> list[RegionEstimate]:
        """Estimates as records sorted from nearest to furthest (Table I)."""
        return sorted(
            (
                RegionEstimate(region=region, latency_ms=latency, samples=self._probe_samples)
                for region, latency in self.latency_estimates().items()
            ),
            key=lambda estimate: estimate.latency_ms,
        )

    def regions_by_distance(self) -> list[str]:
        """Regions sorted from nearest to furthest according to the estimates."""
        return [estimate.region for estimate in self.estimates_table()]
