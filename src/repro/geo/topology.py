"""Deployment topologies: regions plus the latency matrix between them.

Two presets are provided:

* :func:`table1_topology` — uses the paper's Table I values verbatim for
  Frankfurt (80 / 200 / 600 / 1,400 / 3,400 / 4,600 ms) so the worked example
  of §IV and the Table I benchmark reproduce the paper's numbers exactly.
* :func:`default_topology` — the calibrated matrix used by the evaluation
  experiments.  It preserves the *ordering* of Table I from Frankfurt but is
  bandwidth-dominated for 1 MB objects, so backend reads average ≈1 s and the
  non-linear curve of Fig. 2 (turning point around 7 chunks for Frankfurt,
  3–5 for Sydney) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo.latency import DEFAULT_CHUNK_SIZE, LatencyModel, LinkProfile, NeighborLink
from repro.geo.regions import PAPER_REGIONS, Region


@dataclass
class Topology:
    """A deployment: its regions and the latency model connecting them.

    Attributes:
        regions: the regions of the deployment, in a stable order.
        latency: the latency model covering every (client, backend) pair.
        name: human-readable preset name (used in experiment reports).
        neighbor_links: optional explicit ``(client, neighbor) ->``
            :class:`NeighborLink` overrides for §VI neighbour-cache reads;
            pairs not listed (or ``None``) fall back to the profile derived
            from the latency model (see :meth:`neighbor_link`).
    """

    regions: list[Region]
    latency: LatencyModel
    name: str = "custom"
    neighbor_links: dict[tuple[str, str], NeighborLink] | None = None
    _names: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("a topology needs at least one region")
        self._names = [region.name for region in self.regions]
        seen: set[str] = set()
        for region_name in self._names:
            if region_name in seen:
                raise ValueError(f"duplicate region {region_name!r} in topology")
            seen.add(region_name)

    @property
    def region_names(self) -> list[str]:
        """Names of all regions, in topology order."""
        return list(self._names)

    def has_region(self, name: str) -> bool:
        """True if ``name`` is one of this topology's regions."""
        return name in self._names

    def validate_region(self, name: str) -> str:
        """Return ``name`` if it belongs to the topology, else raise ``KeyError``."""
        if not self.has_region(name):
            raise KeyError(f"region {name!r} is not part of topology {self.name!r}")
        return name

    def expected_read_latencies(self, client_region: str,
                                size_bytes: int = DEFAULT_CHUNK_SIZE) -> dict[str, float]:
        """Expected chunk-read latency from ``client_region`` to every region.

        This is what the paper's Table I reports for Frankfurt.
        """
        self.validate_region(client_region)
        return {
            backend: self.latency.expected_backend_read(client_region, backend, size_bytes)
            for backend in self._names
        }

    def neighbor_link(self, client_region: str, neighbor_region: str,
                      size_bytes: int = DEFAULT_CHUNK_SIZE) -> NeighborLink:
        """Profile of ``client_region`` reading from ``neighbor_region``'s cache.

        Returns the explicit per-pair override from :attr:`neighbor_links`
        when one is configured, otherwise the profile derived from the
        latency model (WAN round-trip plus the neighbour's cache read; the
        WAN link's jitter σ).
        """
        self.validate_region(client_region)
        self.validate_region(neighbor_region)
        if self.neighbor_links is not None:
            override = self.neighbor_links.get((client_region, neighbor_region))
            if override is not None:
                return override
        return self.latency.neighbor_link(client_region, neighbor_region, size_bytes)


def _model_from_matrix(matrix: dict[str, dict[str, float]],
                       cache_read_ms: float,
                       jitter: float,
                       seed: int,
                       chunk_size: int = DEFAULT_CHUNK_SIZE,
                       rtt_fraction: float = 0.35) -> LatencyModel:
    """Build a :class:`LatencyModel` from a matrix of expected chunk-read latencies."""
    links = {}
    for client, row in matrix.items():
        for backend, expected_ms in row.items():
            links[(client, backend)] = LinkProfile.from_expected(
                expected_ms, size_bytes=chunk_size, rtt_fraction=rtt_fraction, jitter=jitter
            )
    cache_links = {
        client: LinkProfile.from_expected(
            cache_read_ms, size_bytes=chunk_size, rtt_fraction=0.5, jitter=jitter
        )
        for client in matrix
    }
    return LatencyModel(links=links, cache_links=cache_links, seed=seed)


#: Calibrated expected per-chunk read latencies (ms) for the evaluation
#: topology.  Rows are client regions, columns backend regions.  The Frankfurt
#: row preserves the ordering of the paper's Table I; magnitudes are calibrated
#: so the figure shapes of §V hold.
DEFAULT_LATENCY_MATRIX: dict[str, dict[str, float]] = {
    "frankfurt": {
        "frankfurt": 60.0, "dublin": 200.0, "n_virginia": 400.0,
        "sao_paulo": 550.0, "tokyo": 1000.0, "sydney": 1200.0,
    },
    "dublin": {
        "frankfurt": 200.0, "dublin": 60.0, "n_virginia": 380.0,
        "sao_paulo": 520.0, "tokyo": 1050.0, "sydney": 1200.0,
    },
    "n_virginia": {
        "frankfurt": 400.0, "dublin": 380.0, "n_virginia": 80.0,
        "sao_paulo": 450.0, "tokyo": 750.0, "sydney": 900.0,
    },
    "sao_paulo": {
        "frankfurt": 550.0, "dublin": 520.0, "n_virginia": 450.0,
        "sao_paulo": 80.0, "tokyo": 1150.0, "sydney": 1100.0,
    },
    "tokyo": {
        "frankfurt": 1000.0, "dublin": 1050.0, "n_virginia": 750.0,
        "sao_paulo": 1150.0, "tokyo": 80.0, "sydney": 450.0,
    },
    "sydney": {
        "frankfurt": 950.0, "dublin": 1000.0, "n_virginia": 450.0,
        "sao_paulo": 1100.0, "tokyo": 280.0, "sydney": 150.0,
    },
}

#: The paper's Table I: per-chunk read latency from Frankfurt (ms).
TABLE1_FRANKFURT_LATENCIES: dict[str, float] = {
    "frankfurt": 80.0,
    "dublin": 200.0,
    "n_virginia": 600.0,
    "sao_paulo": 1400.0,
    "tokyo": 3400.0,
    "sydney": 4600.0,
}

#: Expected latency (ms) of reading one chunk from the local cache server.
DEFAULT_CACHE_READ_MS = 20.0


def default_topology(seed: int = 0, jitter: float = 0.06,
                     cache_read_ms: float = DEFAULT_CACHE_READ_MS) -> Topology:
    """The calibrated six-region topology used by the evaluation experiments."""
    model = _model_from_matrix(
        DEFAULT_LATENCY_MATRIX, cache_read_ms=cache_read_ms, jitter=jitter, seed=seed
    )
    return Topology(regions=list(PAPER_REGIONS), latency=model, name="default")


def table1_topology(seed: int = 0, jitter: float = 0.0,
                    cache_read_ms: float = DEFAULT_CACHE_READ_MS) -> Topology:
    """A topology whose Frankfurt row matches the paper's Table I exactly.

    Rows for the other client regions reuse the calibrated matrix scaled to the
    same magnitude; only Frankfurt's view is specified by the paper.
    """
    matrix = {client: dict(row) for client, row in DEFAULT_LATENCY_MATRIX.items()}
    matrix["frankfurt"] = dict(TABLE1_FRANKFURT_LATENCIES)
    model = _model_from_matrix(matrix, cache_read_ms=cache_read_ms, jitter=jitter, seed=seed)
    return Topology(regions=list(PAPER_REGIONS), latency=model, name="table1")
