"""Tests for topologies and presets."""

import pytest

from repro.geo.latency import NeighborLink
from repro.geo.regions import PAPER_REGIONS, Region, region_names
from repro.geo.topology import (
    DEFAULT_LATENCY_MATRIX,
    TABLE1_FRANKFURT_LATENCIES,
    Topology,
    default_topology,
    table1_topology,
)


def nearest_first(topology: Topology, client: str) -> list[str]:
    """Region names from nearest to furthest as ``client`` sees them."""
    latencies = topology.expected_read_latencies(client)
    return sorted(latencies, key=lambda name: (latencies[name], name))


class TestRegions:
    def test_paper_regions(self):
        assert len(PAPER_REGIONS) == 6
        assert region_names()[0] == "frankfurt"


class TestDefaultTopology:
    def test_regions_and_validation(self, topology):
        assert topology.region_names == [region.name for region in PAPER_REGIONS]
        assert topology.has_region("sydney")
        assert not topology.has_region("mars")
        with pytest.raises(KeyError):
            topology.validate_region("mars")

    def test_expected_latencies_match_matrix(self, topology):
        for client, row in DEFAULT_LATENCY_MATRIX.items():
            measured = topology.expected_read_latencies(client)
            for backend, expected in row.items():
                assert measured[backend] == pytest.approx(expected, rel=1e-9)

    def test_local_region_is_nearest(self, topology):
        for region in topology.region_names:
            assert nearest_first(topology, region)[0] == region

    def test_frankfurt_ordering_matches_table1(self, topology):
        """The calibrated matrix preserves Table I's distance ordering from Frankfurt."""
        calibrated_order = nearest_first(topology, "frankfurt")
        table1_order = sorted(TABLE1_FRANKFURT_LATENCIES, key=TABLE1_FRANKFURT_LATENCIES.get)
        assert calibrated_order == table1_order


class TestTable1Topology:
    def test_frankfurt_row_is_verbatim(self, paper_table1):
        measured = paper_table1.expected_read_latencies("frankfurt")
        for region, expected in TABLE1_FRANKFURT_LATENCIES.items():
            assert measured[region] == pytest.approx(expected, rel=1e-9)


class TestOtherBuilders:

    def test_duplicate_regions_rejected(self):
        region = Region("dup", "dup", "nowhere")
        model = default_topology().latency
        with pytest.raises(ValueError):
            Topology(regions=[region, region], latency=model)

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            Topology(regions=[], latency=default_topology().latency)


class TestNeighborLinks:
    def test_derived_from_latency_model(self, jittered_topology):
        link = jittered_topology.neighbor_link("frankfurt", "dublin")
        wan = jittered_topology.latency.link("frankfurt", "dublin")
        cache = jittered_topology.latency.cache_link("dublin")
        assert link.expected_ms == pytest.approx(
            wan.rtt_ms + cache.expected_read_ms(1024 * 1024 // 9 + 1))
        assert link.sigma == wan.jitter
        assert link.sigma > 0

    def test_zero_jitter_topology_has_flat_links(self, topology):
        assert topology.neighbor_link("frankfurt", "dublin").sigma == 0.0

    def test_explicit_override_wins(self):
        topology = default_topology(seed=0)
        topology.neighbor_links = {
            ("frankfurt", "dublin"): NeighborLink(expected_ms=42.0, sigma=0.5),
        }
        override = topology.neighbor_link("frankfurt", "dublin")
        assert override.expected_ms == 42.0 and override.sigma == 0.5
        # Pairs without an override still fall back to the derived profile.
        derived = topology.neighbor_link("dublin", "frankfurt")
        assert derived.expected_ms != 42.0

    def test_unknown_regions_rejected(self, topology):
        with pytest.raises(KeyError):
            topology.neighbor_link("mars", "dublin")
        with pytest.raises(KeyError):
            topology.neighbor_link("frankfurt", "mars")

    def test_link_validation(self):
        with pytest.raises(ValueError):
            NeighborLink(expected_ms=-1.0)
        with pytest.raises(ValueError):
            NeighborLink(expected_ms=10.0, sigma=-0.1)
