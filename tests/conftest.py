"""Shared fixtures for the test suite.

Everything here is deliberately small (tens of objects, virtual payloads) so
the full suite stays fast while still exercising the real code paths.
"""

from __future__ import annotations

import pytest

from repro.backend import ErasureCodedStore
from repro.erasure import ErasureCodingParams
from repro.geo import default_topology, table1_topology

MEGABYTE = 1024 * 1024


@pytest.fixture
def topology():
    """The calibrated six-region evaluation topology, without jitter."""
    return default_topology(seed=0, jitter=0.0)


@pytest.fixture
def jittered_topology():
    """The calibrated topology with its default jitter (for sampling tests)."""
    return default_topology(seed=0)


@pytest.fixture
def paper_table1():
    """The Table-I preset topology (Frankfurt row uses the paper's numbers)."""
    return table1_topology(seed=0)


@pytest.fixture
def store(topology):
    """A store populated with 20 virtual 1 MB objects under RS(9, 3)."""
    store = ErasureCodedStore(topology)
    store.populate(object_count=20, object_size=MEGABYTE)
    return store


@pytest.fixture
def small_params():
    """Small RS(4, 2) parameters used where real payloads are encoded."""
    return ErasureCodingParams(4, 2)


@pytest.fixture
def frankfurt_latencies(topology):
    """Expected per-chunk latencies from Frankfurt on the calibrated topology."""
    return topology.expected_read_latencies("frankfurt")


@pytest.fixture
def round_robin_chunks():
    """Round-robin chunk placement of one RS(9, 3) object over the six regions."""
    regions = ["frankfurt", "dublin", "n_virginia", "sao_paulo", "tokyo", "sydney"]
    return {region: [index, index + 6] for index, region in enumerate(regions)}
