"""A payload gateway stands up and decodes cold GETs without a ``Chunk``.

The store keeps each payload object's encoded chunks as one block; the
gateway's cold read fetches the decided chunks with one ``store.get_chunks``
call and hands the read-only view it gets to ``codec.decode``, which takes the
payload slices straight from the block.  So deploying a payload store and
serving GETs that miss the body cache builds no :class:`Chunk` at all on the
backend strategy (``wire_cold``'s).  A caching strategy's per-key read plan
holds the payload-less chunks its cache admits; with those interned by a
first round, a second round of GETs that miss the body cache builds none
either — a fetch that built chunks per request would.
"""

from __future__ import annotations

import pytest

from repro.erasure import Chunk
from repro.serve.gateway import ServeCluster
from repro.serve.protocol import parse_request, pop_response
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import WorkloadSpec

OBJECTS = 48
SIZE = 16 * 1024
GETS = bytes(b"".join(
    f"GET /objects/object-{rank} HTTP/1.1\r\nHost: guard\r\n\r\n".encode()
    for rank in range(OBJECTS)))


def _cluster(strategy: str) -> ServeCluster:
    config = EngineConfig(
        workload=WorkloadSpec(object_count=OBJECTS, object_size=SIZE,
                              request_count=OBJECTS, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy=strategy)],
        cache_capacity_bytes=160 * 1024, topology_seed=7)
    return ServeCluster.from_config(config, seed=1, payloads=True)


def _get_every_object(cluster: ServeCluster) -> list:
    """GET each object once through the gateway, in process; the responses."""
    gateway = cluster.gateways["frankfurt"]
    buffer = bytearray(GETS)
    answers = bytearray()
    offset = 0
    while (parsed := parse_request(buffer, offset)) is not None:
        request, offset = parsed
        answers += b"".join(gateway._dispatch(request))
    responses = []
    while (response := pop_response(answers)) is not None:
        responses.append(response)
    return responses


def _count_chunks(monkeypatch) -> list:
    """From now on, the id of every :class:`Chunk` constructed."""
    built = []
    check = Chunk.__post_init__

    def counting(chunk) -> None:
        built.append(chunk.chunk_id)
        check(chunk)

    monkeypatch.setattr(Chunk, "__post_init__", counting)
    return built


def _assert_decoded(cluster: ServeCluster, responses: list) -> None:
    store = cluster.deployment.store
    assert len(responses) == OBJECTS
    for rank, (status, headers, body) in enumerate(responses):
        assert status == 200
        assert headers["x-agar-body"] == "decoded"
        assert body == store.get_object(f"object-{rank}")


def test_a_payload_deployment_and_its_cold_gets_build_no_chunk(monkeypatch):
    built = _count_chunks(monkeypatch)
    cluster = _cluster("backend")
    responses = _get_every_object(cluster)
    monkeypatch.undo()
    assert built == []
    _assert_decoded(cluster, responses)


@pytest.mark.parametrize("strategy", ["backend", "lru-3", "agar"])
def test_gets_that_miss_the_body_cache_build_no_chunk(strategy, monkeypatch):
    cluster = _cluster(strategy)
    _get_every_object(cluster)
    cluster.gateways["frankfurt"]._body_cache.clear()
    built = _count_chunks(monkeypatch)
    responses = _get_every_object(cluster)
    monkeypatch.undo()
    assert built == []
    _assert_decoded(cluster, responses)
