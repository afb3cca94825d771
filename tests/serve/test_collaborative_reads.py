"""A GET served partly from a §VI neighbour's cache answers the whole object.

Two collaborating Agar regions: frankfurt reads a few objects often enough for
its node to cache their chunks, the collaboration rounds publish frankfurt's
catalog to dublin, and dublin's first GET of each of those objects takes some
chunks from frankfurt's cache.  The decision names the neighbour's chunks
along with the cache and backend ones, and the body is decoded from all of
them: a ``200`` never carries fewer bytes than the object.
"""

from __future__ import annotations

from repro.serve.gateway import ServeCluster
from repro.serve.protocol import render_request
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import WorkloadSpec

from serve_helpers import http_get, http_post, raw_exchange

OBJECT_SIZE = 16 * 1024
HOT = 6
GETS_PER_ROUND = 60
ROUNDS = 3


def _config() -> EngineConfig:
    return EngineConfig(
        workload=WorkloadSpec(object_count=40, object_size=OBJECT_SIZE,
                              request_count=GETS_PER_ROUND, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="agar"),
                 RegionSpec(region="dublin", clients=1, strategy="agar")],
        cache_capacity_bytes=160 * 1024, collaboration=True)


def test_a_neighbour_served_get_answers_the_whole_object(run):
    async def scenario():
        cluster = ServeCluster.from_config(_config(), payloads=True)
        async with cluster:
            addresses = cluster.addresses
            hot_reads = b"".join(
                render_request("GET", f"/objects/object-{index % HOT}", "t")
                for index in range(GETS_PER_ROUND))
            for _ in range(ROUNDS):
                responses = await raw_exchange(addresses["frankfurt"], hot_reads,
                                               responses=GETS_PER_ROUND)
                assert [status for status, _, _ in responses] == [200] * GETS_PER_ROUND
                for address in addresses.values():
                    status, _, _ = await http_post(address, "/admin/tick")
                    assert status == 200
                cluster.run_collaboration_round()
            answers = [await http_get(addresses["dublin"], f"/objects/object-{index}")
                       for index in range(HOT)]
            store = cluster.deployment.store
            return answers, [store.get_object(f"object-{index}") for index in range(HOT)]

    answers, objects = run(scenario())
    neighbour_served = 0
    for (status, headers, body), expected in zip(answers, objects):
        assert status == 200
        assert len(body) == OBJECT_SIZE
        assert body == expected
        chunks = headers["x-agar-chunks"].split(",")
        assert len(chunks) == 9 == len(set(chunks))
        neighbour_served += int(headers["x-agar-neighbor-chunks"]) > 0
    assert neighbour_served == HOT
