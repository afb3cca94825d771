"""Shared helpers for the serving-tier tests.

Everything runs on loopback sockets with ephemeral ports and small virtual
workloads, so the suite stays fast while exercising the real wire path.
Pytest puts this directory on ``sys.path`` when collecting the suite, so
test modules import this module by name.  Requests go out and responses come
back through the client side of :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

from repro.serve.gateway import ServeCluster
from repro.serve.protocol import exchange, pop_response, render_request
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import WorkloadSpec

MEGABYTE = 1024 * 1024


def tiny_config(strategy: str = "lru-3", request_count: int = 60,
                object_count: int = 20, object_size: int = 32 * 1024,
                **overrides) -> EngineConfig:
    """A one-region config small enough for per-test cluster deployment."""
    return EngineConfig(
        workload=WorkloadSpec(object_count=object_count,
                              object_size=object_size,
                              request_count=request_count, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy=strategy)],
        cache_capacity_bytes=MEGABYTE,
        **overrides,
    )


async def start_cluster(config: EngineConfig, **kwargs) -> ServeCluster:
    cluster = ServeCluster.from_config(config, **kwargs)
    await cluster.start()
    return cluster


async def raw_exchange(address: tuple[str, int], payload: bytes,
                       responses: int = 1) -> list[tuple[int, dict, bytes]]:
    """Send raw bytes, return up to ``responses`` complete responses."""
    buffer = bytearray(await exchange(address, payload))
    out = []
    while len(out) < responses and (response := pop_response(buffer)):
        out.append(response)
    return out


async def _one(address: tuple[str, int], request: bytes,
               ) -> tuple[int, dict, bytes]:
    responses = await raw_exchange(address, request)
    assert responses, f"no response for {request[:40]!r}"
    return responses[0]


async def http_get(address: tuple[str, int], path: str,
                   headers: dict[str, str] | None = None,
                   ) -> tuple[int, dict, bytes]:
    return await _one(address, render_request("GET", path, "t", headers))


async def http_put(address: tuple[str, int], path: str, body: bytes,
                   ) -> tuple[int, dict, bytes]:
    return await _one(address, render_request("PUT", path, "t", body=body))


async def http_post(address: tuple[str, int], path: str, body: bytes = b"",
                    content_type: str = "application/json",
                    ) -> tuple[int, dict, bytes]:
    return await _one(address, render_request(
        "POST", path, "t", {"Content-Type": content_type}, body))
