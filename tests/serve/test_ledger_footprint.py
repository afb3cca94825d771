"""Memory guard: what the decision ledger retains per served read.

Dispatches 20,480 pipelined GETs through one gateway in process, the way
``benchmarks/test_bench_gateway_dispatch`` does (no sockets, no event loop),
and asks ``tracemalloc`` how many bytes allocated under
``repro/serve/ledger.py`` are still alive afterwards.  A list of
:class:`LedgerEntry` tuples retains ≈ 170 B per read there; the record log
retains its 30-byte record plus the ``bytearray``'s over-allocation.
"""

from __future__ import annotations

import tracemalloc

import repro.serve.ledger as ledger_module
from repro.serve.gateway import ServeCluster
from repro.serve.protocol import parse_request
from repro.sim.engine import EngineConfig, RegionSpec
from repro.workload.workload import WorkloadSpec

BATCH = 32
ROUNDS = 640
MAX_BYTES_PER_READ = 56


def test_ledger_retains_at_most_56_bytes_per_read():
    config = EngineConfig(
        workload=WorkloadSpec(object_count=BATCH, object_size=16 * 1024,
                              request_count=BATCH, seed=7),
        regions=[RegionSpec(region="frankfurt", clients=1, strategy="agar")],
        cache_capacity_bytes=160 * 1024, topology_seed=7,
        timer_reconfiguration=True)
    cluster = ServeCluster.from_config(config, seed=1, payloads=True)
    gateway = cluster.gateways["frankfurt"]
    buffer = bytearray(b"".join(
        f"GET /objects/object-{rank} HTTP/1.1\r\nHost: guard\r\n\r\n".encode()
        for rank in range(BATCH)))

    def drain() -> None:
        offset = 0
        while (parsed := parse_request(buffer, offset)) is not None:
            request, offset = parsed
            gateway._dispatch(request)

    drain()
    gateway.strategy.tick(1.0)
    drain()
    before = len(gateway.ledger)
    # Two frames: a named tuple's allocation sits in generated code called
    # from ledger.py, a record's in ledger.py itself.
    tracemalloc.start(2)
    try:
        start = tracemalloc.take_snapshot()
        for _ in range(ROUNDS):
            drain()
        end = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    reads = len(gateway.ledger) - before
    assert reads == BATCH * ROUNDS >= 20_000
    assert gateway.errors_total == 0
    only_ledger = [tracemalloc.Filter(True, ledger_module.__file__,
                                      all_frames=True)]
    retained = sum(stat.size_diff for stat in
                   end.filter_traces(only_ledger).compare_to(
                       start.filter_traces(only_ledger), "filename"))
    assert retained / reads <= MAX_BYTES_PER_READ, (
        f"ledger retains {retained / reads:.1f} B per read")
