"""The wire load generator against a live cluster, closed and open loop."""

from __future__ import annotations

import asyncio

import pytest

from repro.client.stats import HitType
from repro.serve.loadgen import (WireLoadSpec, run_wire_load,
                                 wire_report_table)
from repro.serve.protocol import READ_HEADERS, build_response, hang_up
from repro.workload.workload import ArrivalSpec, WorkloadSpec

from serve_helpers import start_cluster, tiny_config


def _spec(**overrides) -> WireLoadSpec:
    defaults = dict(
        workload=WorkloadSpec(object_count=20, object_size=32 * 1024,
                              request_count=200, seed=7),
        connections=2,
        pipeline_depth=8,
    )
    defaults.update(overrides)
    return WireLoadSpec(**defaults)


def test_closed_loop_run(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            spec = _spec()
            results = await run_wire_load(cluster.addresses, spec, seed=3)
            result = results["frankfurt"]
            per = spec.connection_requests()
            assert result.requests == per * spec.connections
            assert result.errors == 0
            assert result.throughput_rps > 0
            stats = result.stats
            assert stats.count == result.requests
            assert stats.p50_latency_ms <= stats.p99_latency_ms
            # Zipfian reuse against a warm cache must produce hits.
            assert stats.full_hits + stats.partial_hits > 0
            # Every wire request left a ledger decision behind.
            gateway = cluster.gateways["frankfurt"]
            assert len(gateway.ledger) == result.requests
            assert gateway.wire_stats.count == result.requests
        finally:
            await cluster.stop()

    run(scenario())


def test_open_loop_poisson_run(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            spec = _spec(
                arrival=ArrivalSpec(process="poisson", rate_rps=2000.0),
                requests_per_connection=50)
            results = await run_wire_load(cluster.addresses, spec, seed=5)
            result = results["frankfurt"]
            assert result.requests == 100
            assert result.errors == 0
            # Open loop: the run takes at least as long as the densest
            # connection's drawn schedule demands.
            assert result.duration_s > 0
        finally:
            await cluster.stop()

    run(scenario())


def test_connection_seeding_is_deterministic(run):
    """Same seed → identical ledgers; the streams are engine-style seeded."""

    async def one_run():
        cluster = await start_cluster(tiny_config())
        try:
            await run_wire_load(cluster.addresses, _spec(), seed=11)
            return [entry.key for entry in
                    cluster.gateways["frankfurt"].ledger]
        finally:
            await cluster.stop()

    first = run(one_run())
    second = run(one_run())
    assert first == second
    assert len(first) > 0


def test_wire_report_table(run):
    async def scenario():
        cluster = await start_cluster(tiny_config())
        try:
            return await run_wire_load(cluster.addresses, _spec(), seed=3)
        finally:
            await cluster.stop()

    results = run(scenario())
    table = wire_report_table(results)
    assert table.columns[0] == "region"
    assert len(table.rows) == 1
    rendered = table.render()
    assert "frankfurt" in rendered
    assert "req/s" in rendered


def test_connection_requests_split():
    spec = _spec(connections=3)
    assert spec.connection_requests() == 67  # ceil(200 / 3)
    spec = _spec(requests_per_connection=10)
    assert spec.connection_requests() == 10


def test_failed_reads_are_not_errors(run):
    """503 (failed read under faults) counts as a measured read, not an error."""
    from repro.geo.regions import PAPER_REGIONS
    from repro.sim.faults import FaultSchedule, RegionOutage

    async def scenario():
        # Every backend region dark: each read is unavailable (503).
        config = tiny_config(
            strategy="backend",
            faults=FaultSchedule([RegionOutage(region.name, 0.0, 1e9)
                                  for region in PAPER_REGIONS]))
        cluster = await start_cluster(config)
        try:
            spec = _spec(requests_per_connection=10, connections=1)
            results = await run_wire_load(cluster.addresses, spec, seed=1)
            result = results["frankfurt"]
            assert result.requests == 10
            assert result.errors == 0
            assert result.stats.unavailable_reads == 10
        finally:
            await cluster.stop()

    run(scenario())


def _served_reads(run, strategy: str):
    """One connection's samples of a loadgen run, and the gateway's own
    :class:`ReadResult` of each read, in the order both were made."""
    async def scenario():
        cluster = await start_cluster(tiny_config(strategy=strategy))
        gateway = cluster.gateways["frankfurt"]
        decided = []
        read = gateway.strategy.read

        def spy(key, at):
            decided.append(read(key, at))
            return decided[-1]

        gateway.strategy.read = spy
        try:
            spec = _spec(connections=1, keep_samples=True)
            results = await run_wire_load(cluster.addresses, spec, seed=3)
        finally:
            await cluster.stop()
        return results["frankfurt"], decided

    return run(scenario())


def test_samples_carry_the_gateways_decision(run):
    """Each kept sample holds every field the ``X-Agar-*`` headers carry
    exactly as the gateway decided it, for a read of each hit class."""
    classes = set()
    for strategy in ("lru-3", "lru-9"):
        result, decided = _served_reads(run, strategy)
        assert result.errors == 0
        assert len(result.samples) == len(decided) == result.requests
        for sample, read in zip(result.samples, decided):
            for _, field, _, _ in READ_HEADERS:
                assert getattr(sample, field) == getattr(read, field), field
            assert sample.key == read.key
            assert sample.failed == read.failed
            classes.add(read.hit_type)
    assert classes == set(HitType)
    assert any(read.backend_regions for read in decided)


def _stub_peer(head: str):
    """A peer that answers every request with ``head``'s header lines on a
    200 with no body."""
    response = b"".join(build_response(200, b"", head.encode("latin-1")))

    async def serve(reader, writer):
        try:
            while True:
                await reader.readuntil(b"\r\n\r\n")
                writer.write(response)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            await hang_up(writer)

    return serve


_GOOD = {"X-Agar-Hit": "partial", "X-Agar-Cache-Chunks": "3",
         "X-Agar-Backend-Chunks": "6", "X-Agar-Neighbor-Chunks": "0",
         "X-Agar-Regions": "dublin,tokyo", "X-Agar-Degraded": "0"}


@pytest.mark.parametrize("name, value", [
    ("X-Agar-Cache-Chunks", "lots"), ("X-Agar-Backend-Chunks", "-6"),
    ("X-Agar-Hit", "bogus"), ("X-Agar-Degraded", "yes"),
    ("X-Agar-Neighbor-Chunks", None), ("X-Agar-Regions", "dublin,tokyo")])
def test_a_malformed_decision_header_counts_as_an_error(run, name, value):
    """A bad or missing ``X-Agar-*`` value is an error, like a bad status:
    it neither ends the worker nor passes as a read.  The last case is well
    formed, so the stub's responses are reads."""
    headers = {**_GOOD, name: value}
    head = "".join(f"{header}: {text}\r\n"
                   for header, text in headers.items() if text is not None)

    async def scenario():
        server = await asyncio.start_server(_stub_peer(head), "127.0.0.1", 0)
        async with server:
            address = server.sockets[0].getsockname()[:2]
            spec = _spec(connections=2, requests_per_connection=12,
                         keep_samples=True)
            return (await run_wire_load({"stub": address}, spec,
                                        seed=1))["stub"]

    result = run(scenario())
    assert result.requests == 24
    if headers == _GOOD:
        assert result.errors == 0 and result.stats.partial_hits == 24
        assert {sample.backend_regions for sample in result.samples} == {
            ("dublin", "tokyo")}
    else:
        assert result.errors == 24
        assert result.stats.count == result.stats.unavailable_reads == 0
