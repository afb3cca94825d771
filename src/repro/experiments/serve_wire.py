"""Wire-level serving experiment: measured latency over real sockets.

Deploys per-region gateways (:mod:`repro.serve`) from the same engine
configuration the simulated experiments use, drives them with the wire load
generator, and reports measured wall-clock p50/p95/p99 and req/s in the
same table format as the simulated runs — the serving twin of the Fig. 6
latency experiment, with real request framing, scheduling and payload
reconstruction on the measured path.

Objects are capped at ``WIRE_OBJECT_SIZE`` (64 KiB) on the wire.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence

from repro.analysis.report import Table
from repro.experiments.common import ExperimentSettings
from repro.serve.gateway import ServeCluster
from repro.serve.loadgen import (RegionWireResult, WireLoadSpec,
                                 run_wire_load, wire_report_table)
from repro.sim.engine import RegionSpec
from repro.workload.workload import ArrivalSpec, poisson_arrivals

SERVE_REGIONS = ("frankfurt",)


def run_serve_wire(settings: ExperimentSettings,
                   regions: Sequence[str] = SERVE_REGIONS,
                   rate_rps: float | None = None,
                   ) -> dict[str, RegionWireResult]:
    """Serve one wire run and return the per-region measured results.

    Every region runs Agar; ``rate_rps=None`` drives it closed loop.
    """
    workload = settings.wire_workload()
    config = settings.deployment(
        [RegionSpec(name) for name in regions],
        workload=workload)
    arrival = poisson_arrivals(rate_rps) if rate_rps else ArrivalSpec()
    spec = WireLoadSpec(workload=workload, arrival=arrival)

    async def serve_and_load() -> dict[str, RegionWireResult]:
        cluster = ServeCluster.from_config(config, seed=settings.seed,
                                           payloads=True)
        async with cluster:
            return await run_wire_load(cluster.addresses, spec,
                                       seed=settings.seed)

    return asyncio.run(serve_and_load())


def render_serve_wire(results: dict[str, RegionWireResult]) -> Table:
    """The measured wire table (same columns for every serving report)."""
    return wire_report_table(
        results, title="Wire-level serving latency (measured over sockets)")
