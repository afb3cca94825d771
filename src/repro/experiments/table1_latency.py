"""Table I — per-region read latency estimates seen from Frankfurt.

The paper's Table I lists the per-chunk read latency the Region Manager
measures from Frankfurt to each of the six regions.  This experiment runs the
Region Manager's warm-up probes against the ``table1`` topology preset (whose
Frankfurt row uses the paper's values verbatim) and, for reference, against the
calibrated evaluation topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table
from repro.backend.object_store import ErasureCodedStore
from repro.core.region_manager import RegionManager
from repro.experiments.common import CLIENT_REGION
from repro.geo.latency import DEFAULT_OBJECT_SIZE
from repro.geo.topology import TABLE1_FRANKFURT_LATENCIES, Topology, default_topology, table1_topology

#: Objects placed before probing, so the Region Manager has a catalogue to
#: describe.
PROBE_OBJECTS = 10


@dataclass(frozen=True)
class Table1Row:
    """One region's latency estimate."""

    region: str
    paper_ms: float | None
    measured_ms: float


def run_table1(topology: Topology | None = None) -> list[Table1Row]:
    """Measure per-region chunk-read latency estimates from Frankfurt (the
    paper's Table I) via the Region Manager.

    ``topology`` defaults to the ``table1`` preset.
    """
    topology = topology or table1_topology()
    store = ErasureCodedStore(topology)
    store.populate(PROBE_OBJECTS, DEFAULT_OBJECT_SIZE)
    estimates = RegionManager(CLIENT_REGION, store).latency_estimates()
    rows = [Table1Row(region=region, paper_ms=TABLE1_FRANKFURT_LATENCIES.get(region),
                      measured_ms=estimates[region])
            for region in topology.region_names]
    rows.sort(key=lambda row: row.measured_ms)
    return rows


def run_table1_calibrated() -> list[Table1Row]:
    """Same measurement on the calibrated evaluation topology."""
    return run_table1(topology=default_topology())


def render_table1(rows: list[Table1Row], title: str = "Table I — read latency from Frankfurt") -> Table:
    """Render the rows as an aligned text table."""
    return Table.from_rows(title, (
        ("region", "region"),
        ("paper (ms)", lambda row: "-" if row.paper_ms is None else f"{row.paper_ms:.0f}"),
        ("measured (ms)", "measured_ms")), rows)
