"""Simulation substrate: simulated clock, the discrete-event engine and the
repeat-and-aggregate experiment driver."""

from repro.sim.clock import SimulationClock
from repro.sim.engine import (
    CLIENT_SEED_STRIDE,
    DeploymentAggregate,
    EngineConfig,
    EngineDeployment,
    EngineResult,
    EventEngine,
    RegionRunResult,
    RegionSpec,
)
from repro.sim.faults import (
    CLEAR_STATE,
    AZFailure,
    BackendBrownout,
    FaultSchedule,
    FaultState,
    RegionOutage,
)
from repro.sim.simulation import (
    DEPLOYMENT_LABEL,
    RegionAggregate,
    RunsResult,
    run_comparison,
    run_many,
)

__all__ = [
    "AZFailure",
    "BackendBrownout",
    "CLEAR_STATE",
    "CLIENT_SEED_STRIDE",
    "DEPLOYMENT_LABEL",
    "DeploymentAggregate",
    "EngineConfig",
    "EngineDeployment",
    "EngineResult",
    "EventEngine",
    "FaultSchedule",
    "FaultState",
    "RegionAggregate",
    "RegionOutage",
    "RegionRunResult",
    "RegionSpec",
    "RunsResult",
    "SimulationClock",
    "run_comparison",
    "run_many",
]
