"""Single-host simulation: configuration, OS noise, the driver over one host,
and result records."""

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulation, run_workload
from repro.sim.noise import NoiseAgent
from repro.sim.results import EpochRecord, RunResult

__all__ = [
    "EpochRecord",
    "NoiseAgent",
    "RunResult",
    "Simulation",
    "SimulationConfig",
    "run_workload",
]
