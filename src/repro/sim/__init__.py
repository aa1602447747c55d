"""Discrete-event simulation engine underlying the GPU and serving models."""

from repro.sim.events import PRIORITY_EARLY, PRIORITY_LATE, PRIORITY_NORMAL, Event
from repro.sim.simulator import (
    INHERIT_SCOPE,
    SimulationError,
    Simulator,
    WorkCounters,
    collect_counters,
)


def make_sim(start_time: float = 0.0) -> Simulator:
    """Construct the simulator the benchmarks should run on."""
    return Simulator(start_time)


__all__ = [
    "Event",
    "INHERIT_SCOPE",
    "PRIORITY_EARLY",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "SimulationError",
    "Simulator",
    "WorkCounters",
    "collect_counters",
    "make_sim",
]
