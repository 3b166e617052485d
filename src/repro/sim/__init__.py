"""Discrete-event simulation engine.

This subpackage is the substrate on which the D2D simulations run.  It
provides a deterministic event-heap engine (:class:`~repro.sim.engine.Engine`),
reproducible random-stream management
(:class:`~repro.sim.random.RandomStreams`) and structured event tracing
(:class:`~repro.sim.trace.TraceRecorder`).

The engine is intentionally small and has no external dependencies beyond
NumPy (for RNG).  Time is a ``float`` in **milliseconds** to match the
paper's 1 ms LTE slot granularity (Table I).
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.errors import (
    ScheduleInPastError,
    SimulationLimitExceeded,
    StopSimulation,
)
from repro.sim.random import RandomStreams
from repro.sim.trace import TraceRecorder, TraceRecord

__all__ = [
    "Engine",
    "EventHandle",
    "RandomStreams",
    "ScheduleInPastError",
    "SimulationLimitExceeded",
    "StopSimulation",
    "TraceRecord",
    "TraceRecorder",
]
