"""Deterministic discrete-event simulation engine.

This subpackage provides the substrate on which every other layer of the
reproduction runs: a simulated clock, an event heap with deterministic
tie-breaking, generator-based processes (SimPy-style), synchronization
primitives, and FIFO resources used to model hardware links.

The engine is intentionally minimal but complete: all timing results in the
benchmark harness are produced by scheduling costs on a :class:`Simulator`.
"""

from repro.sim.engine import Handle, Simulator
from repro.sim.primitives import AllOf, SimEvent, SimQueue, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "Handle",
    "Process",
    "Resource",
    "SimEvent",
    "SimQueue",
    "Simulator",
    "Timeout",
]
