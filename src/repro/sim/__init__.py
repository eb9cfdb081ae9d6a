"""Discrete-event simulation kernel used by every other subsystem.

The kernel is deliberately tiny: an event heap keyed by ``(time, seq)`` plus
statistics primitives.  All simulated components (vault controllers, links,
cores, ...) register callbacks on an :class:`~repro.sim.engine.Engine` and
never busy-wait, which keeps the Python event count per memory request small
(roughly: arrive-at-vault, bank-complete, response-at-core).
"""

from repro.sim.engine import Engine
from repro.sim.stats import Counter, Histogram, StatGroup, geomean

__all__ = [
    "Engine",
    "Counter",
    "Histogram",
    "StatGroup",
    "geomean",
]
