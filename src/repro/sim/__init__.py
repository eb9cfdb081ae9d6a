"""Discrete-event simulation kernel used by every other subsystem.

The kernel is deliberately tiny: an event heap keyed by ``(time, seq)`` plus
statistics primitives.  All simulated components (vault controllers, links,
cores, ...) register callbacks on an :class:`~repro.sim.engine.Engine` and
never busy-wait, which keeps the Python event count per memory request small
(roughly: arrive-at-vault, bank-complete, response-at-core).
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "Engine": "engine",
        "Counter": "stats",
        "Histogram": "stats",
        "StatGroup": "stats",
        "geomean": "stats",
    },
)
