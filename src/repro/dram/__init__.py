"""DRAM substrate: per-bank row-buffer state machines, timing arithmetic and
an event-count energy model.

The model follows the paper's Table I: DDR3-1600 style timing (tRCD = tRP =
tCL = 11 memory cycles) inside each HMC vault, an open-page policy, and
1 KB row buffers.  All externally visible times are expressed in CPU cycles
(3 GHz); :class:`~repro.dram.timing.DRAMTimings` performs the conversion.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "DRAMTimings": "timing",
        "Command": "commands",
        "CommandKind": "commands",
        "Bank": "bank",
        "AccessKind": "bank",
        "AccessResult": "bank",
        "EnergyModel": "energy",
        "EnergyParams": "energy",
    },
)
