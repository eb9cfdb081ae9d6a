"""The logic-base crossbar that routes packets between links and vaults.

The HMC's main internal interconnect (paper Figure 2) is modeled as a
constant-latency switch with per-vault-port occupancy: each port can accept
one packet per ``port_cycle`` cycles, which bounds the per-vault injection
rate without simulating a full flit-level network (the crossbar in real HMC
silicon is heavily over-provisioned relative to the links, so contention is
rare; the counter below lets experiments confirm that).

This class holds the per-port state and counters only: the traversal itself
is :meth:`repro.hmc.device.HMCDevice.inject`, which ``FabricHost.send``
inlines for the one-hop path.
"""

from __future__ import annotations

from typing import List


class Crossbar:
    """Constant-latency, port-occupancy crossbar."""

    def __init__(self, vaults: int, latency: int, port_cycle: int = 1) -> None:
        if vaults < 1:
            raise ValueError("vaults must be >= 1")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if port_cycle < 1:
            raise ValueError("port_cycle must be >= 1")
        self.vaults = vaults
        self.latency = latency
        self.port_cycle = port_cycle
        self._port_busy: List[int] = [0] * vaults
        self.traversals = 0
        self.port_conflicts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Crossbar {self.vaults}p lat={self.latency} n={self.traversals}>"
