"""The assembled Hybrid Memory Cube.

``HMCDevice`` instantiates the 32 vault controllers (each with the chosen
prefetching scheme), the internal crossbar and the energy model, and exposes
the two entry points the host controller uses: deliver a request packet to a
vault, and receive completions back.  End-of-run aggregation (conflict rates,
prefetch accuracy, energy) happens here because only the device sees every
vault.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.schemes import make_prefetcher
from repro.dram.energy import EnergyModel
from repro.hmc.config import HMCConfig
from repro.interconnect.crossbar import Crossbar
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.vault.controller import VaultController

DeliverFn = Callable[[MemoryRequest, int], None]


class HMCDevice:
    """One HMC package: vaults + crossbar + energy accounting."""

    def __init__(
        self,
        config: HMCConfig,
        engine: Engine,
        scheme: str = "camps-mod",
        scheme_kwargs: Optional[Dict[str, Any]] = None,
        record_commands: bool = False,
    ) -> None:
        self.config = config
        self.engine = engine
        self.scheme = scheme
        self.crossbar = Crossbar(config.vaults, config.crossbar_latency)
        self.energy = EnergyModel(config.energy)
        self._deliver_fn: Optional[DeliverFn] = None
        self._xbar_latency = config.crossbar_latency
        kwargs = scheme_kwargs or {}
        self.vaults: List[VaultController] = [
            VaultController(
                vault_id=v,
                config=config,
                engine=engine,
                prefetcher=make_prefetcher(scheme, v, config, **kwargs),
                respond_fn=self._on_vault_response,
                record_commands=record_commands,
            )
            for v in range(config.vaults)
        ]
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_deliver_fn(self, fn: DeliverFn) -> None:
        """Install the host-side completion path (set by
        :class:`~repro.fabric.host.FabricHost`, one deliver fn per cube).

        The vault controllers are rewired to call ``fn`` directly, skipping
        the :meth:`_on_vault_response` pass-through frame on the hot path.
        The deliver fn receives the *bank-side* ready cycle; the response
        crossbar traversal is charged by the receiver (the host mirrors
        ``config.crossbar_latency`` for this).
        """
        self._deliver_fn = fn
        for vc in self.vaults:
            vc.respond_fn = fn

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def inject(self, req: MemoryRequest, at: int) -> None:
        """A request packet leaves the link's cube-side receiver at ``at``:
        route it through the crossbar to its vault controller.

        A port accepts one packet per ``port_cycle``; a packet that finds its
        port busy waits for it (a port conflict).  The host decode already
        bounds ``req.vault``.
        """
        xbar = self.crossbar
        vault = req.vault
        port_busy = xbar._port_busy
        start = port_busy[vault]
        if start > at:
            xbar.port_conflicts += 1
        else:
            start = at
        port_busy[vault] = start + xbar.port_cycle
        xbar.traversals += 1
        self.engine.call_at(start + xbar.latency, self.vaults[vault].receive, req)

    def _on_vault_response(self, req: MemoryRequest, ready: int) -> None:
        """A vault finished a request at ``ready``; hand it to the host path.
        (Vaults call the deliver fn directly once a host is attached - this
        stays as the pre-wiring default and the no-host error path.  The
        response crossbar traversal is charged by the deliver fn.)"""
        if self._deliver_fn is None:
            raise RuntimeError("HMCDevice has no host attached")
        self._deliver_fn(req, ready)

    # ------------------------------------------------------------------
    # End-of-run aggregation
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Warmup boundary: zero every measurement counter in the cube."""
        for vc in self.vaults:
            vc.reset_statistics()
        e = self.energy
        e.acts = e.pres = e.line_reads = e.line_writes = 0
        e.row_transfers = e.buffer_accesses = e.link_flits = e.refreshes = 0
        self.crossbar.traversals = 0
        self.crossbar.port_conflicts = 0

    def finalize(self) -> None:
        """Charge energy and flush buffer accuracy accounting.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        for vc in self.vaults:
            vc.finalize()
            self.energy.charge_banks(vc.banks)
            if vc.buffer is not None:
                self.energy.charge_buffer_access(
                    vc.buffer.hits + vc.buffer.lines_inserted
                )
        self.energy.set_cycles(self.engine.now)

    # ------------------------------------------------------------------
    # Aggregated statistics
    # ------------------------------------------------------------------
    @property
    def demand_accesses(self) -> int:
        return sum(vc.demand_accesses for vc in self.vaults)

    @property
    def row_conflicts(self) -> int:
        return sum(vc.row_conflicts for vc in self.vaults)

    @property
    def buffer_hits(self) -> int:
        return sum(vc.stats.counter("buffer_hits").value for vc in self.vaults)

    def conflict_rate(self) -> float:
        """Row-buffer conflicts across all banks, per demand request absorbed
        by the cube (Figure 6's metric)."""
        total = self.demand_accesses + self.buffer_hits
        return self.row_conflicts / total if total else 0.0

    def prefetch_row_accuracy(self) -> float:
        """Fraction of prefetched rows referenced before eviction (Fig. 7).
        Only meaningful after :meth:`finalize`."""
        used = unused = 0
        for vc in self.vaults:
            if vc.buffer is not None:
                used += vc.buffer.rows_retired_used
                unused += vc.buffer.rows_retired_unused
        n = used + unused
        return used / n if n else 0.0

    def prefetch_line_accuracy(self) -> float:
        """Fraction of prefetched lines referenced (MMD's feedback metric)."""
        ins = used = 0
        for vc in self.vaults:
            if vc.buffer is not None:
                ins += vc.buffer.lines_inserted
                used += vc.buffer.lines_used
        return used / ins if ins else 0.0

    def prefetches_issued(self) -> int:
        return sum(vc.prefetcher.prefetches_issued for vc in self.vaults)

    def stats_summary(self) -> Dict[str, float]:
        """Flat dict of the headline device statistics."""
        return {
            "demand_accesses": float(self.demand_accesses),
            "row_conflicts": float(self.row_conflicts),
            "conflict_rate": self.conflict_rate(),
            "buffer_hits": float(self.buffer_hits),
            "prefetches_issued": float(self.prefetches_issued()),
            "row_accuracy": self.prefetch_row_accuracy(),
            "line_accuracy": self.prefetch_line_accuracy(),
            "energy_pj": self.energy.total_pj(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HMCDevice scheme={self.scheme} vaults={len(self.vaults)}>"
