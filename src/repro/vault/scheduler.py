"""FR-FCFS memory access scheduling (Rixner et al., ISCA 2000 - Table I).

First-Ready means a request whose bank can accept a command *now* and whose
row is already open bypasses older requests; among equally ready requests the
oldest wins.  Reads have priority over writes except when the write queue
passes its high watermark, after which writes drain until the low watermark
(standard write-drain hysteresis; the paper's Table I gives 32-entry queues).

This class holds the scheduler's *state*: the write-drain hysteresis, its
residency statistics and the row-hit / FCFS issue counters.  The selection
rule itself runs in :meth:`repro.vault.controller.VaultController._try_issue`
(and the wake-up horizon in ``_arm_wake``), fused into the controller's
issue loop, which is the only place the simulator picks a request.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dram.bank import Bank
from repro.obs.hooks import noop
from repro.vault.queues import VaultQueues


class FRFCFSScheduler:
    """Write-drain state and issue statistics of one vault's FR-FCFS
    scheduler (the pick itself is fused into ``VaultController``)."""

    def __init__(
        self,
        banks: Sequence[Bank],
        queues: VaultQueues,
        write_high_watermark: Optional[int] = None,
        write_low_watermark: Optional[int] = None,
    ) -> None:
        self.queues = queues
        depth = queues.write_depth
        self.write_high = (
            write_high_watermark if write_high_watermark is not None else (3 * depth) // 4
        )
        self.write_low = (
            write_low_watermark if write_low_watermark is not None else depth // 4
        )
        if not 0 <= self.write_low <= self.write_high <= depth:
            raise ValueError("watermarks must satisfy 0 <= low <= high <= depth")
        self.draining = False
        # statistics
        self.row_hit_issues = 0
        self.fcfs_issues = 0
        self.drain_entries = 0
        #: cumulative cycles spent in drain mode over closed episodes; the
        #: telemetry layer adds the open episode via :meth:`drain_cycles_at`
        self.drain_cycles = 0
        self._drain_since = 0
        self._vault_id = getattr(banks[0].bus, "vault_id", 0) if banks else 0
        #: drain-mode transitions are the scheduler's only traced events -
        #: issue decisions are visible through the bank command stream already
        self._tracer = None
        self._emit_drain = noop

    # ------------------------------------------------------------------
    # Instrumentation (see repro.obs.hooks)
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._emit_drain = tracer.sched_drain if tracer is not None else noop

    # ------------------------------------------------------------------
    def _update_drain_state(self, now: int = 0) -> None:
        pending_writes = len(self.queues.writes)
        if not self.draining and pending_writes >= self.write_high:
            self.draining = True
            self.drain_entries += 1
            self._drain_since = now
            self._emit_drain(self._vault_id, True, pending_writes, now)
        elif self.draining and pending_writes <= self.write_low:
            self.draining = False
            self.drain_cycles += now - self._drain_since
            self._emit_drain(self._vault_id, False, pending_writes, now)

    def drain_cycles_at(self, now: int) -> int:
        """Total drain-mode residency up to ``now``, open episode included."""
        total = self.drain_cycles
        if self.draining:
            total += now - self._drain_since
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FRFCFS hits={self.row_hit_issues} fcfs={self.fcfs_issues} "
            f"draining={self.draining}>"
        )
