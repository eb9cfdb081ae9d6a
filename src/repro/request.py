"""The memory request record that flows core -> caches -> host -> vault.

One :class:`MemoryRequest` represents a 64 B cache-line transaction (an LLC
miss or a dirty writeback).  It carries its cube coordinates (decoded once at
the host controller), a small set of timestamps used by the metrics layer
(AMAT, Figure 8), and a completion callback that re-wakes the issuing core.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class ServiceSource(enum.Enum):
    """Where a request's data ultimately came from."""

    BANK = "bank"  # DRAM bank via the normal queue/scheduler path
    PREFETCH_BUFFER = "buffer"  # vault prefetch buffer hit
    ROW_IN_FLIGHT = "in_flight"  # merged with a row fetch already in progress


class MemoryRequest:
    """A single cache-line read or write presented to the HMC.

    Requests are poolable through the class-level freelist ``_pool``: the
    direct front-end (``repro.system.DirectPort``) takes one per trace
    record, and the host controller (``FabricHost._deliver``) returns
    delivered requests to it when the system declares them single-owner
    (``System`` enables recycling only when no component retains completed
    requests).  A released request must not be touched again through any
    retained reference.

    A reused object gets a fresh ``req_id`` and the front-end's fields; the
    coordinate and timeline slots keep their previous-life values.  That is
    invisible to the simulation: ``FabricHost.send`` overwrites every
    coordinate and ``host_cycle`` before any read, the vault stamps
    ``vault_arrive_cycle``/``source``/``qseq`` on arrival, and
    ``complete_cycle`` is written at delivery, so results stay
    byte-identical to fresh allocation.
    """

    __slots__ = (
        "req_id",
        "addr",
        "is_write",
        "core_id",
        "cube",
        "vault",
        "bank",
        "row",
        "column",
        "qseq",
        "issue_cycle",
        "host_cycle",
        "vault_arrive_cycle",
        "complete_cycle",
        "source",
        "callback",
        "meta",
    )

    _next_id = 0
    _pool: list = []

    def __init__(
        self,
        addr: int,
        is_write: bool,
        core_id: int = 0,
        issue_cycle: int = 0,
        callback: Optional[Callable[["MemoryRequest"], Any]] = None,
    ) -> None:
        MemoryRequest._next_id += 1
        self.req_id = MemoryRequest._next_id
        self.addr = addr
        self.is_write = is_write
        self.core_id = core_id
        # cube coordinates, filled by the host controller's address decode
        # before any read (safe across pool recycling)
        self.cube = 0
        self.vault = -1
        self.bank = -1
        self.row = -1
        self.column = -1
        # vault-queue admission order (repro.vault.queues assigns it); the
        # FR-FCFS oldest-first tie-breaker, distinct from req_id because
        # link serialization can reorder arrivals relative to creation
        self.qseq = 0
        # timeline
        self.issue_cycle = issue_cycle  # left the LLC
        self.host_cycle = -1  # entered the HMC host controller
        self.vault_arrive_cycle = -1  # reached the vault controller
        self.complete_cycle = -1  # data back at the host
        self.source: Optional[ServiceSource] = None
        self.callback = callback
        self.meta: Optional[dict] = None

    @property
    def latency(self) -> int:
        """Host-observed round-trip latency in cycles (valid once complete)."""
        if self.complete_cycle < 0:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.complete_cycle - self.issue_cycle

    @property
    def is_complete(self) -> bool:
        return self.complete_cycle >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"<MemReq#{self.req_id} {kind} 0x{self.addr:x} "
            f"v{self.vault}b{self.bank}r{self.row}c{self.column}>"
        )
