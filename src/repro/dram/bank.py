"""Per-bank row-buffer state machine.

Each HMC vault contains 16 banks (2 per DRAM layer x 8 layers, Table I).
A bank is modeled as an open-page row buffer plus a ``busy_until`` horizon:
the vault scheduler asks the bank to compute the service window for a demand
access or a prefetch row-fetch, and the bank resolves row hit / empty /
conflict, enforces tRCD/tRP/tCL/tRAS arithmetic, and tallies the command
counts the energy model consumes.

Row-buffer *conflicts* - a demand access finding a different row open - are
the central statistic of the paper (Figure 6) and are counted here, at the
single point where every access resolves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.dram.bus import TsvBus
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import DRAMTimings
from repro.obs.hooks import noop


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class RowOutcome(enum.Enum):
    """How a demand access found the row buffer."""

    HIT = "hit"  # requested row already open
    EMPTY = "empty"  # bank precharged, plain activate
    CONFLICT = "conflict"  # different row open: precharge + activate


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Service window of one access: when it started occupying the bank,
    when its data is available, and how the row buffer was found."""

    start: int
    finish: int
    outcome: RowOutcome


class Bank:
    """One DRAM bank with an open-page row buffer.

    The bank does not schedule itself; the vault controller decides *when* to
    send an access, the bank decides *how long* it takes and mutates state.
    """

    __slots__ = (
        "bank_id",
        "timings",
        "bus",
        "open_row",
        "busy_until",
        "last_activate",
        "acts",
        "pres",
        "reads",
        "writes",
        "row_fetches",
        "row_restores",
        "prefetch_line_reads",
        "conflicts",
        "hits",
        "empties",
        "closed_page",
        "refreshes",
        "record_commands",
        "command_log",
        "_tracer",
        "_log",
        "_emit_conflict",
    )

    def __init__(
        self,
        bank_id: int,
        timings: DRAMTimings,
        record_commands: bool = False,
        bus: Optional[TsvBus] = None,
        closed_page: bool = False,
    ) -> None:
        self.bank_id = bank_id
        self.timings = timings
        # The shared per-vault TSV data bus; a private bus (no sharing) is
        # used when standalone, e.g. in unit tests.
        self.bus = bus if bus is not None else TsvBus()
        self.open_row: Optional[int] = None
        self.busy_until: int = 0
        self.last_activate: int = -(10**9)
        # command counters (energy + figure 6 inputs)
        self.acts = 0
        self.pres = 0
        self.reads = 0
        self.writes = 0
        self.row_fetches = 0
        self.row_restores = 0
        self.prefetch_line_reads = 0
        self.conflicts = 0
        self.hits = 0
        self.empties = 0
        # closed-page policy: auto-precharge after every demand access
        self.closed_page = closed_page
        self.refreshes = 0
        self.record_commands = record_commands
        self.command_log: List[Command] = []
        self._tracer = None
        self._rebind_hooks()

    # ------------------------------------------------------------------
    # Instrumentation (see repro.obs.hooks): ``_log`` and
    # ``_emit_conflict`` are instance attributes resolved to either a real
    # emitter or the shared noop, so the command paths pay zero branches.
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._rebind_hooks()

    def _rebind_hooks(self) -> None:
        tracer = self._tracer
        self._emit_conflict = tracer.bank_conflict if tracer is not None else noop
        if self.record_commands or tracer is not None:
            self._log = self._log_command
        else:
            self._log = noop

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _log_command(self, kind: CommandKind, row: int, cycle: int) -> None:
        if self.record_commands:
            self.command_log.append(Command(kind, self.bank_id, row, cycle))
        tracer = self._tracer
        if tracer is not None:
            tracer.bank_command(self.bus.vault_id, self.bank_id, kind, row, cycle)

    def _earliest_precharge(self, at: int) -> int:
        """PRECHARGE may not issue before tRAS elapses after ACTIVATE."""
        return max(at, self.last_activate + self.timings.tras_cpu)

    def _data_transfer(self, column_cmd_at: int, duration: int) -> int:
        """Move data over the shared TSV bus: the transfer may begin tCL
        after the column command and must win the bus.  Returns the cycle
        the transfer completes."""
        start = self.bus.reserve(column_cmd_at + self.timings.tcl_cpu, duration)
        return start + duration

    # ------------------------------------------------------------------
    # Queries (no mutation)
    # ------------------------------------------------------------------
    def is_row_hit(self, row: int) -> bool:
        return self.open_row == row

    def classify(self, row: int) -> RowOutcome:
        """How would an access to ``row`` find the row buffer right now?"""
        if self.open_row is None:
            return RowOutcome.EMPTY
        if self.open_row == row:
            return RowOutcome.HIT
        return RowOutcome.CONFLICT

    # ------------------------------------------------------------------
    # Mutating operations
    # ------------------------------------------------------------------
    def access(self, kind: AccessKind, row: int, now: int) -> AccessResult:
        """Serve one 64 B demand access to ``row`` starting no earlier than
        ``now``.  Leaves the row open (open-page policy, Table I).

        The hottest bank entry point: row-buffer classification and the TSV
        reservation are inlined (see :meth:`classify` / ``TsvBus.reserve``
        for the reference semantics)."""
        t = self.timings
        busy = self.busy_until
        start = now if now > busy else busy
        open_row = self.open_row
        # ``_log`` resolves to the shared noop unless commands are recorded
        # or a tracer is attached; skipping the empty call keeps the common
        # path branch-only (same guard style as the emit hooks).
        log = self._log
        logging = log is not noop

        if open_row == row and open_row is not None:
            outcome = RowOutcome.HIT
            self.hits += 1
            data_start = start
        elif open_row is None:
            outcome = RowOutcome.EMPTY
            self.empties += 1
            if logging:
                log(CommandKind.ACTIVATE, row, start)
            self.acts += 1
            self.last_activate = start
            data_start = start + t.trcd_cpu
        else:
            outcome = RowOutcome.CONFLICT
            self.conflicts += 1
            self._emit_conflict(self.bus.vault_id, self.bank_id, open_row, row, start)
            tras_done = self.last_activate + t.tras_cpu
            pre_at = start if start > tras_done else tras_done
            if logging:
                log(CommandKind.PRECHARGE, open_row, pre_at)
            self.pres += 1
            act_at = pre_at + t.trp_cpu
            if logging:
                log(CommandKind.ACTIVATE, row, act_at)
            self.acts += 1
            self.last_activate = act_at
            data_start = act_at + t.trcd_cpu

        if kind is AccessKind.READ:
            if logging:
                log(CommandKind.READ, row, data_start)
            self.reads += 1
        else:
            if logging:
                log(CommandKind.WRITE, row, data_start)
            self.writes += 1

        # inline self._data_transfer(data_start, t.tburst_cpu)
        bus = self.bus
        dur = t.tburst_cpu
        earliest = data_start + t.tcl_cpu
        bus_busy = bus.busy_until
        xfer = earliest if earliest > bus_busy else bus_busy
        finish = xfer + dur
        bus.busy_until = finish
        bus.reservations += 1
        bus.busy_cycles += dur

        self.open_row = row
        self.busy_until = finish
        if self.closed_page:
            # Auto-precharge: data is returned at `finish`; the bank stays
            # busy through the precharge but the requester is not delayed.
            pre_at = self._earliest_precharge(finish)
            self._log(CommandKind.PRECHARGE, row, pre_at)
            self.pres += 1
            self.open_row = None
            self.busy_until = pre_at + t.trp_cpu
        return AccessResult(start=start, finish=finish, outcome=outcome)

    def fetch_row(self, row: int, now: int) -> AccessResult:
        """Stream the whole row into the prefetch buffer over the TSVs.

        Mirrors the paper: after the fetch the bank is precharged so the
        next access to a *different* row pays no conflict penalty.
        """
        t = self.timings
        start = max(now, self.busy_until)
        outcome = self.classify(row)
        if outcome is RowOutcome.CONFLICT:
            # Fetching a non-open row while another is open: close it first.
            # This is controller-initiated, not a demand conflict, so it does
            # not count toward the row-buffer-conflict statistic.
            pre_at = self._earliest_precharge(start)
            self._log(CommandKind.PRECHARGE, self.open_row or 0, pre_at)
            self.pres += 1
            act_at = pre_at + t.trp_cpu
            self._log(CommandKind.ACTIVATE, row, act_at)
            self.acts += 1
            self.last_activate = act_at
            stream_start = act_at + t.trcd_cpu
        elif outcome is RowOutcome.EMPTY:
            self._log(CommandKind.ACTIVATE, row, start)
            self.acts += 1
            self.last_activate = start
            stream_start = start + t.trcd_cpu
        else:
            stream_start = start

        self._log(CommandKind.ROW_FETCH, row, stream_start)
        self.row_fetches += 1
        stream_end = self._data_transfer(stream_start, t.trow_tsv_cpu)
        pre_at = self._earliest_precharge(stream_end)
        self._log(CommandKind.PRECHARGE, row, pre_at)
        self.pres += 1
        finish = pre_at + t.trp_cpu
        self.open_row = None
        self.busy_until = finish
        return AccessResult(start=start, finish=finish, outcome=outcome)

    def fetch_lines(
        self, row: int, n_lines: int, now: int, precharge_after: bool = False
    ) -> AccessResult:
        """Stream ``n_lines`` cache lines of ``row`` to the prefetch buffer.

        Used by degree-based schemes (MMD) that piggyback on the open row
        instead of moving the whole row.  Counted as column reads for energy
        purposes but tracked separately from demand reads.
        """
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        t = self.timings
        start = max(now, self.busy_until)
        outcome = self.classify(row)
        if outcome is RowOutcome.CONFLICT:
            pre_at = self._earliest_precharge(start)
            self._log(CommandKind.PRECHARGE, self.open_row or 0, pre_at)
            self.pres += 1
            act_at = pre_at + t.trp_cpu
            self._log(CommandKind.ACTIVATE, row, act_at)
            self.acts += 1
            self.last_activate = act_at
            data_start = act_at + t.trcd_cpu
        elif outcome is RowOutcome.EMPTY:
            self._log(CommandKind.ACTIVATE, row, start)
            self.acts += 1
            self.last_activate = start
            data_start = start + t.trcd_cpu
        else:
            data_start = start

        self._log(CommandKind.READ, row, data_start)
        self.prefetch_line_reads += n_lines
        finish = self._data_transfer(data_start, n_lines * t.tburst_cpu)
        self.open_row = row
        self.busy_until = finish
        if precharge_after:
            pre_at = self._earliest_precharge(finish)
            self._log(CommandKind.PRECHARGE, row, pre_at)
            self.pres += 1
            finish = pre_at + t.trp_cpu
            self.open_row = None
            self.busy_until = finish
        return AccessResult(start=start, finish=finish, outcome=outcome)

    def restore_row(self, row: int, now: int) -> AccessResult:
        """Write a dirty prefetched row back from the buffer into the bank."""
        t = self.timings
        start = max(now, self.busy_until)
        outcome = self.classify(row)
        if outcome is not RowOutcome.EMPTY and self.open_row != row:
            pre_at = self._earliest_precharge(start)
            self._log(CommandKind.PRECHARGE, self.open_row or 0, pre_at)
            self.pres += 1
            start = pre_at + t.trp_cpu
        if self.open_row != row:
            self._log(CommandKind.ACTIVATE, row, start)
            self.acts += 1
            self.last_activate = start
            start += t.trcd_cpu
        self._log(CommandKind.ROW_RESTORE, row, start)
        self.row_restores += 1
        stream_end = self.bus.reserve(start, t.trow_tsv_cpu) + t.trow_tsv_cpu + t.twr_cpu
        pre_at = self._earliest_precharge(stream_end)
        self._log(CommandKind.PRECHARGE, row, pre_at)
        self.pres += 1
        finish = pre_at + t.trp_cpu
        self.open_row = None
        self.busy_until = finish
        return AccessResult(start=max(now, 0), finish=finish, outcome=outcome)

    def refresh(self, now: int) -> int:
        """One per-bank REFRESH: close any open row, occupy the bank for
        tRFC.  Returns the cycle the bank is usable again."""
        t = self.timings
        start = max(now, self.busy_until)
        if self.open_row is not None:
            start = self._earliest_precharge(start)
            self._log(CommandKind.PRECHARGE, self.open_row, start)
            self.pres += 1
            self.open_row = None
            start += t.trp_cpu
        self._log(CommandKind.REFRESH, 0, start)
        self.refreshes += 1
        self.busy_until = start + t.trfc_cpu
        return self.busy_until

    def precharge(self, now: int) -> int:
        """Explicitly close the open row; returns the cycle the bank is ready."""
        if self.open_row is None:
            return max(now, self.busy_until)
        start = self._earliest_precharge(max(now, self.busy_until))
        self._log(CommandKind.PRECHARGE, self.open_row, start)
        self.pres += 1
        self.open_row = None
        self.busy_until = start + self.timings.trp_cpu
        return self.busy_until

    def reset_counters(self) -> None:
        """Zero the statistics counters without touching bank state (used
        for post-warmup measurement windows)."""
        self.acts = 0
        self.pres = 0
        self.reads = 0
        self.writes = 0
        self.row_fetches = 0
        self.row_restores = 0
        self.prefetch_line_reads = 0
        self.conflicts = 0
        self.hits = 0
        self.empties = 0
        self.refreshes = 0
        self.command_log.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def demand_accesses(self) -> int:
        return self.hits + self.empties + self.conflicts

    def conflict_rate(self) -> float:
        """Fraction of demand accesses that hit a row-buffer conflict."""
        n = self.demand_accesses
        return self.conflicts / n if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Bank {self.bank_id} open={self.open_row} busy_until={self.busy_until} "
            f"acc={self.demand_accesses} conf={self.conflicts}>"
        )
