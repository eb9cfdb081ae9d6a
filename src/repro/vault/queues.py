"""Bounded read/write request queues for a vault controller.

Table I specifies 32-entry read and write queues per vault.  Arrivals beyond
capacity wait in an input staging FIFO (modeling link-side backpressure) and
are promoted as the scheduler drains the bounded queues.  Occupancy highs and
admission stalls are tracked for reporting.

Beyond the FIFO deques (the public, test-visible representation), the queues
maintain per-bank and per-(bank, row) buckets updated on every place/remove.
The FR-FCFS scheduler's first-ready scan then touches only banks that have
pending work - O(occupied banks) instead of O(queue x banks) - and the
row-hit fast path is a single dict probe per open row.  Admission order is
stamped into ``req.qseq`` so bucket heads can be compared oldest-first
without consulting the FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.request import MemoryRequest


class VaultQueues:
    """Read queue + write queue + overflow staging for one vault."""

    def __init__(self, read_depth: int = 32, write_depth: int = 32) -> None:
        if read_depth < 1 or write_depth < 1:
            raise ValueError("queue depths must be >= 1")
        self.read_depth = read_depth
        self.write_depth = write_depth
        self.reads: Deque[MemoryRequest] = deque()
        self.writes: Deque[MemoryRequest] = deque()
        self.staging: Deque[MemoryRequest] = deque()
        # scheduler-facing indexes, maintained alongside the FIFOs; keys are
        # deleted when a bucket empties so iteration touches only live banks
        self.reads_by_bank: Dict[int, Deque[MemoryRequest]] = {}
        self.writes_by_bank: Dict[int, Deque[MemoryRequest]] = {}
        self.reads_by_row: Dict[Tuple[int, int], Deque[MemoryRequest]] = {}
        self.writes_by_row: Dict[Tuple[int, int], Deque[MemoryRequest]] = {}
        self._qseq = 0
        # statistics
        self.admitted = 0
        self.staged = 0
        self.max_read_occupancy = 0
        self.max_write_occupancy = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, req: MemoryRequest) -> bool:
        """Try to place a request into its bounded queue.  Returns False (and
        stages the request) when the queue is full."""
        if self._try_place(req):
            return True
        self.staging.append(req)
        self.staged += 1
        return False

    def _try_place(self, req: MemoryRequest) -> bool:
        if req.is_write:
            if len(self.writes) >= self.write_depth:
                return False
            self.writes.append(req)
            if len(self.writes) > self.max_write_occupancy:
                self.max_write_occupancy = len(self.writes)
            by_bank, by_row = self.writes_by_bank, self.writes_by_row
        else:
            if len(self.reads) >= self.read_depth:
                return False
            self.reads.append(req)
            if len(self.reads) > self.max_read_occupancy:
                self.max_read_occupancy = len(self.reads)
            by_bank, by_row = self.reads_by_bank, self.reads_by_row
        self._qseq += 1
        req.qseq = self._qseq
        bank = req.bank
        bucket = by_bank.get(bank)
        if bucket is None:
            by_bank[bank] = bucket = deque()
        bucket.append(req)
        key = (bank, req.row)
        rbucket = by_row.get(key)
        if rbucket is None:
            by_row[key] = rbucket = deque()
        rbucket.append(req)
        self.admitted += 1
        return True

    def promote(self) -> int:
        """Move staged requests into the bounded queues, in order, while
        space allows.  Returns how many were promoted."""
        if not self.staging:
            return 0
        moved = 0
        # Requests must not leapfrog same-direction requests in staging, so
        # stop promoting a direction at its first blocked request.
        blocked_read = False
        blocked_write = False
        remaining: Deque[MemoryRequest] = deque()
        while self.staging:
            req = self.staging.popleft()
            if req.is_write:
                if not blocked_write and self._try_place(req):
                    moved += 1
                    continue
                blocked_write = True
            else:
                if not blocked_read and self._try_place(req):
                    moved += 1
                    continue
                blocked_read = True
            remaining.append(req)
        self.staging = remaining
        return moved

    # ------------------------------------------------------------------
    # Removal (the scheduler pops by identity after choosing)
    # ------------------------------------------------------------------
    def remove(self, req: MemoryRequest) -> None:
        q = self.writes if req.is_write else self.reads
        # FCFS picks remove the FIFO head; only row-hit bypasses pay the
        # positional scan.
        if q and q[0] is req:
            q.popleft()
        else:
            try:
                q.remove(req)
            except ValueError:
                raise ValueError(f"request {req!r} not queued") from None
        if req.is_write:
            by_bank, by_row = self.writes_by_bank, self.writes_by_row
        else:
            by_bank, by_row = self.reads_by_bank, self.reads_by_row
        bank = req.bank
        bucket = by_bank[bank]
        # The scheduler nearly always removes a bucket head (oldest wins);
        # fall back to positional removal for mid-bucket picks (row hits
        # bypassing older same-bank requests).
        if bucket[0] is req:
            bucket.popleft()
        else:
            bucket.remove(req)
        if not bucket:
            del by_bank[bank]
        key = (bank, req.row)
        rbucket = by_row[key]
        if rbucket[0] is req:
            rbucket.popleft()
        else:
            rbucket.remove(req)
        if not rbucket:
            del by_row[key]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.reads) + len(self.writes) + len(self.staging)

    @property
    def total_pending(self) -> int:
        return len(self)

    def count_row_reads(self, bank: int, row: int) -> int:
        """Read-queue requests targeting (bank, row) - BASE-HIT's signal."""
        bucket = self.reads_by_row.get((bank, row))
        return len(bucket) if bucket is not None else 0

    def oldest_read(self) -> Optional[MemoryRequest]:
        return self.reads[0] if self.reads else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VaultQueues R={len(self.reads)}/{self.read_depth} "
            f"W={len(self.writes)}/{self.write_depth} "
            f"staged={len(self.staging)}>"
        )
