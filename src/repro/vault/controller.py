"""The vault controller: where the paper's scheme actually lives.

A vault controller owns 16 banks, bounded read/write queues, an FR-FCFS
scheduler and - per the paper - the prefetch engine: a 16-entry row-granular
prefetch buffer plus whatever scheme-specific tables the bound
:class:`~repro.core.prefetcher.Prefetcher` carries (RUT/CT for CAMPS).

Event flow per demand request:

1. ``receive(req)`` at the request's vault-arrival cycle.  The prefetch
   buffer is probed first (22-cycle hit latency, Table I); hits never touch
   a bank.
2. Misses enter the bounded queues; ``_try_issue`` lets every idle bank
   accept its best FR-FCFS candidate.
3. ``_access_done`` fires when a bank access completes: the prefetcher hook
   runs, returned row fetches execute on the banks (internal TSV transfers,
   never the external links), the response is handed back to the device, and
   issuing continues.

The controller schedules at most one "wake" event at a time (the earliest
cycle a queued request's bank frees), so the event count stays ~2-3 per
request regardless of queue depth.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional, Tuple

from repro.core.buffer import PrefetchBuffer
from repro.core.prefetcher import PrefetchAction, Prefetcher
from repro.dram.bank import AccessKind, AccessResult, Bank
from repro.dram.bus import TsvBus
from repro.hmc.config import HMCConfig
from repro.obs.hooks import noop
from repro.request import MemoryRequest, ServiceSource
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup
from repro.vault.queues import VaultQueues
from repro.vault.scheduler import FRFCFSScheduler

RespondFn = Callable[[MemoryRequest, int], None]


def _popcount(x: int) -> int:
    return x.bit_count()


class VaultController:
    """One vault's controller, scheduler and prefetch engine."""

    def __init__(
        self,
        vault_id: int,
        config: HMCConfig,
        engine: Engine,
        prefetcher: Prefetcher,
        respond_fn: RespondFn,
        record_commands: bool = False,
    ) -> None:
        self.vault_id = vault_id
        self.config = config
        self.engine = engine
        self._respond_fn = respond_fn
        # All banks in a vault share one TSV data bundle to the logic base;
        # whole-row prefetch transfers and demand bursts contend for it.
        self.tsv_bus = TsvBus(vault_id)
        self.banks: List[Bank] = [
            Bank(
                i,
                config.timings,
                record_commands=record_commands,
                bus=self.tsv_bus,
                closed_page=config.page_policy == "closed",
            )
            for i in range(config.banks_per_vault)
        ]
        self.queues = VaultQueues(
            read_depth=config.read_queue_depth,
            write_depth=config.write_queue_depth,
        )
        self.scheduler = FRFCFSScheduler(self.banks, self.queues)
        self.prefetcher = prefetcher
        prefetcher.bind(self)
        # The base Prefetcher.on_buffer_hit is a documented no-op; resolve
        # that once so the buffer-hit path never pays the empty call.  Any
        # subclass override is bound here and called normally.
        obh = prefetcher.on_buffer_hit
        self._on_buffer_hit = (
            None if getattr(obh, "__func__", None) is Prefetcher.on_buffer_hit else obh
        )
        self.buffer: Optional[PrefetchBuffer] = None
        if prefetcher.uses_buffer:
            self.buffer = PrefetchBuffer(
                entries=config.pf_buffer_entries,
                lines_per_row=config.lines_per_row,
                policy=prefetcher.make_policy(),
            )
        #: instrumentation sites (repro.obs.hooks): rebound once per tracer
        #: assignment so hot paths never branch on tracer presence
        self._tracer = None
        self._rebind_hooks()
        self._pf_hit_latency = config.pf_hit_latency
        self.stats = StatGroup(f"vault{vault_id}")
        self._c_reads = self.stats.counter("demand_reads")
        self._c_writes = self.stats.counter("demand_writes")
        self._c_buf_hits = self.stats.counter("buffer_hits")
        self._c_buf_inflight = self.stats.counter("buffer_inflight_hits")
        self._c_prefetch_rows = self.stats.counter("prefetch_row_fetches")
        self._c_prefetch_lines = self.stats.counter("prefetch_lines")
        self._c_writebacks = self.stats.counter("dirty_row_writebacks")
        #: ``(time, seq)`` of the pending wake entry, or None
        self._wake: Optional[Tuple[int, int]] = None
        self._inflight = 0  # bank accesses with a pending completion event
        # _try_issue context pack: every object here is bound once (at
        # construction) and only ever mutated in place, so the tuple stays
        # current; one attribute read + a C-level unpack replaces a dozen
        # attribute chains in the issue-loop prologue.
        q = self.queues
        sched = self.scheduler
        self._issue_ctx = (
            sched,
            q.reads_by_bank,
            q.writes_by_bank,
            q.reads_by_row,
            q.writes_by_row,
            q.writes,
            sched.write_low,
            sched.write_high,
            self.banks,
            engine._heap,
            q.promote,
            self._access_done,
            q.remove,
        )
        self._wake_ctx = (
            engine,
            q.reads_by_bank,
            q.writes_by_bank,
            self.banks,
            self._wake_fired,
        )
        self._rebuild_hot_ctx()
        if config.refresh_enabled:
            # Stagger per-bank refreshes across the tREFI window so the
            # vault never refreshes every bank at once.
            step = max(1, config.timings.trefi_cpu // config.banks_per_vault)
            for i in range(config.banks_per_vault):
                engine.schedule(
                    (i + 1) * step, self._refresh_bank, i, priority=2, weak=True
                )

    # ------------------------------------------------------------------
    # Instrumentation (see repro.obs.hooks)
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        if tracer is not None:
            self._emit_pf_hit = tracer.prefetch_hit
            self._emit_pf_issue = tracer.prefetch_issue
            self._emit_pf_fill = tracer.prefetch_fill
            self._emit_pf_evict = tracer.prefetch_evict
            self._emit_buf_replace = tracer.buffer_replace
        else:
            self._rebind_hooks()
        # A host-time split charges the prefetch engine's decide and execute
        # steps to "prefetcher"; the untraced path keeps the plain methods.
        vars(self).pop("_execute_prefetch", None)
        if self._times_prefetcher():
            self._execute_prefetch = tracer.timed("prefetcher", self._execute_prefetch)
        self._rebuild_hot_ctx()

    def _times_prefetcher(self) -> bool:
        """True when a spans tracer is set and the scheme can prefetch (a
        scheme without a buffer leaves its no-op hook inside ``vault``)."""
        tracer = self._tracer
        return tracer is not None and tracer.engine_spans and self.buffer is not None

    def _rebind_hooks(self) -> None:
        self._emit_pf_hit = noop
        self._emit_pf_issue = noop
        self._emit_pf_fill = noop
        self._emit_pf_evict = noop
        self._emit_buf_replace = noop

    # ------------------------------------------------------------------
    # External interface (called by the HMC device)
    # ------------------------------------------------------------------
    @property
    def respond_fn(self) -> RespondFn:
        return self._respond_fn

    @respond_fn.setter
    def respond_fn(self, fn: RespondFn) -> None:
        # The host rewires the completion path after construction
        # (HMCDevice.set_deliver_fn); the hot-path context packs embed the
        # fn, so they are rebuilt on every rebind.
        self._respond_fn = fn
        self._rebuild_hot_ctx()

    def _rebuild_hot_ctx(self) -> None:
        """(Re)build the receive/_access_done context packs.

        Everything else in the packs is bound once at construction and only
        mutated in place; ``respond_fn`` is the one late-bound member.
        """
        buf = self.buffer
        self._recv_ctx = (
            self.engine,
            buf,
            buf._entries if buf is not None else None,
            self._pf_hit_latency,
            self._respond_fn,
            self.queues.admit,
            self._c_buf_hits,
            self._c_buf_inflight,
            self._on_buffer_hit,
        )
        decide = self.prefetcher.on_demand_access
        if self._times_prefetcher():
            decide = self._tracer.timed("prefetcher", decide)
        self._done_ctx = (
            self.engine,
            decide,
            self._respond_fn,
            self._c_reads,
            self._c_writes,
        )

    def receive(self, req: MemoryRequest) -> None:
        """A request packet arrived from the crossbar at ``engine.now``."""
        (
            engine,
            buf,
            buf_entries,
            pf_hit_latency,
            respond_fn,
            admit,
            c_buf_hits,
            c_buf_inflight,
            obh,
        ) = self._recv_ctx
        now = engine.now
        req.vault_arrive_cycle = now
        if buf is not None:
            # PrefetchBuffer.lookup inlined (buffer.py keeps the reference
            # implementation): the probe runs once per demand packet, and
            # the miss half is one dict get plus a bit test.  ``_entries``
            # is bound once in PrefetchBuffer.__init__ and only mutated in
            # place, so probing it directly is safe.
            entry = buf_entries.get((req.bank, req.row))
            bit = 1 << req.column
            if entry is None or not (entry.valid_mask & bit):
                buf.misses += 1
                entry = None
            else:
                buf.hits += 1
                if not (entry.served_mask & bit):
                    entry.served_mask |= bit
                    buf.lines_used += 1
                entry.ref_mask |= bit
                entry.accesses += 1
                if req.is_write:
                    entry.dirty_mask |= bit
                buf._make_mru(entry, entry.recency)
            if entry is not None:
                ready = entry.ready_time
                in_flight = ready > now
                if in_flight:
                    req.source = ServiceSource.ROW_IN_FLIGHT
                    c_buf_inflight.value += 1
                else:
                    req.source = ServiceSource.PREFETCH_BUFFER
                c_buf_hits.value += 1
                emit = self._emit_pf_hit
                if emit is not noop:
                    emit(
                        self.vault_id,
                        req.bank,
                        req.row,
                        entry.provenance,
                        now,
                        in_flight=in_flight,
                    )
                if obh is not None:
                    obh(req.bank, req.row, req.column, req.is_write, now)
                serve = (ready if ready > now else now) + pf_hit_latency
                respond_fn(req, serve)
                return
        admit(req)
        self._try_issue()

    def pending_row_requests(self, bank: int, row: int) -> int:
        """Read-queue occupancy for one row (the BASE-HIT trigger input)."""
        return self.queues.count_row_reads(bank, row)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _refresh_bank(self, bank_id: int) -> None:
        """Per-bank REFRESH, re-armed every tREFI (paper Section 2.1: the
        vault controller manages refreshing)."""
        self.banks[bank_id].refresh(self.engine.now)
        self.engine.schedule(
            self.config.timings.trefi_cpu,
            self._refresh_bank,
            bank_id,
            priority=2,
            weak=True,
        )
        self._arm_wake()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _try_issue(self) -> None:
        """FR-FCFS issue loop (the simulator's only implementation): every
        idle bank with work accepts its best candidate, one slot per
        iteration, until nothing can issue.

        The scan runs over :class:`~repro.vault.queues.VaultQueues`' per-bank
        buckets instead of the whole FIFO: only banks with pending work are
        visited, a row hit is one ``(bank, open_row)`` dict probe, and
        oldest-first ties are broken by the admission stamp ``req.qseq``.
        This is order-identical to the naive FIFO scan: the naive scan
        returns the minimum-``qseq`` ready row hit, else the minimum-``qseq``
        ready request, and both minima distribute over the per-bank
        partition (each bucket is ``qseq``-sorted, so bucket heads are the
        only candidates the global minimum can come from).
        ``tests/test_frfcfs_edges.py`` checks this against that naive scan.
        :class:`FRFCFSScheduler` holds the drain state and issue counters.
        """
        engine = self.engine
        now = engine.now
        # See _issue_ctx for why the packed aliases stay current.
        (
            sched,
            rbb,
            wbb,
            rbr,
            wbr,
            writes_q,
            wlow,
            whigh,
            banks,
            heap,
            promote,
            access_done,
            remove,
        ) = self._issue_ctx
        if not rbb and not wbb:
            # Nothing queued: no pick, no promote (staging implies a full
            # queue), no wake to arm.  Only a pending write-drain *exit* can
            # matter here (entry needs a non-empty write queue), and it is
            # resolved identically now or at the next non-empty call.
            if sched.draining:
                sched._update_drain_state(now)
            return
        q = self.queues
        read, write = AccessKind.READ, AccessKind.WRITE
        issued = 0
        while True:
            # Write-drain hysteresis: most iterations cross neither
            # watermark and pay two comparisons (_update_drain_state keeps
            # the transition semantics).
            pending_writes = len(writes_q)
            if sched.draining:
                if pending_writes <= wlow:
                    sched._update_drain_state(now)
            elif pending_writes >= whigh:
                sched._update_drain_state(now)
            # FR-FCFS pick over the preferred direction, then the other:
            # oldest ready row-hit, else oldest ready, scanning only banks
            # with pending work.  Two copies - preferred direction then
            # fallback - so no per-slot direction tuples are built.
            if sched.draining:
                by_bank, by_row = wbb, wbr
            else:
                by_bank, by_row = rbb, rbr
            req = best_ready = None
            for bank_id, bucket in by_bank.items():
                bank = banks[bank_id]
                if bank.busy_until > now:
                    continue
                open_row = bank.open_row
                if open_row is not None:
                    hits = by_row.get((bank_id, open_row))
                    if hits is not None:
                        cand = hits[0]
                        if req is None or cand.qseq < req.qseq:
                            req = cand
                        # any row hit makes the ready fallback moot, so
                        # this bank's head need not compete for it
                        continue
                cand = bucket[0]
                if best_ready is None or cand.qseq < best_ready.qseq:
                    best_ready = cand
            if req is None:
                req = best_ready
            if req is None:
                if sched.draining:
                    by_bank, by_row = rbb, rbr
                else:
                    by_bank, by_row = wbb, wbr
                for bank_id, bucket in by_bank.items():
                    bank = banks[bank_id]
                    if bank.busy_until > now:
                        continue
                    open_row = bank.open_row
                    if open_row is not None:
                        hits = by_row.get((bank_id, open_row))
                        if hits is not None:
                            cand = hits[0]
                            if req is None or cand.qseq < req.qseq:
                                req = cand
                            continue
                    cand = bucket[0]
                    if best_ready is None or cand.qseq < best_ready.qseq:
                        best_ready = cand
                if req is None:
                    req = best_ready
            if req is None:
                break
            # NOTE: the buffer is probed at request *arrival* only (receive).
            # A request that missed and entered the queue is committed to the
            # bank path even if its row is prefetched meanwhile - this
            # mirrors the paper's design and is why BASE-HIT's queue-triggered
            # prefetches are largely wasted there (Fig. 7).
            bank = banks[req.bank]
            if bank.open_row == req.row:
                sched.row_hit_issues += 1
            else:
                sched.fcfs_issues += 1
            remove(req)
            result = bank.access(write if req.is_write else read, req.row, now)
            issued += 1
            # Engine.call_at inlined (the method stays the reference):
            # result.finish is structurally >= now, priority -1 orders the
            # completion ahead of same-cycle arrivals exactly as before.
            engine._seq = seq = engine._seq + 1
            heappush(heap, (result.finish, -1, seq, access_done, (req, result)))
            engine._strong += 1
            if q.staging:
                promote()
            if not rbb and not wbb:
                # Queues drained mid-scan: eager drain exit only, as on the
                # empty path at the top.
                if sched.draining:
                    sched._update_drain_state(now)
                break
        self._inflight += issued
        if q.staging:
            promote()
        self._arm_wake()

    def _arm_wake(self) -> None:
        """Keep exactly one wake event at the earliest useful cycle.

        A completion event re-runs _try_issue anyway, but a wake is still
        needed while banks are busy solely due to prefetch transfers (which
        have no completion events) - so the timer is armed unconditionally.
        """
        engine, rb, wb, banks, wake_fired = self._wake_ctx
        if not rb and not wb:
            return  # nothing queued: no wake needed
        # Soonest busy-until among banks with work; bail out when some such
        # bank is already idle (issuing happens now, not later).
        now = engine.now
        t = None
        for bank_id in rb:
            b = banks[bank_id].busy_until
            if b <= now:
                return  # issueable right now; no timer needed
            if t is None or b < t:
                t = b
        for bank_id in wb:
            b = banks[bank_id].busy_until
            if b <= now:
                return
            if t is None or b < t:
                t = b
        wake = self._wake
        if wake is not None:
            if wake[0] <= t:
                return
            engine.cancel(wake[1])
        self._wake = (t, engine.call_at(t, wake_fired, priority=1))

    def _wake_fired(self) -> None:
        self._wake = None
        self._try_issue()

    # ------------------------------------------------------------------
    # Completion + prefetch execution
    # ------------------------------------------------------------------
    def _access_done(self, req: MemoryRequest, result: AccessResult) -> None:
        engine, on_demand_access, respond_fn, c_reads, c_writes = self._done_ctx
        now = engine.now
        self._inflight -= 1
        if req.is_write:
            c_writes.value += 1
        else:
            c_reads.value += 1
        req.source = ServiceSource.BANK

        actions = on_demand_access(
            req.bank, req.row, req.column, req.is_write, result.outcome, now
        )
        if actions:
            for action in actions:
                self._execute_prefetch(action, now)

        respond_fn(req, now)
        self._try_issue()

    def _execute_prefetch(self, action: PrefetchAction, now: int) -> None:
        if self.buffer is None:
            return
        self._emit_pf_issue(
            self.vault_id, action.bank, action.row, action.provenance, now
        )
        bank = self.banks[action.bank]
        full = (1 << self.config.lines_per_row) - 1
        if action.line_mask == full:
            result = bank.fetch_row(action.row, now)
        else:
            result = bank.fetch_lines(
                action.row,
                _popcount(action.line_mask),
                now,
                precharge_after=action.precharge_after,
            )
        self._c_prefetch_rows.inc()
        self._c_prefetch_lines.inc(_popcount(action.line_mask))
        victim = self.buffer.insert(
            action.bank,
            action.row,
            action.line_mask,
            result.finish,
            now,
            provenance=action.provenance,
        )
        if action.seed_ref_mask:
            entry = self.buffer.get(action.bank, action.row)
            if entry is not None:
                entry.seed_ref(action.seed_ref_mask)
        self._emit_pf_fill(
            self.vault_id,
            action.bank,
            action.row,
            action.provenance,
            now,
            result.finish,
        )
        if victim is not None:
            self._emit_buf_replace(
                self.vault_id,
                action.bank,
                action.row,
                victim.bank,
                victim.row,
                self.buffer.policy.name,
                now,
            )
            self._emit_pf_evict(
                self.vault_id,
                victim.bank,
                victim.row,
                victim.provenance,
                victim.was_used,
                victim.utilization,
                now,
            )
        if victim is not None and victim.is_dirty:
            # Dirty prefetched rows are restored to their bank on eviction.
            self.banks[victim.bank].restore_row(victim.row, now)
            self._c_writebacks.inc()

    # ------------------------------------------------------------------
    # End-of-run reporting
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero all measurement counters (banks, buffer, scheduler, bus)
        while preserving simulation state - the warmup boundary."""
        self.stats.reset()
        for b in self.banks:
            b.reset_counters()
        if self.buffer is not None:
            self.buffer.reset_accounting()
        self.prefetcher.prefetches_issued = 0
        self.scheduler.row_hit_issues = 0
        self.scheduler.fcfs_issues = 0
        self.scheduler.drain_entries = 0
        self.scheduler.drain_cycles = 0
        self.tsv_bus.reservations = 0
        self.tsv_bus.busy_cycles = 0

    def finalize(self) -> None:
        """Flush accuracy accounting for rows still resident in the buffer."""
        if self.buffer is not None:
            self.buffer.finalize()

    @property
    def demand_accesses(self) -> int:
        """Bank-level demand accesses (buffer hits excluded)."""
        return sum(b.demand_accesses for b in self.banks)

    @property
    def row_conflicts(self) -> int:
        return sum(b.conflicts for b in self.banks)

    def conflict_rate(self) -> float:
        """Row-buffer conflicts per *demand request to the vault*, buffer
        hits included in the denominator: serving a request from the
        prefetch buffer is precisely how a scheme avoids a conflict, so the
        rate is measured against all traffic the vault absorbed."""
        total = self.demand_accesses + self._c_buf_hits.value
        return self.row_conflicts / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VaultController {self.vault_id} scheme={self.prefetcher.name} "
            f"pending={len(self.queues)}>"
        )
