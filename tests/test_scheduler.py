"""Unit tests for FR-FCFS scheduling, run through the controller's issue
loop (``VaultController._try_issue`` / ``_arm_wake``)."""

import pytest

from repro.dram.bank import AccessKind, Bank
from repro.dram.timing import DRAMTimings
from repro.request import ServiceSource
from repro.vault.queues import VaultQueues
from repro.vault.scheduler import FRFCFSScheduler
from tests.vault_harness import issue, make_vc, req


@pytest.fixture
def vc():
    return make_vc(nbanks=4, depth=8)


class TestFirstReady:
    def test_oldest_when_no_row_hits(self, vc):
        a, b = req(bank=0, row=1), req(bank=1, row=2)
        vc.queues.admit(a)
        vc.queues.admit(b)
        assert issue(vc, 0) == [a, b]

    def test_row_hit_bypasses_older(self, vc):
        banks = vc.banks
        banks[1].access(AccessKind.READ, 7, 0)  # open row 7 in bank 1
        now = banks[1].busy_until
        older = req(bank=0, row=1)
        hit = req(bank=1, row=7)
        vc.queues.admit(older)
        vc.queues.admit(hit)
        assert issue(vc, now) == [hit, older]
        assert vc.scheduler.row_hit_issues == 1
        assert vc.scheduler.fcfs_issues == 1

    def test_oldest_row_hit_wins_among_hits(self, vc):
        vc.banks[0].access(AccessKind.READ, 7, 0)
        now = vc.banks[0].busy_until
        h1, h2 = req(bank=0, row=7), req(bank=0, row=7)
        vc.queues.admit(h1)
        vc.queues.admit(h2)
        assert issue(vc, now) == [h1]  # bank 0 is busy again after h1
        assert list(vc.queues.reads) == [h2]

    def test_busy_bank_skipped(self, vc):
        vc.banks[0].access(AccessKind.READ, 1, 0)  # bank 0 busy until finish
        blocked = req(bank=0, row=1)
        ready = req(bank=1, row=2)
        vc.queues.admit(blocked)
        vc.queues.admit(ready)
        assert issue(vc, 0) == [ready]
        assert list(vc.queues.reads) == [blocked]

    def test_nothing_ready_returns_none(self, vc):
        vc.banks[0].access(AccessKind.READ, 1, 0)
        vc.queues.admit(req(bank=0, row=1))
        assert issue(vc, 0) == []

    def test_chosen_request_removed_from_queue(self, vc):
        vc.queues.admit(req(bank=0, row=1))
        issue(vc, 0)
        assert len(vc.queues.reads) == 0


class TestReadWritePriority:
    def test_reads_before_writes(self, vc):
        w = req(bank=0, row=1, write=True)
        r = req(bank=1, row=2, write=False)
        vc.queues.admit(w)
        vc.queues.admit(r)
        assert issue(vc, 0) == [r, w]

    def test_writes_issue_when_no_reads(self, vc):
        w = req(bank=0, row=1, write=True)
        vc.queues.admit(w)
        assert issue(vc, 0) == [w]

    def test_drain_mode_flips_priority(self):
        vc = make_vc(nbanks=4, depth=3)  # watermarks: high 2, low 0
        r = req(bank=1, row=9)
        w1, w2 = req(bank=0, row=1, write=True), req(bank=0, row=2, write=True)
        for x in (r, w1, w2):
            vc.queues.admit(x)
        # draining: the older read waits for the first write; w2 then finds
        # bank 0 busy and the read issues as the fallback direction
        assert issue(vc, 0) == [w1, r]
        assert vc.scheduler.draining

    def test_drain_mode_exits_at_low_watermark(self):
        vc = make_vc(nbanks=4, depth=3)  # watermarks: high 2, low 0
        w1, w2 = req(bank=0, row=1, write=True), req(bank=1, row=2, write=True)
        vc.queues.admit(w1)
        vc.queues.admit(w2)
        assert issue(vc, 0) == [w1, w2]
        # write queue empty -> below the low watermark: back to reads
        assert not vc.scheduler.draining
        assert vc.scheduler.drain_entries == 1
        r = req(bank=2, row=3)
        vc.queues.admit(r)
        assert issue(vc, 0) == [r]
        assert not vc.scheduler.draining

    def test_watermark_validation(self):
        t = DRAMTimings()
        banks = [Bank(0, t)]
        q = VaultQueues(8, 8)
        with pytest.raises(ValueError):
            FRFCFSScheduler(banks, q, write_high_watermark=1, write_low_watermark=5)


class TestWakeup:
    def test_earliest_wakeup_none_when_empty(self, vc):
        assert issue(vc, 0) == []
        assert vc._wake is None

    def test_earliest_wakeup_none_when_issueable(self, vc):
        vc.queues.admit(req(bank=0, row=1))
        vc._arm_wake()  # bank 0 is idle: issue now, not later
        assert vc._wake is None

    def test_earliest_wakeup_min_busy_until(self, vc):
        banks = vc.banks
        banks[0].access(AccessKind.READ, 1, 0)
        banks[1].access(AccessKind.READ, 1, 0)
        banks[1].access(AccessKind.READ, 1, 0)  # bank 1 busy longer
        vc.queues.admit(req(bank=0, row=1))
        vc.queues.admit(req(bank=1, row=1))
        assert issue(vc, 0) == []
        time, seq = vc._wake
        assert time == banks[0].busy_until
        (entry,) = [e for e in vc.engine.live_events() if e[2] == seq]
        assert entry[:2] == (time, 1)  # priority 1

    def test_earlier_horizon_replaces_pending_wake(self, vc):
        banks = vc.banks
        banks[0].access(AccessKind.READ, 1, 0)
        banks[1].access(AccessKind.READ, 1, 0)
        banks[1].access(AccessKind.READ, 1, 0)  # bank 1 busy longer
        late = req(bank=1, row=1)
        vc.queues.admit(late)
        issue(vc, 0)
        first_time, first_seq = vc._wake
        assert first_time == banks[1].busy_until
        early = req(bank=0, row=1)
        vc.queues.admit(early)
        issue(vc, 0)
        # cancel-then-reschedule: one live wake, at the earlier horizon
        assert first_seq not in {e[2] for e in vc.engine.live_events()}
        assert vc._wake[0] == banks[0].busy_until
        assert vc.engine.pending == 1
        vc.engine.run()
        assert not vc.queues.reads
        assert early.source is late.source is ServiceSource.BANK
