"""FR-FCFS edge cases: exact watermark transitions, oldest-first tie-breaks,
and randomized equivalence of the controller's issue loop against a naive
oracle.

``VaultController._try_issue`` scans per-bank buckets; its claim (its
docstring and ``docs/INTERNALS.md``) is order-identity with
the naive whole-FIFO scan: oldest ready row hit, else oldest ready
request, with write-drain hysteresis deciding direction priority,
repeated until nothing more can issue.  The oracle here *is* that naive
scan, run on a twin set of banks and queues fed the same randomized
admission stream; each ``_try_issue`` call must issue exactly the
requests the oracle issues, in the same order.
"""

import random

import pytest

from repro.dram.bank import AccessKind, Bank
from repro.dram.bus import TsvBus
from repro.vault.queues import VaultQueues
from tests.vault_harness import issue, make_vc, req


# ----------------------------------------------------------------------
# Exact watermark transitions
# ----------------------------------------------------------------------
class TestWatermarkEdges:
    def test_drain_enters_exactly_at_high(self):
        vc = make_vc(depth=4)  # watermarks: high 3, low 1
        q, s = vc.queues, vc.scheduler
        vc.banks[3].access(AccessKind.READ, 0, 0)  # bank 3 busy: parks a write
        q.admit(req(bank=3, write=True))
        # an older write and a younger read on the same idle bank
        w0, r0 = req(bank=0, write=True), req(bank=0)
        q.admit(w0)
        q.admit(r0)
        # two writes pending, one below the high watermark: the read wins
        assert issue(vc, 0) == [r0]
        assert not s.draining and s.drain_entries == 0
        w1, r1 = req(bank=1, write=True), req(bank=1)
        q.admit(w1)
        q.admit(r1)
        # pending writes == high: drain begins on this very call
        assert issue(vc, 0) == [w1]
        assert s.draining and s.drain_entries == 1

    def test_drain_exits_exactly_at_low(self):
        vc = make_vc(depth=4)  # watermarks: high 3, low 1
        writes = [req(bank=b, write=True) for b in range(3)]
        for w in writes:
            vc.queues.admit(w)
        r = req(bank=3)
        vc.queues.admit(r)
        # 3 == high: drain, oldest write first; 2 pending: still draining;
        # 1 pending == low: exit, the read regains priority; the last
        # write issues only after it
        assert issue(vc, 0) == [writes[0], writes[1], r, writes[2]]
        assert not vc.scheduler.draining
        assert vc.scheduler.drain_entries == 1

    def test_drain_exits_on_empty_queues(self):
        vc = make_vc(depth=2)  # watermarks: high 1, low 0
        w = req(bank=0, write=True)
        vc.queues.admit(w)
        # enters drain for the one write; the queues then empty mid-loop
        # and the exit runs before the call returns
        assert issue(vc, 0) == [w]
        assert not vc.scheduler.draining
        assert vc.scheduler.drain_entries == 1


# ----------------------------------------------------------------------
# Oldest-first tie-breaks among equally ready banks
# ----------------------------------------------------------------------
class TestOldestFirst:
    def test_admission_order_wins_across_banks(self):
        vc = make_vc(depth=8)
        reqs = [req(bank=b, row=b) for b in (2, 0, 3, 1)]
        for r in reqs:
            vc.queues.admit(r)
        # all banks idle, no open rows: issue order is admission order,
        # regardless of bank numbering
        assert issue(vc, 0) == reqs

    def test_oldest_row_hit_wins_among_equally_ready_hits(self):
        vc = make_vc(depth=8)
        banks = vc.banks
        banks[1].access(AccessKind.READ, 7, 0)
        banks[2].access(AccessKind.READ, 7, 0)
        now = max(banks[1].busy_until, banks[2].busy_until)
        older_miss = req(bank=0, row=0)
        older_hit = req(bank=2, row=7)
        younger_hit = req(bank=1, row=7)
        for r in (older_miss, older_hit, younger_hit):
            vc.queues.admit(r)
        # both hits are ready; the older hit wins, bypassing the oldest
        # (non-hit) request entirely
        assert issue(vc, now) == [older_hit, younger_hit, older_miss]


# ----------------------------------------------------------------------
# Randomized equivalence against the naive whole-FIFO oracle
# ----------------------------------------------------------------------
class NaiveVault:
    """The naive FR-FCFS scan the controller claims identity with.

    Own banks (sharing one TSV bus, as a vault's do) and queues; the queues'
    per-bank indexes are never read, only the FIFOs.  :meth:`issue_all`
    follows ``_try_issue``'s decision order: empty queues end any drain,
    then hysteresis, then oldest-ready-hit-else-oldest-ready over the
    prioritized direction, repeated until nothing is ready.
    """

    def __init__(self, timings, nbanks, depth, high, low):
        bus = TsvBus(0)
        self.banks = [Bank(i, timings, bus=bus) for i in range(nbanks)]
        self.q = VaultQueues(depth, depth)
        self.high, self.low = high, low
        self.draining = False
        self.drain_entries = 0

    def _scan(self, fifo, now):
        first_hit = None
        first_ready = None
        for r in fifo:  # FIFO order == age order
            bank = self.banks[r.bank]
            if bank.busy_until > now:
                continue
            if bank.open_row is not None and bank.open_row == r.row:
                if first_hit is None:
                    first_hit = r
            elif first_ready is None:
                first_ready = r
        return first_hit if first_hit is not None else first_ready

    def pick(self, now):
        q = self.q
        if not q.reads and not q.writes:
            self.draining = False  # 0 <= low always holds
            return None
        pending_writes = len(q.writes)
        if self.draining:
            if pending_writes <= self.low:
                self.draining = False
        elif pending_writes >= self.high:
            self.draining = True
            self.drain_entries += 1
        if self.draining:
            return self._scan(q.writes, now) or self._scan(q.reads, now)
        return self._scan(q.reads, now) or self._scan(q.writes, now)

    def issue_all(self, now):
        out = []
        while True:
            r = self.pick(now)
            if r is None:
                return out
            self.q.remove(r)
            kind = AccessKind.WRITE if r.is_write else AccessKind.READ
            self.banks[r.bank].access(kind, r.row, now)
            out.append(r)


def run_equivalence(seed, steps=400, nbanks=8, depth=12):
    """Returns ``(drain entries, issue calls where more than one ready row
    hit competed)`` so callers can check the stream reached both edges."""
    rng = random.Random(seed)
    vc = make_vc(nbanks=nbanks, depth=depth, read_depth=depth)
    sched = vc.scheduler
    oracle = NaiveVault(
        vc.config.timings, nbanks, depth, sched.write_high, sched.write_low
    )
    twin = {}  # oracle request -> controller request
    now = 0
    issued = 0
    contested = 0
    for _ in range(steps):
        for _ in range(rng.randrange(4)):
            write = rng.random() < 0.45
            fifo = vc.queues.writes if write else vc.queues.reads
            if len(fifo) >= depth:
                continue  # keep staging out of play: the oracle scans FIFOs
            bank, row = rng.randrange(nbanks), rng.randrange(4)
            mine, theirs = req(bank, row, write), req(bank, row, write)
            vc.queues.admit(mine)
            oracle.q.admit(theirs)
            twin[theirs] = mine
        ready_hit_banks = sum(
            1
            for b, bank in enumerate(vc.banks)
            if bank.busy_until <= now
            and (b, bank.open_row) in vc.queues.reads_by_row
        )
        contested += ready_hit_banks > 1
        expected = [twin[r] for r in oracle.issue_all(now)]
        got = issue(vc, now)
        assert got == expected, (
            f"seed={seed} t={now}: controller issued {got!r}, oracle {expected!r}"
        )
        assert sched.draining == oracle.draining
        assert sched.drain_entries == oracle.drain_entries
        issued += len(got)
        # advance unevenly: sometimes stay in-cycle (banks busy), sometimes
        # jump past every busy horizon
        if rng.random() < 0.6:
            now += rng.randrange(0, 12)
        else:
            now += rng.randrange(0, 120)
    assert not vc.queues.staging
    assert issued > steps // 8, f"seed={seed}: degenerate stream ({issued} issues)"
    return oracle.drain_entries, contested


@pytest.mark.parametrize("seed", range(8))
def test_indexed_matches_naive_oracle(seed):
    run_equivalence(seed)


def test_randomized_streams_exercise_drain_mode():
    """The equivalence streams must actually cross the watermarks and pit
    ready row hits against each other, or the drain-direction half and the
    oldest-hit tie-break of the oracle are dead code."""
    runs = [run_equivalence(seed, steps=250) for seed in range(100, 104)]
    assert sum(drains for drains, _ in runs) > 0
    assert sum(contested for _, contested in runs) > 0
