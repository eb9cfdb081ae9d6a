"""Tests for the beyond-the-paper extensions: weak engine events, per-bank
refresh, and the closed-page policy."""

import pytest

from repro.dram.bank import AccessKind, Bank, RowOutcome
from repro.dram.timing import DRAMTimings
from repro.hmc.config import HMCConfig
from repro.sim.engine import Engine
from repro.system import run_system
from repro.workloads.synthetic import generate_trace


@pytest.fixture
def traces():
    return [generate_trace("gcc", 400, seed=i, core_id=i) for i in range(2)]


class TestWeakEvents:
    def test_run_stops_when_only_weak_remain(self):
        eng = Engine()
        fired = []

        def rearm():
            fired.append(eng.now)
            eng.schedule(10, rearm, weak=True)

        eng.schedule(0, rearm, weak=True)
        eng.schedule(25, lambda: None)  # strong work until cycle 25
        eng.run()
        assert eng.now == 25
        assert fired == [0, 10, 20]

    def test_weak_only_heap_does_not_run(self):
        eng = Engine()
        fired = []
        eng.schedule(5, fired.append, 1, weak=True)
        eng.run()
        assert fired == []
        assert eng.pending == 1

    def test_until_runs_weak_events(self):
        eng = Engine()
        fired = []
        eng.schedule(5, fired.append, 1, weak=True)
        eng.run(until=10)
        assert fired == [1]

    def test_cancel_strong_releases_run(self):
        eng = Engine()
        ev = eng.schedule(100, lambda: None)
        eng.schedule(5, lambda: None, weak=True)
        eng.cancel(ev)
        assert eng.run() == 0  # nothing strong left

    def test_weak_event_scheduling_strong_keeps_alive(self):
        eng = Engine()
        fired = []

        def weak_then_strong():
            eng.schedule(3, fired.append, "strong")

        eng.schedule(0, weak_then_strong, weak=True)
        eng.schedule(1, lambda: None)  # strong kick so the weak event runs
        eng.run()
        assert fired == ["strong"]


class TestRefresh:
    def test_bank_refresh_closes_row_and_occupies(self):
        t = DRAMTimings()
        b = Bank(0, t)
        b.access(AccessKind.READ, 5, 0)
        ready = b.refresh(b.busy_until)
        assert b.open_row is None
        assert b.refreshes == 1
        assert ready >= t.trfc_cpu

    def test_refresh_idle_bank(self):
        t = DRAMTimings()
        b = Bank(0, t)
        ready = b.refresh(100)
        assert ready == 100 + t.trfc_cpu
        assert b.pres == 0  # nothing to precharge

    def test_system_with_refresh_completes_and_slower(self, traces):
        off = run_system(traces, scheme="camps-mod")
        on = run_system(
            traces, scheme="camps-mod", hmc=HMCConfig(refresh_enabled=True)
        )
        assert on.cycles >= off.cycles  # refresh steals bank time
        assert on.energy_breakdown["refresh"] > 0
        assert off.energy_breakdown["refresh"] == 0

    def test_refresh_count_scales_with_runtime(self, traces):
        r = run_system(traces, scheme="none", hmc=HMCConfig(refresh_enabled=True))
        cfg = HMCConfig()
        # each bank refreshes roughly cycles / tREFI times
        expected = r.cycles / cfg.timings.trefi_cpu * cfg.total_banks
        measured = r.energy_breakdown["refresh"] / cfg.energy.refresh_pj
        assert measured == pytest.approx(expected, rel=0.5)


class TestClosedPage:
    def test_closed_page_never_hits_row_buffer(self):
        t = DRAMTimings()
        b = Bank(0, t, closed_page=True)
        b.access(AccessKind.READ, 5, 0)
        assert b.open_row is None
        r = b.access(AccessKind.READ, 5, b.busy_until)
        assert r.outcome is RowOutcome.EMPTY
        assert b.hits == 0

    def test_closed_page_no_conflicts(self):
        t = DRAMTimings()
        b = Bank(0, t, closed_page=True)
        for row in (1, 2, 1, 3):
            b.access(AccessKind.READ, row, b.busy_until)
        assert b.conflicts == 0

    def test_config_validates_policy(self):
        with pytest.raises(ValueError):
            HMCConfig(page_policy="half-open")

    def test_system_closed_page_completes(self, traces):
        r = run_system(traces, scheme="none", hmc=HMCConfig(page_policy="closed"))
        assert r.cycles > 0
        assert r.row_conflicts == 0

    def test_open_page_beats_closed_on_row_local_traffic(self, traces):
        open_r = run_system(traces, scheme="none")
        closed_r = run_system(
            traces, scheme="none", hmc=HMCConfig(page_policy="closed")
        )
        # gcc-like traffic has row locality: open page should win.
        assert open_r.cycles < closed_r.cycles
