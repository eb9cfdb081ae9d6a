"""Hot-path invariants: cancellation by seq, weak events, absolute-time
``call_at`` scheduling, and MemoryRequest recycling.

* a cancelled entry's callback must never fire, and a stale cancel (after
  the entry fired) must be a no-op,
* weak events must not keep :meth:`Engine.run` alive,
* ``call_at`` entries must order identically to ``schedule`` entries (both
  draw ``seq`` from the same counter),
* requests recycled by the direct front-end (``DirectPort.load``/``store``
  take from the pool, ``FabricHost._deliver`` returns to it) must be
  indistinguishable, result-wise, from fresh allocation.
"""

import pytest

from repro.fabric import FabricConfig, FabricHost
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.system import DirectPort


# ----------------------------------------------------------------------
# Cancellation by seq
# ----------------------------------------------------------------------
class TestEventPool:
    """``Engine.cancel(seq)`` on the seq ``schedule``/``call_at`` return."""

    def test_cancelled_callback_never_resurrected(self):
        """A cancelled entry's callback must not fire when its heap turn
        passes, nor after more work is scheduled."""
        eng = Engine()
        fired = []
        victim = eng.schedule(5, fired.append, "victim")
        eng.schedule(10, fired.append, "keeper")
        eng.cancel(victim)
        eng.run()
        assert fired == ["keeper"]
        eng.schedule(1, fired.append, "fresh-1")
        eng.schedule(2, fired.append, "fresh-2")
        eng.run()
        assert fired == ["keeper", "fresh-1", "fresh-2"]
        assert eng.events_fired == 3

    def test_stale_cancel_after_fire_is_noop(self):
        """cancel() of an already-fired seq must neither corrupt the
        pending counter nor affect later events."""
        eng = Engine()
        fired = []
        seq = eng.schedule(1, fired.append, "x")
        eng.run()
        eng.cancel(seq)  # stale: the entry already fired
        assert eng.pending == 0
        eng.schedule(1, fired.append, "y")
        assert eng.pending == 1
        eng.run()
        assert fired == ["x", "y"]

    def test_cancel_then_reschedule_pattern(self):
        """VaultController's wake timer: cancel the pending entry,
        immediately schedule an earlier one."""
        eng = Engine()
        fired = []
        wake = eng.call_at(20, fired.append, "late")
        eng.cancel(wake)
        wake = eng.call_at(10, fired.append, "early")
        eng.run()
        assert fired == ["early"]
        assert eng.now == 10
        assert eng.pending == 0
        # The cancelled entry still sits in the heap; peek_time purges it
        # instead of reporting it as live work.
        assert eng.peek_time() is None


# ----------------------------------------------------------------------
# Weak events
# ----------------------------------------------------------------------
class TestWeakEvents:
    def test_weak_tick_does_not_keep_run_alive(self):
        """A self-rescheduling weak tick (the refresh idiom) fires while
        strong work remains and must not keep run() alive after it."""
        eng = Engine()
        ticks = []

        def tick():
            ticks.append(eng.now)
            eng.schedule(10, tick, weak=True)

        eng.schedule(10, tick, weak=True)
        eng.schedule(35, ticks.append, "strong-done")
        n = eng.run()
        assert ticks == [10, 20, 30, "strong-done"]
        assert n == 4
        # run() stopped with the next weak tick still pending
        assert eng.pending == 1

    def test_cancelled_weak_event_releases_pending(self):
        eng = Engine()
        seq = eng.schedule(5, lambda: None, weak=True)
        assert eng.pending == 1
        eng.cancel(seq)
        assert eng.pending == 0
        assert eng.run() == 0  # nothing strong: the engine never starts
        assert eng.peek_time() is None  # cancelled entry purged


# ----------------------------------------------------------------------
# Absolute-time call_at
# ----------------------------------------------------------------------
class TestCallAt:
    def test_ordering_parity_with_schedule_at(self):
        """call_at and schedule share one seq counter: interleaved
        same-cycle entries fire in submission order."""
        eng = Engine()
        order = []
        eng.schedule(5, order.append, "a")
        eng.call_at(5, order.append, "b")
        eng.schedule(5, order.append, "c")
        eng.call_at(3, order.append, "d")
        eng.run()
        assert order == ["d", "a", "b", "c"]

    def test_priority_breaks_same_cycle_ties(self):
        eng = Engine()
        order = []
        eng.call_at(5, order.append, "second", priority=1)
        eng.call_at(5, order.append, "first", priority=-1)
        eng.run()
        assert order == ["first", "second"]

    def test_past_time_raises(self):
        eng = Engine()
        eng.call_at(4, lambda: None)
        eng.run()
        assert eng.now == 4
        with pytest.raises(ValueError):
            eng.call_at(3, lambda: None)

    def test_counts_and_no_pool_traffic(self):
        eng = Engine()
        eng.call_at(1, lambda: None)
        eng.call_at(2, lambda: None)
        # one entry shape: (time, priority, seq, fn, args)
        assert all(len(entry) == 5 for entry in eng._heap)
        assert eng.pending == 2
        assert eng.run() == 2
        assert eng.pending == 0
        assert eng.events_fired == 2

    def test_max_events_pushes_entry_back(self):
        eng = Engine()
        order = []
        eng.call_at(1, order.append, "x")
        eng.call_at(2, order.append, "y")
        assert eng.run(max_events=1) == 1
        assert order == ["x"] and eng.now == 1 and eng.pending == 1
        assert eng.step()
        assert order == ["x", "y"]
        assert not eng.step()

    def test_until_leaves_future_entry_pending(self):
        eng = Engine()
        hit = []
        eng.call_at(10, hit.append, 1)
        eng.run(until=5)
        assert eng.now == 5 and not hit and eng.pending == 1
        eng.run()
        assert hit == [1] and eng.now == 10

    def test_peek_and_live_events_surface_transient_views(self):
        eng = Engine()

        def fn():
            pass

        seq = eng.call_at(7, fn)
        cancelled = eng.call_at(3, fn)
        eng.cancel(cancelled)
        assert eng.peek_time() == 7
        # live_events yields the plain heap entries, cancelled ones left out
        assert list(eng.live_events()) == [(7, 0, seq, fn, ())]
        assert eng.pending == 1
        assert eng.run() == 1


# ----------------------------------------------------------------------
# MemoryRequest pool
# ----------------------------------------------------------------------
@pytest.fixture
def clean_request_pool():
    saved = MemoryRequest._pool
    MemoryRequest._pool = []
    try:
        yield
    finally:
        MemoryRequest._pool = saved


@pytest.fixture
def direct_port():
    """A direct front-end over a one-cube host that recycles requests,
    as ``System`` wires it when nothing retains completed requests."""
    cfg = HMCConfig(vaults=4, banks_per_vault=4)
    eng = Engine()
    host = FabricHost(FabricConfig(hmc=cfg), eng, [HMCDevice(cfg, eng)])
    host.recycle_requests = True
    return eng, DirectPort(host, eng)


class TestRequestPool:
    def test_release_then_acquire_reuses_object(
        self, clean_request_pool, direct_port
    ):
        """FabricHost._deliver returns a delivered request to the pool and
        the next DirectPort.store takes it back with fresh fields."""
        eng, port = direct_port
        fills = []
        port.load(2, 0x1000, fills.append, meta="ctx")
        eng.run()
        (r1,) = fills
        rid = r1.req_id
        assert MemoryRequest._pool == [r1]
        assert r1.callback is None and r1.meta is None
        port.store(5, 0x2000)
        assert MemoryRequest._pool == []  # pooled reuse
        assert r1.req_id == rid + 1  # fresh identity every life
        assert (r1.addr, r1.is_write, r1.core_id, r1.issue_cycle) == (
            0x2000,
            True,
            5,
            eng.now,
        )
        eng.run()
        assert r1.is_complete and MemoryRequest._pool == [r1]

    def test_acquire_on_empty_pool_allocates(self, clean_request_pool, direct_port):
        eng, port = direct_port
        fills = []
        port.load(0, 0x40, fills.append)
        port.load(1, 0x80, fills.append)
        eng.run()
        r1, r2 = sorted(fills, key=lambda r: r.req_id)
        assert r1 is not r2
        assert r2.req_id == r1.req_id + 1


def test_recycling_does_not_change_results():
    """End-to-end: a run with request recycling enabled (the default direct
    front-end) must match a run that records every request (recycling off)
    on every result the digest pins."""
    from repro.system import System, SystemConfig
    from repro.workloads.mixes import mix as make_mix

    def run(record):
        traces = make_mix("MX1", 120, seed=3)
        system = System(
            traces,
            SystemConfig(scheme="camps", record_requests=record),
            workload="MX1",
        )
        assert system.host.recycle_requests is (not record)
        return system.run()

    recycled = run(False)
    recorded = run(True)
    assert recycled.cycles == recorded.cycles
    assert recycled.core_ipc == recorded.core_ipc
    assert recycled.extra["events_fired"] == recorded.extra["events_fired"]
    assert recycled.mean_memory_latency == recorded.mean_memory_latency
    assert recycled.energy_pj == recorded.energy_pj
