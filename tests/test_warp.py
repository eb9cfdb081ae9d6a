"""Warped idle spans vs the integrity watchdog and the timeseries tick.

The engine's run loop jumps the clock over idle spans (tallied in
``Engine.idle_cycles_skipped``).  Two observers must stay correct
across those jumps:

* the forward-progress watchdog keys on *time not advancing* - a warp is
  the opposite of a wedge, so arbitrarily long warped spans must never
  false-positive, while a genuine same-cycle livelock must still raise;
* the timeseries epoch tick schedules itself ``epoch`` cycles ahead as a
  weak entry - epoch samples must land on the same cycles (and carry the
  same values) whether one ``run()`` call drives the whole simulation or a
  ``run(max_events=1)`` step loop does.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.integrity import ForwardProgressError, IntegrityConfig, Watchdog
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix


# ----------------------------------------------------------------------
# Watchdog across warps
# ----------------------------------------------------------------------
def test_watchdog_tolerates_long_warps():
    """A chain of events separated by huge idle spans advances time at
    every poll, so the watchdog must stay quiet no matter how many events
    fire or how wide the warps get."""
    eng = Engine()
    wd = Watchdog(eng, IntegrityConfig(check_interval=1, stall_polls=2))
    eng.watchdog = wd
    fired = []

    def hop(n):
        fired.append(eng.now)
        if n > 0:
            # 10k-cycle warp per hop; interval=1 polls after every event
            eng.call_at(eng.now + 10_000, hop, n - 1)

    eng.schedule(0, hop, 50)
    eng.run()
    assert len(fired) == 51
    assert eng.idle_cycles_skipped >= 50 * 9_999
    assert eng.now == 500_000


def test_watchdog_still_catches_genuine_wedge():
    """Regression guard: warp tolerance must not have loosened the wedge
    detection - a same-cycle livelock still raises."""
    eng = Engine()
    wd = Watchdog(eng, IntegrityConfig(check_interval=4, stall_polls=3))
    eng.watchdog = wd

    def livelock():
        eng.call_at(eng.now, livelock)

    eng.schedule(5, livelock)
    with pytest.raises(ForwardProgressError):
        eng.run()


def test_watchdog_resets_after_each_advance():
    """Alternating bursts (many same-cycle events) and warps: each warp
    resets the stuck count, so bursts shorter than the wedge threshold
    never accumulate into a false positive."""
    eng = Engine()
    wd = Watchdog(eng, IntegrityConfig(check_interval=2, stall_polls=4))
    eng.watchdog = wd

    def burst(k, then_warp):
        if k > 0:
            eng.call_at(eng.now, burst, k - 1, then_warp)
        elif then_warp > 0:
            # 6 same-cycle events (3 polls at interval=2) then a warp;
            # repeated well past stall_polls' worth of total polls
            eng.call_at(eng.now + 1_000, burst, 6, then_warp - 1)

    eng.schedule(0, burst, 6, 10)
    eng.run()  # must not raise
    assert eng.now == 10_000


# ----------------------------------------------------------------------
# Timeseries epoch ticks across warps
# ----------------------------------------------------------------------
def _sampled_system(epoch=512, refs=150):
    traces = mix("MX1", refs, seed=3)
    return System(
        traces, SystemConfig(scheme="camps", timeseries_epoch=epoch), workload="MX1"
    )


def _series_snapshot(system):
    return {
        name: (s.times.tolist(), s.values.tolist())
        for name, s in system.timeseries.series().items()
    }


def test_epoch_samples_identical_fast_vs_serial():
    """Epoch samples land on the same cycles with the same values whether
    the engine runs in one call or one event per call (step loop)."""
    whole = _sampled_system()
    whole.run()

    serial = _sampled_system()
    serial._ran = True
    if serial.timeseries is not None:
        serial.timeseries.start()
    for core in serial.cores:
        core.start()
    while serial.engine.run(max_events=1):
        pass
    serial.device.finalize()

    assert whole.engine.now == serial.engine.now
    snap_whole = _series_snapshot(whole)
    snap_serial = _series_snapshot(serial)
    assert snap_whole.keys() == snap_serial.keys()
    assert snap_whole == snap_serial
    assert whole.timeseries.samples_taken == serial.timeseries.samples_taken
    assert whole.timeseries.samples_taken > 0


def test_epoch_samples_on_epoch_grid():
    """Tick cycles are exact epoch multiples of the arm cycle: warps jump
    *to* scheduled entries, never over them, so the weak tick still fires
    exactly where it was scheduled."""
    system = _sampled_system(epoch=512)
    system.run()
    for name, s in system.timeseries.series().items():
        times = s.times.tolist()
        assert times, f"series {name} took no samples"
        for t in times:
            assert t % 512 == 0, f"series {name} sampled off-grid at {t}"


def test_warped_run_same_events_fired_as_serial():
    """events_fired and idle_cycles_skipped parity between one run() call
    and a step loop on a full system run (the digest ingredient the
    benches pin)."""
    whole = _sampled_system()
    whole.run()

    serial = _sampled_system()
    serial._ran = True
    if serial.timeseries is not None:
        serial.timeseries.start()
    for core in serial.cores:
        core.start()
    while serial.engine.run(max_events=1):
        pass

    assert whole.engine.idle_cycles_skipped == serial.engine.idle_cycles_skipped
    assert whole.engine.events_fired == serial.engine.events_fired
