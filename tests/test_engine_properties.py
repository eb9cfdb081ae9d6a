"""Property tests for the engine's fire order.

Two independent checks over randomized schedules - relative and
absolute-time entries, weak entries, cancellations by seq, and callbacks
that schedule more work (same-cycle reentrancy included):

* **Oracle** - a deliberately naive reference model (a plain list, the
  minimum live ``(time, priority, seq)`` entry fired next, stopping once
  only weak entries remain) must predict the exact fire order, clock
  readings, events_fired and idle_cycles_skipped of :meth:`Engine.run`.
* **Stepping** - ``run()`` and a ``run(max_events=1)`` step loop must
  produce the same observation log: stopping after every event (and
  pushing the next entry back) must not perturb the order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

# One scheduled call: (delay, priority, weak, reentry_spec) where
# reentry_spec is None or (extra_delay, extra_priority) scheduled from
# inside the callback (extra_delay 0 = same-cycle reentrancy).
_CALL = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=-2, max_value=2),
    st.booleans(),
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=-2, max_value=2),
        ),
    ),
)

_SCHEDULE = st.lists(_CALL, min_size=1, max_size=40)

#: indices (mod schedule length) of entries to cancel before running
_CANCELS = st.lists(st.integers(min_value=0, max_value=39), max_size=10)


def _run_trace(schedule, cancels, serial: bool):
    """Build an engine from ``schedule``, run it, return the observation
    log: (tag, engine.now) per fired callback, plus the final clock."""
    eng = Engine()
    log = []

    def make_cb(tag, reentry):
        def cb():
            log.append((tag, eng.now))
            if reentry is not None:
                extra_delay, extra_prio = reentry
                eng.call_at(
                    eng.now + extra_delay,
                    lambda t=f"{tag}+r": log.append((t, eng.now)),
                    priority=extra_prio,
                )

        return cb

    seqs = []
    for i, (delay, prio, weak, reentry) in enumerate(schedule):
        cb = make_cb(f"cb{i}", reentry)
        if i % 3 == 0:
            seqs.append(eng.schedule(delay, cb, priority=prio, weak=weak))
        elif i % 3 == 1:
            seqs.append(eng.call_at(delay, cb, priority=prio, weak=weak))
        else:
            seqs.append(eng.call_at(delay, cb, priority=prio))
    for c in cancels:
        eng.cancel(seqs[c % len(seqs)])
    if serial:
        while eng.run(max_events=1):
            pass
    else:
        eng.run()
    return log, eng.now, eng.events_fired, eng.idle_cycles_skipped


def _oracle_trace(schedule, cancels):
    """The reference model: the same observation log as ``_run_trace``,
    computed without the engine.  Entries are ``[time, priority, seq, tag,
    reentry, weak, cancelled]`` in a list; the next fired entry is the live
    minimum by ``(time, priority, seq)``."""
    entries = []
    seq = 0

    def add(time, prio, tag, reentry, weak):
        nonlocal seq
        seq += 1
        entries.append([time, prio, seq, tag, reentry, weak, False])

    for i, (delay, prio, weak, reentry) in enumerate(schedule):
        add(delay, prio, f"cb{i}", reentry, weak and i % 3 != 2)
    scheduled = list(entries)
    for c in cancels:
        scheduled[c % len(scheduled)][6] = True
    log = []
    now = 0
    skipped = 0
    fired = 0
    while True:
        live = [e for e in entries if not e[6]]
        if not any(not e[5] for e in live):
            break  # only weak (background) entries remain
        e = min(live, key=lambda e: (e[0], e[1], e[2]))
        entries.remove(e)
        if e[0] - now > 1:
            skipped += e[0] - now - 1
        now = e[0]
        fired += 1
        tag, reentry = e[3], e[4]
        log.append((tag, now))
        if reentry is not None:
            extra_delay, extra_prio = reentry
            add(now + extra_delay, extra_prio, f"{tag}+r", None, False)
    return log, now, fired, skipped


@settings(max_examples=200, deadline=None)
@given(schedule=_SCHEDULE, cancels=_CANCELS)
def test_run_matches_oracle(schedule, cancels):
    assert _run_trace(schedule, cancels, serial=False) == _oracle_trace(
        schedule, cancels
    )


@settings(max_examples=200, deadline=None)
@given(schedule=_SCHEDULE, cancels=_CANCELS)
def test_fast_loop_matches_serial_heap(schedule, cancels):
    fast = _run_trace(schedule, cancels, serial=False)
    serial = _run_trace(schedule, cancels, serial=True)
    assert fast[0] == serial[0], "fire order/clock diverged"
    assert fast[1] == serial[1], "final clock diverged"
    assert fast[2] == serial[2], "events_fired diverged"


@settings(max_examples=100, deadline=None)
@given(schedule=_SCHEDULE)
def test_warp_accounting_matches_serial(schedule):
    """idle_cycles_skipped is identical whether run() fires everything in
    one call or one event per call."""
    fast = _run_trace(schedule, [], serial=False)
    serial = _run_trace(schedule, [], serial=True)
    assert fast[3] == serial[3]


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(
        st.integers(min_value=0, max_value=10), min_size=1, max_size=20
    )
)
def test_same_cycle_cascade(delays):
    """Chains that keep scheduling same-cycle work at a lower priority
    drain ahead of the rest of that cycle, with or without stepping."""

    def run(serial):
        eng = Engine()
        log = []

        def chain(depth):
            log.append((depth, eng.now))
            if depth < 3:
                # same cycle, lower priority than the default: sorts ahead
                # of everything else pending at this cycle
                eng.call_at(eng.now, chain, depth + 1, priority=-1)

        for d in delays:
            eng.schedule(d, chain, 0)
        if serial:
            while eng.run(max_events=1):
                pass
        else:
            eng.run()
        return log, eng.events_fired

    assert run(False) == run(True)


def test_cancelled_cohort_member_is_skipped():
    """A cancel between scheduling and firing must drop the event, even
    among same-(time, priority) entries, with or without stepping."""

    def run(serial):
        eng = Engine()
        log = []
        eng.schedule(5, log.append, "a")
        victim = eng.schedule(5, log.append, "victim")
        eng.schedule(5, log.append, "b")
        eng.schedule(0, eng.cancel, victim)
        if serial:
            while eng.run(max_events=1):
                pass
        else:
            eng.run()
        return log

    assert run(False) == run(True) == ["a", "b"]


def test_weak_only_tail_stops_both_loops():
    def run(serial):
        eng = Engine()
        log = []
        eng.schedule(1, log.append, "strong")

        def rearm():
            log.append("weak")
            eng.call_at(eng.now + 1, rearm, weak=True)

        eng.call_at(3, rearm, weak=True)
        if serial:
            while eng.run(max_events=1):
                pass
        else:
            eng.run()
        return log, eng.now

    fast, serial = run(False), run(True)
    assert fast == serial
    assert fast[0] == ["strong"]  # the weak self-rearm never fires
