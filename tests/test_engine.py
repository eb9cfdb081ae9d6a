"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import Engine


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(10, order.append, "b")
        eng.schedule(5, order.append, "a")
        eng.schedule(20, order.append, "c")
        eng.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_by_seq(self):
        eng = Engine()
        order = []
        for tag in "abcde":
            eng.schedule(7, order.append, tag)
        eng.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        eng = Engine()
        order = []
        eng.schedule(5, order.append, "low", priority=1)
        eng.schedule(5, order.append, "high", priority=-1)
        eng.run()
        assert order == ["high", "low"]

    def test_now_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(42, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [42]
        assert eng.now == 42

    def test_schedule_at_absolute(self):
        eng = Engine()
        seen = []
        eng.call_at(100, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [100]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.schedule(-1, lambda: None)

    def test_schedule_into_past_rejected(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.call_at(5, lambda: None)

    def test_zero_delay_runs_after_current(self):
        eng = Engine()
        order = []

        def first():
            order.append("first")
            eng.schedule(0, order.append, "nested")

        eng.schedule(1, first)
        eng.schedule(1, order.append, "second")
        eng.run()
        assert order == ["first", "second", "nested"]

    def test_events_scheduled_during_run_execute(self):
        eng = Engine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                eng.schedule(3, chain, n + 1)

        eng.schedule(0, chain, 0)
        eng.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert eng.now == 15

    def test_args_passed_through(self):
        eng = Engine()
        seen = []
        eng.schedule(1, lambda a, b, c: seen.append((a, b, c)), 1, "x", None)
        eng.run()
        assert seen == [(1, "x", None)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        seen = []
        ev = eng.schedule(5, seen.append, "no")
        eng.schedule(6, seen.append, "yes")
        eng.cancel(ev)
        eng.run()
        assert seen == ["yes"]

    def test_cancel_is_idempotent(self):
        eng = Engine()
        ev = eng.schedule(5, lambda: None)
        eng.cancel(ev)
        eng.cancel(ev)
        eng.run()
        assert eng.events_fired == 0

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        ev = eng.schedule(5, lambda: None)
        eng.schedule(6, lambda: None)
        assert eng.pending == 2
        eng.cancel(ev)
        assert eng.pending == 1

    def test_peek_time_skips_cancelled(self):
        eng = Engine()
        ev = eng.schedule(5, lambda: None)
        eng.schedule(9, lambda: None)
        eng.cancel(ev)
        assert eng.peek_time() == 9

    def test_cancel_after_fire_is_noop(self):
        # Cancelling a seq whose entry already ran must not corrupt the
        # live/strong counters: the entry is no longer in the heap.
        eng = Engine()
        ev = eng.schedule(1, lambda: None)
        eng.schedule(2, lambda: None)
        eng.run(until=1)
        eng.cancel(ev)
        assert eng.pending == 1
        assert eng.run() == 1


class TestPendingCounter:
    """`Engine.pending` is a live counter, not a heap scan - these pin the
    bookkeeping through every path that mutates the heap."""

    def test_pending_tracks_fires(self):
        eng = Engine()
        for i in range(4):
            eng.schedule(i + 1, lambda: None)
        assert eng.pending == 4
        eng.run(until=2)
        assert eng.pending == 2
        eng.run()
        assert eng.pending == 0

    def test_pending_counts_events_scheduled_during_run(self):
        eng = Engine()
        seen = []

        def chain(n):
            seen.append(eng.pending)  # observed mid-run, after this pop
            if n < 3:
                eng.schedule(1, chain, n + 1)

        eng.schedule(1, chain, 0)
        eng.run()
        # at each fire the chain's own event has been consumed already
        assert seen == [0, 0, 0, 0]
        assert eng.pending == 0

    def test_pending_with_max_events_pushback(self):
        eng = Engine()
        for i in range(5):
            eng.schedule(i + 1, lambda: None)
        eng.run(max_events=2)
        assert eng.pending == 3

    def test_pending_mixed_cancel_and_weak(self):
        eng = Engine()
        evs = [eng.schedule(i + 1, lambda: None) for i in range(3)]
        eng.schedule(10, lambda: None, weak=True)
        assert eng.pending == 4
        eng.cancel(evs[1])
        assert eng.pending == 3
        eng.run()
        # the weak event alone does not keep the engine alive, so it is
        # still pending (unfired) after the strong events drain
        assert eng.pending == 1

    def test_pending_constant_time(self):
        # Guard against regressing to the O(n) heap scan: `pending` on a
        # 50k-event heap must cost the same as on an empty one.
        import timeit

        eng = Engine()
        for i in range(50_000):
            eng.schedule(i + 1, lambda: None)
        per_call = min(
            timeit.repeat(lambda: eng.pending, number=2000, repeat=5)
        ) / 2000
        assert per_call < 5e-6  # a heap scan is ~milliseconds here


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        seen = []
        eng.schedule(5, seen.append, "early")
        eng.schedule(50, seen.append, "late")
        eng.run(until=10)
        assert seen == ["early"]
        assert eng.now == 10
        eng.run()
        assert seen == ["early", "late"]

    def test_run_until_advances_now_with_empty_heap(self):
        eng = Engine()
        eng.run(until=123)
        assert eng.now == 123

    def test_max_events_limits_execution(self):
        eng = Engine()
        seen = []
        for i in range(5):
            eng.schedule(i + 1, seen.append, i)
        fired = eng.run(max_events=2)
        assert fired == 2
        assert seen == [0, 1]

    def test_step_fires_exactly_one(self):
        eng = Engine()
        seen = []
        eng.schedule(1, seen.append, "a")
        eng.schedule(2, seen.append, "b")
        assert eng.step() is True
        assert seen == ["a"]
        assert eng.step() is True
        assert eng.step() is False

    def test_run_returns_event_count(self):
        eng = Engine()
        for i in range(7):
            eng.schedule(i, lambda: None)
        assert eng.run() == 7
        assert eng.events_fired == 7

    def test_run_not_reentrant(self):
        eng = Engine()
        errors = []

        def inner():
            try:
                eng.run()
            except RuntimeError as e:
                errors.append(e)

        eng.schedule(1, inner)
        eng.run()
        assert len(errors) == 1


class TestDeterminism:
    def test_identical_schedules_identical_order(self):
        def build():
            eng = Engine()
            order = []
            eng.schedule(3, order.append, 1)
            eng.schedule(3, order.append, 2)
            eng.schedule(1, order.append, 3)
            eng.schedule(3, order.append, 4, priority=-1)
            eng.run()
            return order

        assert build() == build() == [3, 4, 1, 2]


class TestEdgePaths:
    """Edge cases of peek_time, step, and the run() re-entrancy guard."""

    def test_peek_time_all_cancelled_returns_none(self):
        eng = Engine()
        evs = [eng.schedule(i + 1, lambda: None) for i in range(3)]
        for ev in evs:
            eng.cancel(ev)
        assert eng.peek_time() is None
        assert eng.pending == 0

    def test_peek_time_empty_heap_returns_none(self):
        assert Engine().peek_time() is None

    def test_peek_time_skips_cancelled_head_to_live_event(self):
        eng = Engine()
        head = eng.schedule(1, lambda: None)
        eng.schedule(5, lambda: None)
        eng.cancel(head)
        assert eng.peek_time() == 5

    def test_step_with_only_weak_events_fires_nothing(self):
        eng = Engine()
        fired = []
        eng.schedule(1, fired.append, "w", weak=True)
        assert eng.step() is False
        assert fired == []

    def test_step_with_cancelled_head_fires_next_live(self):
        eng = Engine()
        fired = []
        head = eng.schedule(1, fired.append, "a")
        eng.schedule(2, fired.append, "b")
        eng.cancel(head)
        assert eng.step() is True
        assert fired == ["b"]

    def test_step_inside_callback_hits_reentrancy_guard(self):
        eng = Engine()
        errors = []

        def inner():
            try:
                eng.step()
            except RuntimeError as e:
                errors.append(str(e))

        eng.schedule(1, inner)
        eng.run()
        assert len(errors) == 1
        assert "not reentrant" in errors[0]

    def test_engine_usable_after_callback_exception(self):
        eng = Engine()

        def boom():
            raise ValueError("callback failed")

        eng.schedule(1, boom)
        with pytest.raises(ValueError):
            eng.run()
        # the guard must be released and the lifetime counter accurate
        fired = []
        eng.schedule(1, fired.append, "after")
        eng.run()
        assert fired == ["after"]
        assert eng.events_fired == 2


class TestWatchdogHook:
    def test_watchdog_polled_every_interval(self):
        class Probe:
            interval = 2

            def __init__(self):
                self.polls = []

            def poll(self, now):
                self.polls.append(now)

        eng = Engine()
        eng.watchdog = probe = Probe()
        for i in range(7):
            eng.schedule(i, lambda: None)
        eng.run()
        # 7 events at interval 2 -> polls after the 2nd, 4th, 6th event
        assert len(probe.polls) == 3

    def test_no_watchdog_runs_clean(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        assert eng.run() == 1
