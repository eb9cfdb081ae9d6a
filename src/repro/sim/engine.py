"""Event-driven simulation engine.

Time is an integer number of CPU cycles (3 GHz in the paper's Table I
configuration).  Events fire in ``(time, priority, seq)`` order; ``seq`` is a
monotonically increasing tie-breaker so the simulation is fully deterministic
regardless of heap internals.

The engine intentionally has no notion of "processes" or coroutines: every
component is a plain object that schedules callbacks.  Profiling showed a
callback-based heap loop to be roughly 3x faster in CPython than a
generator-based process model for this workload mix, and the hot loop below
avoids attribute lookups accordingly.

Two hot-path choices are worth naming because they are invisible in the API:

* Heap entries are ``(time, priority, seq, event)`` tuples, not Event
  objects.  Tuple ordering is resolved in C; an object heap would route
  every sift comparison through ``Event.__lt__`` (the single hottest
  function before the change).
* Fire-and-forget callbacks (the vast majority: link deliveries, bank
  completions, core wakeups) go through :meth:`Engine.call_at`, which heaps
  a bare ``(time, priority, seq, fn, args)`` tuple with **no Event object
  at all**.  Such entries cannot be cancelled; ``weak=True`` appends a
  sixth slot and makes the entry background-only (it does not keep
  :meth:`run` alive - the telemetry epoch tick uses this).  Use
  :meth:`Engine.schedule` / :meth:`Engine.schedule_at` when a cancellable
  handle is needed.

Event handles are plain objects: one is created per handled schedule and
stays valid after it fires (``fired`` is set; a late ``cancel()`` is a
no-op).
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional, Tuple


class Event:
    """Handle to a scheduled callback.

    The handle supports O(1) cancellation: cancelled events stay in the heap
    but are skipped when popped.  This matters for timeout-style events that
    are almost always cancelled before firing.

    *Weak* events (periodic background work such as DRAM refresh) do not keep
    the simulation alive: :meth:`Engine.run` stops once only weak events
    remain pending.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "fn",
        "args",
        "cancelled",
        "fired",
        "weak",
        "_engine",
    )

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        weak: bool = False,
        engine: Optional["Engine"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self.weak = weak
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; cancelling an event
        that already fired is a no-op (it is no longer in the heap)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self._engine is not None:
                if self.weak:
                    self._engine._weak_live -= 1
                else:
                    self._engine._strong -= 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} {state} fn={self.fn!r}>"


#: type of one heap entry: ``(time, priority, seq, event)`` for handled
#: events, ``(time, priority, seq, fn, args)`` for handle-free call_at()
#: entries, or ``(time, priority, seq, fn, args, True)`` for weak handle-free
#: entries (distinguished by length).  Slots past ``seq`` never participate
#: in the tuple comparison because ``seq`` (slot 2) is unique.
_HeapEntry = Tuple[Any, ...]


class Engine:
    """Deterministic discrete-event simulation engine.

    >>> eng = Engine()
    >>> order = []
    >>> _ = eng.schedule(5, order.append, "b")
    >>> _ = eng.schedule(1, order.append, "a")
    >>> eng.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[_HeapEntry] = []
        self._seq: int = 0
        # Pending non-cancelled events, split by strength so the hot paths
        # touch exactly one counter (``pending`` reports the sum).
        self._strong: int = 0
        self._weak_live: int = 0
        self._events_fired: int = 0
        self._running = False
        #: attached observability tracer (repro.obs.Tracer) or None; per-event
        #: span recording only happens when the tracer asks for engine_spans
        self.tracer = None
        #: attached forward-progress watchdog (repro.sim.integrity.Watchdog)
        #: or None; polled every watchdog.interval fired events
        self.watchdog = None
        #: cumulative wall-clock time spent inside run() (seconds)
        self.wall_seconds: float = 0.0
        #: idle cycles skipped by the time warp: whenever the next event is
        #: more than one cycle ahead, the clock jumps straight to it and the
        #: span in between is tallied here.  Purely diagnostic -
        #: the engine has always jumped (it is event-driven); the counter
        #: makes the warped spans visible to benches and the watchdog tests.
        self.idle_cycles_skipped: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        weak: bool = False,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative.  ``priority`` breaks same-cycle ties
        (lower fires first); components use it to guarantee e.g. that bank
        completions are processed before new arrivals in the same cycle.
        ``weak`` events do not keep :meth:`run` alive on their own.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(
            self.now + delay, fn, *args, priority=priority, weak=weak
        )

    def schedule_at(
        self,
        time: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        weak: bool = False,
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute cycle ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        time = int(time)
        seq = self._seq + 1
        self._seq = seq
        ev = Event(time, priority, seq, fn, args, weak=weak, engine=self)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        if weak:
            self._weak_live += 1
        else:
            self._strong += 1
        return ev

    def call_at(
        self,
        time: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        weak: bool = False,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time``, handle-free.

        The fire-and-forget fast path: no :class:`Event` is created (the
        heap holds a bare ``(time, priority, seq, fn, args)`` tuple), so the
        call cannot be cancelled.  ``weak=True`` marks the entry background
        work that does not keep :meth:`run` alive (the heap tuple grows a
        sixth slot); the telemetry epoch tick uses this to sample without
        ever extending the simulation.  Ordering is identical to
        :meth:`schedule_at` with the same arguments - both draw ``seq`` from
        the same counter.  ``time`` must already be an integer cycle: unlike
        the schedule paths, no ``int()`` coercion is applied.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq + 1
        self._seq = seq
        if weak:
            heapq.heappush(self._heap, (time, priority, seq, fn, args, True))
            self._weak_live += 1
        else:
            heapq.heappush(self._heap, (time, priority, seq, fn, args))
            self._strong += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` cycles pass, or ``max_events``
        events fire.  Returns the number of events executed by this call.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        # Hoisted per-run: when no tracer wants spans, the loop pays one
        # falsy check per event and nothing else.
        tracer = self.tracer
        spans = tracer is not None and tracer.engine_spans
        # Same treatment for the watchdog: 0 disables the whole branch.
        watchdog = self.watchdog
        wd_interval = watchdog.interval if watchdog is not None else 0
        wd_count = 0
        t0 = perf_counter()
        # Generational GC only burns cycles here: the request pool and the
        # handle-free call_at() entries keep allocation churn low.  The
        # system's own graph of reference cycles outlives the run as
        # garbage; repro.campaign.pool.run_attempt collects it once the
        # cell's attempt ends.
        # State-restoring, so a run() nested via another engine stays correct.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                if until is None and self._strong == 0:
                    break  # only weak (background) events remain
                entry = heap[0]
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heappop(heap)
                n = len(entry)
                if n != 4:
                    # handle-free call_at() entry: nothing to cancel (weak
                    # entries carry a sixth slot)
                    if max_events is not None and fired >= max_events:
                        heapq.heappush(heap, entry)
                        break
                    if time - self.now > 1:  # time-warp over the idle span
                        self.idle_cycles_skipped += time - self.now - 1
                    self.now = time
                    if n == 5:
                        self._strong -= 1
                    else:
                        self._weak_live -= 1
                    fn = entry[3]
                    if spans:
                        tracer.engine_fire(time, fn)
                    fired += 1
                    fn(*entry[4])
                    if wd_interval:
                        wd_count += 1
                        if wd_count >= wd_interval:
                            wd_count = 0
                            watchdog.poll(self.now)
                    continue
                ev = entry[3]
                if ev.cancelled:
                    continue
                if max_events is not None and fired >= max_events:
                    heapq.heappush(heap, entry)
                    break
                if time - self.now > 1:  # time-warp over the idle span
                    self.idle_cycles_skipped += time - self.now - 1
                self.now = time
                if ev.weak:
                    self._weak_live -= 1
                else:
                    self._strong -= 1
                ev.fired = True
                fn = ev.fn
                args = ev.args
                if spans:
                    tracer.engine_fire(time, fn)
                # Counted before the call so a raising callback still shows
                # up in events_fired (crash reports rely on the count).
                fired += 1
                fn(*args)
                if wd_interval:
                    wd_count += 1
                    if wd_count >= wd_interval:
                        wd_count = 0
                        watchdog.poll(self.now)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self.wall_seconds += perf_counter() - t0
            # Inside the finally so a watchdog/callback exception still
            # leaves an accurate lifetime count for the crash report.
            self._events_fired += fired
        return fired

    def step(self) -> bool:
        """Fire exactly one pending event.  Returns False if none remain."""
        return self.run(max_events=1) == 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the heap.

        Maintained as a live counter (push / cancel / fire), not a heap
        scan: components poll this property while the heap holds thousands
        of events, and the O(n) sweep showed up in profiles.
        """
        return self._strong + self._weak_live

    @property
    def events_fired(self) -> int:
        """Total events executed over the engine's lifetime."""
        return self._events_fired

    @property
    def events_per_sec(self) -> float:
        """Lifetime engine throughput: events fired per wall-clock second
        spent inside :meth:`run` (0.0 before the first run)."""
        return self._events_fired / self.wall_seconds if self.wall_seconds else 0.0

    def peek_time(self) -> Optional[int]:
        """Cycle of the next live event, or None when drained."""
        heap = self._heap
        while heap:
            head = heap[0]
            if len(head) != 4 or not head[3].cancelled:
                return head[0]
            heapq.heappop(heap)
        return None

    def live_events(self) -> Iterator[Event]:
        """Snapshot of pending (non-cancelled) events, in no particular
        order.  Diagnostic use only (integrity layer, crash reports):
        handle-free call_at() entries are surfaced as transient Event views
        that are not connected to the heap (cancelling one has no effect)."""
        for entry in self._heap:
            if len(entry) != 4:
                yield Event(
                    entry[0], entry[1], entry[2], entry[3], entry[4],
                    weak=len(entry) == 6,
                )
            elif not entry[3].cancelled:
                yield entry[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now} pending={len(self._heap)}>"
