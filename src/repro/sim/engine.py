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

Every scheduled callback is one heap entry of one shape, the tuple
``(time, priority, seq, fn, args)``; a sixth slot (``True``) marks a *weak*
entry, background work that does not keep :meth:`Engine.run` alive (DRAM
refresh, the telemetry epoch tick).  Tuple ordering is resolved in C and,
because ``seq`` is unique, never reaches the slots past it.

:meth:`Engine.schedule` (relative delay) and :meth:`Engine.call_at`
(absolute cycle) both return the entry's ``seq``.  :meth:`Engine.cancel`
takes that ``seq``: the entry stays in the heap and is dropped, uncounted,
when it reaches the head.  Hot components inline :meth:`call_at` (a
``heappush`` onto ``_heap`` plus the ``_seq`` and ``_strong`` updates); the
method is the reference those copies match.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional, Set, Tuple

#: one heap entry: ``(time, priority, seq, fn, args)``, or
#: ``(time, priority, seq, fn, args, True)`` for a weak entry
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
        #: seqs of cancelled entries still in the heap
        self._cancelled: Set[int] = set()
        # Pending non-cancelled entries, split by strength so the hot paths
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
    ) -> int:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now; returns
        the entry's ``seq``.

        ``delay`` must be non-negative.  ``priority`` breaks same-cycle ties
        (lower fires first); components use it to guarantee e.g. that bank
        completions are processed before new arrivals in the same cycle.
        ``weak`` entries do not keep :meth:`run` alive on their own.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.call_at(
            self.now + int(delay), fn, *args, priority=priority, weak=weak
        )

    def call_at(
        self,
        time: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        weak: bool = False,
    ) -> int:
        """Schedule ``fn(*args)`` at absolute cycle ``time``; returns the
        entry's ``seq`` (the handle :meth:`cancel` takes).

        ``time`` must be an integer cycle no earlier than ``now`` (no
        ``int()`` coercion is applied).  ``weak=True`` marks background
        work that does not keep :meth:`run` alive.
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
        return seq

    def cancel(self, seq: int) -> None:
        """Keep the pending entry ``seq`` from firing.

        A ``seq`` that already fired, or was already cancelled, is a no-op.
        The pending check scans the heap: only the vault wake timer cancels,
        about a hundred times per full-scale cell, over a heap of a few
        dozen entries.
        """
        cancelled = self._cancelled
        if seq in cancelled:
            return
        for entry in self._heap:
            if entry[2] == seq:
                cancelled.add(seq)
                if len(entry) == 5:
                    self._strong -= 1
                else:
                    self._weak_live -= 1
                return

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
        cancelled = self._cancelled
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
        # tuple heap entries keep allocation churn low.  The system's own
        # graph of reference cycles outlives the run as garbage;
        # repro.campaign.pool.run_attempt collects it once the cell's
        # attempt ends.
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
                if cancelled and entry[2] in cancelled:
                    cancelled.discard(entry[2])
                    continue
                if max_events is not None and fired >= max_events:
                    heapq.heappush(heap, entry)
                    break
                if time - self.now > 1:  # time-warp over the idle span
                    self.idle_cycles_skipped += time - self.now - 1
                self.now = time
                if len(entry) == 5:
                    self._strong -= 1
                else:
                    self._weak_live -= 1
                fn = entry[3]
                if spans:
                    tracer.engine_fire(time, fn)
                # Counted before the call so a raising callback still shows
                # up in events_fired (crash reports rely on the count).
                fired += 1
                fn(*entry[4])
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
        cancelled = self._cancelled
        while heap:
            seq = heap[0][2]
            if seq not in cancelled:
                return heap[0][0]
            heapq.heappop(heap)
            cancelled.discard(seq)
        return None

    def live_events(self) -> Iterator[_HeapEntry]:
        """The pending (non-cancelled) heap entries, in no particular order.
        Diagnostic use only (integrity layer, crash reports)."""
        cancelled = self._cancelled
        return (entry for entry in self._heap if entry[2] not in cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now} pending={len(self._heap)}>"
