"""Persistent worker pool for the service: the executor's workers, unending.

:func:`repro.campaign.executor.run_campaign` drives a *finite* cell list and
tears its pool down at the end; the service needs the same process workers
(isolation, per-attempt timeouts, crash containment) attached to an
*unbounded* stream of cells.  :class:`ServePool` wraps the executor's
:class:`~repro.campaign.executor._Worker` slots in a pump thread:

* cells come in through a thread-safe inbox (:meth:`submit`), which also
  wakes the pump: its one blocking point waits on the busy workers' pipes
  plus a wake socket, bounded by the nearest cell deadline, so a cell for
  an idle slot is assigned at once rather than after a poll timeout;
* results leave through an ``on_result`` callback fired from the pump
  thread — the asyncio scheduler hands in a callback that trampolines onto
  its event loop via ``loop.call_soon_threadsafe``;
* a worker that dies mid-cell surfaces the cell as status ``crash`` (the
  scheduler decides whether to requeue; crashes are infrastructure
  failures, not cell verdicts) and the slot respawns lazily;
* an attempt that overruns its deadline is killed and surfaced as
  ``timeout`` (terminal: a deterministic simulator that hung once will
  hang again).

Chaos hooks: :meth:`worker_pids` exposes the live worker processes so the
chaos harness can SIGKILL one mid-cell, and :meth:`kill_workers` forces the
abrupt-death path during drain testing.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Deque, List, Optional, Tuple

import multiprocessing

from repro.campaign.executor import (
    CellRunner,
    TelemetrySpec,
    _default_start_method,
    _Worker,
    execute_cell,
)
from repro.campaign.manifest import STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT
from repro.campaign.spec import Cell

#: pool-level result status for a worker that died mid-cell (not a manifest
#: status: the scheduler maps it to a retry or a terminal error)
STATUS_CRASH = "crash"

#: seconds before the pump retries a free slot that could not take work
RETRY_INTERVAL = 0.1


@dataclass
class PoolResult:
    """One attempt's outcome as surfaced to the scheduler."""

    cell: Cell
    attempt: int
    status: str  # ok | error | timeout | crash
    payload: Any  # summary dict, error text, or {"error","diagnosis"}
    elapsed: float
    worker: Optional[str] = None  # pool slot name ("w0", ...) for tracing


class ServePool:
    """A fixed-width pool of persistent cell workers fed by a queue."""

    def __init__(
        self,
        jobs: int,
        runner: CellRunner = execute_cell,
        timeout: Optional[float] = None,
        telemetry_dir: Optional[str] = None,
        telemetry_interval: float = 0.5,
        start_method: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.runner = runner
        self.timeout = timeout
        self.telemetry_dir = telemetry_dir
        self.telemetry_interval = telemetry_interval
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._inbox: "queue.Queue[Tuple[Cell, int]]" = queue.Queue()
        # self-pipe: submit()/stop() write a byte to wake the pump
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._on_result: Optional[Callable[[PoolResult], None]] = None
        self._workers: List[Optional[_Worker]] = [None] * jobs
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self, on_result: Callable[[PoolResult], None]) -> "ServePool":
        self._on_result = on_result
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-pool", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, cell: Cell, attempt: int) -> None:
        self._idle.clear()
        self._inbox.put((cell, attempt))
        self._wake()

    @property
    def queued(self) -> int:
        return self._inbox.qsize()

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (chaos targets); racy by nature."""
        with self._lock:
            return [
                w.proc.pid
                for w in self._workers
                if w is not None and w.alive and w.proc.pid is not None
            ]

    def busy_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers if w is not None and w.busy)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no cell is queued or in flight (drain barrier)."""
        return self._idle.wait(timeout)

    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pump; with ``drain``, let in-flight cells finish first."""
        if drain:
            self._drain.set()
            self._wake()
            self._idle.wait(timeout)
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, timeout))
            self._thread = None
        with self._lock:
            for i, w in enumerate(self._workers):
                if w is not None:
                    w.shutdown()
                    self._workers[i] = None
        self._wake_r.close()
        self._wake_w.close()

    def kill_workers(self) -> None:
        """Abruptly kill every live worker (chaos/emergency path)."""
        with self._lock:
            for w in self._workers:
                if w is not None:
                    w.kill()

    # ------------------------------------------------------------------
    def _telemetry(self, slot: int) -> Optional[TelemetrySpec]:
        if self.telemetry_dir is None:
            return None
        return (self.telemetry_dir, f"w{slot}", self.telemetry_interval)

    def _emit(self, result: PoolResult) -> None:
        cb = self._on_result
        if cb is None:
            return
        try:
            cb(result)
        except Exception:  # pragma: no cover - scheduler bug must not
            pass  # wedge the pump

    def _spawn(self, slot: int) -> Optional[_Worker]:
        try:
            w = _Worker(self._ctx, self.runner, telemetry=self._telemetry(slot))
        except OSError:  # pragma: no cover - fork failure under pressure
            return None
        with self._lock:
            self._workers[slot] = w
        return w

    def _wake(self) -> None:
        """Make the pump re-evaluate now (new cell, drain, or stop)."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # buffer full (a wake is already pending) or pool stopped

    def _reap(self, i: int, w: _Worker) -> None:
        """Surface a dead worker's cell as a crash; the slot respawns lazily."""
        if w.busy:
            cell, attempt = w.take_task()
            self._emit(
                PoolResult(
                    cell,
                    attempt,
                    STATUS_CRASH,
                    f"worker process died (exitcode {w.proc.exitcode})",
                    0.0,
                    worker=f"w{i}",
                )
            )
        w.kill()
        with self._lock:
            self._workers[i] = None

    def _loop(self) -> None:  # noqa: C901 - one pump, states inline
        backlog: Deque[Tuple[Cell, int]] = deque()
        while not self._stop.is_set():
            # pull everything currently queued into the local backlog
            try:
                while True:
                    backlog.append(self._inbox.get_nowait())
            except queue.Empty:
                pass
            for i, w in enumerate(self._workers):
                if w is not None and not w.alive:
                    self._reap(i, w)
            # assign backlog to free slots (unless draining the pool)
            draining = self._drain.is_set()
            if backlog and not draining:
                for i, w in enumerate(self._workers):
                    if not backlog:
                        break
                    if w is None:
                        w = self._spawn(i)
                        if w is None:
                            continue
                    if w.busy:
                        continue
                    cell, attempt = backlog.popleft()
                    try:
                        w.assign(cell, attempt, self.timeout)
                    except (BrokenPipeError, OSError):
                        backlog.appendleft((cell, attempt))
            busy = [w for w in self._workers if w is not None and w.busy]
            if not busy and (not backlog or draining):
                # draining: in-flight work is done; the untouched backlog is
                # the scheduler's to checkpoint, not ours to hold idle open
                self._idle.set()
            # the pump's one blocking point: a result (or a worker death)
            # on a busy pipe, a wake from submit()/stop(), or the nearest
            # cell deadline
            timeout: Optional[float] = None
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            if backlog and not draining and len(busy) < self.jobs:
                # a free slot could not take work (spawn or pipe failure)
                timeout = (
                    RETRY_INTERVAL if timeout is None else min(timeout, RETRY_INTERVAL)
                )
            ready = connection.wait(
                [w.conn for w in busy] + [self._wake_r], timeout=timeout
            )
            if self._wake_r in ready:
                try:
                    self._wake_r.recv(4096)
                except OSError:
                    pass
            for w in busy:
                if w.conn in ready:
                    slot = f"w{self._workers.index(w)}"
                    cell, attempt = w.take_task()
                    try:
                        status, payload, elapsed = w.conn.recv()
                    except (EOFError, OSError):
                        status, payload, elapsed = (
                            STATUS_CRASH,
                            f"worker process died (exitcode {w.proc.exitcode})",
                            0.0,
                        )
                    self._emit(
                        PoolResult(
                            cell, attempt, status, payload, elapsed, worker=slot
                        )
                    )
            now = time.monotonic()
            for i, w in enumerate(self._workers):
                if (
                    w is not None
                    and w.busy
                    and w.deadline is not None
                    and now >= w.deadline
                ):
                    cell, attempt = w.take_task()
                    w.kill()
                    self._emit(
                        PoolResult(
                            cell,
                            attempt,
                            STATUS_TIMEOUT,
                            f"cell exceeded {self.timeout:g}s wall-clock",
                            float(self.timeout or 0.0),
                            worker=f"w{i}",
                        )
                    )


__all__ = [
    "PoolResult",
    "ServePool",
    "STATUS_CRASH",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
]
