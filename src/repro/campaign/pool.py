"""The cell worker pool shared by campaigns and the service.

:class:`CellPool` runs cells on up to ``jobs`` persistent worker processes,
each fed one cell at a time over a pipe, behind one pump thread.
:func:`~repro.campaign.executor.run_campaign` (``jobs >= 2``) drives a
finite cell list through it and stops it at the end; ``repro serve`` keeps
one open for an unbounded stream of cells.

* Cells come in through a thread-safe inbox (:meth:`CellPool.submit`),
  which also wakes the pump.  The pump's one blocking point waits on the
  busy workers' pipes plus a wake socket, bounded by the nearest cell
  deadline, so a cell for an idle slot is assigned at once.
* Results leave through an ``on_result`` callback fired from the pump
  thread, as one :class:`PoolResult` per attempt.
* A worker that dies mid-cell surfaces the cell as status ``crash``, and
  the slot respawns when it is next needed.  A crash is not a verdict on
  the cell: the caller maps it (a campaign records an undiagnosed error,
  the service requeues the cell).
* An attempt that overruns its deadline is killed and surfaced as
  ``timeout``.
* Workers are spawn-safe: the runner is a picklable module-level callable,
  so the pool works under both the ``fork`` and ``spawn`` start methods.
  A forked worker closes every parent-side pipe end it inherited and
  restores the default SIGTERM/SIGINT dispositions, so a parent killed
  outright leaves no worker behind: its death reaches an idle worker as
  EOF, and a busy one through a thread that watches its parent pid.
  Both signals stay blocked from the fork until that reset, so one sent
  to a just-started worker waits for the default action instead of
  meeting the parent's handler.
* ``stop(drain=True)`` runs every submitted cell to its result, the ones
  no worker has taken yet included.

:func:`run_attempt` is the one body that runs an attempt; the workers and
the in-process ``jobs=1`` campaign path both call it.  It is also the unit
of memory: a finished cell's object graph is freed when its attempt ends.

Chaos hooks: :meth:`CellPool.worker_pids` exposes the live worker processes
so the chaos harness can SIGKILL one mid-cell, and
:meth:`CellPool.kill_workers` forces the abrupt-death path.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from repro.campaign.manifest import STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT
from repro.campaign.spec import Cell
from repro.obs import telemetry as _telemetry

#: worker telemetry spec shipped to the child process:
#: (spool_dir, worker_name, heartbeat_interval)
TelemetrySpec = Tuple[str, str, float]

#: a cell runner maps (cell, attempt) -> summary dict (the _CACHED_FIELDS
#: projection); it must be a module-level callable so spawn can pickle it
CellRunner = Callable[[Cell, int], dict]

#: pool-level result status for a worker that died mid-cell (not a manifest
#: status: the caller maps it to a retry or a terminal error)
STATUS_CRASH = "crash"

#: seconds before the pump retries a free slot that could not take work
RETRY_INTERVAL = 0.1

#: signals a forked worker resets to their default action
_RESET_SIGNALS = (signal.SIGTERM, signal.SIGINT)

#: seconds between a worker's checks that its owner is still alive
OWNER_POLL_INTERVAL = 0.2

#: what a worker's first cell imports (the simulator, numpy, the trace
#: generators); :meth:`CellPool.start` loads them once before the first
#: fork, so forked workers inherit them instead of each importing them
PRELOAD = ("repro.system", "repro.workloads.synthetic", "repro.workloads.multistream")


@dataclass
class PoolResult:
    """One attempt's outcome as surfaced to the pool's caller."""

    cell: Cell
    attempt: int
    status: str  # ok | error | timeout | crash
    payload: Any  # summary dict, error text, or {"error","diagnosis"}
    elapsed: float
    worker: Optional[str] = None  # pool slot name ("w0", ...) for tracing


def activate_telemetry(
    spec: Optional[TelemetrySpec],
) -> Optional[_telemetry.WorkerTelemetry]:
    """Arm this process's heartbeat state file; None when off or unwritable."""
    if spec is None:
        return None
    try:
        return _telemetry.activate_worker(*spec)
    except OSError:
        return None  # unwritable state dir: run blind, never refuse work


def run_attempt(
    runner: CellRunner,
    cell: Cell,
    attempt: int,
    wt: Optional[_telemetry.WorkerTelemetry] = None,
) -> Tuple[str, Any, float]:
    """Run one attempt of ``cell``: ``(status, payload, elapsed)``.

    ``payload`` is the summary when ``status`` is ok.  On an exception it
    is the traceback text, or ``{"error", "diagnosis"}`` when the exception
    carries an integrity-layer diagnosis (which has already written its
    crash dump in this process).  ``wt`` brackets the attempt with the
    telemetry ``cell_start``/``cell_end`` records.

    A simulated system is one large graph of reference cycles (bound
    methods in the hot-path context tuples, back-references to the engine),
    so it dies only in a full collection, which a worker running cell after
    cell rarely reaches.  The attempt therefore collects once the runner
    returns, untimed.  Freezing the heap first keeps that collection to the
    objects the attempt allocated; ``unfreeze`` returns the survivors to the
    oldest generation.
    """
    if wt is not None:
        wt.cell_start(cell, attempt)
    gc.freeze()
    t0 = time.perf_counter()
    try:
        status, payload = STATUS_OK, runner(cell, attempt)
    except Exception as exc:
        status, payload = STATUS_ERROR, traceback.format_exc(limit=8)
        diagnosis = getattr(exc, "report", None)
        if isinstance(diagnosis, dict) and diagnosis:
            payload = {"error": payload, "diagnosis": diagnosis}
    finally:
        # also on KeyboardInterrupt: the heap must not stay frozen
        elapsed = time.perf_counter() - t0
        gc.collect()
        gc.unfreeze()
    if wt is not None:
        wt.cell_end(status, elapsed)
    return status, payload, elapsed


def _exit_with_owner(parent: int) -> None:
    """Exit the worker once its ``parent`` is gone, even in the middle of a
    cell: an orphan is re-parented, so its parent pid changes.  Under
    forkserver the parent is the fork server, which exits with the owner."""
    while os.getppid() == parent:
        time.sleep(OWNER_POLL_INTERVAL)
    os._exit(1)


def _worker_loop(
    conn: Any,
    runner: CellRunner,
    telemetry: Optional[TelemetrySpec] = None,
    inherited: Sequence[Any] = (),
) -> None:
    """Worker process body: run cells off the pipe until told to stop."""
    # A forked child holds copies of the parent's pipe ends (its own and
    # its elder siblings'); while any copy is open, the parent's death is
    # never seen as EOF.  The fork also inherits the parent's signal
    # handlers and asyncio wakeup fd, which would swallow SIGTERM; the
    # parent forked with both signals blocked, so one already sent is
    # delivered at the unblock, under the default action.
    for end in inherited:
        try:
            end.close()
        except OSError:
            pass
    for signum in _RESET_SIGNALS:
        signal.signal(signum, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _RESET_SIGNALS)
    # an idle worker sees its owner's death as EOF; a busy one only here
    threading.Thread(
        target=_exit_with_owner, args=(os.getppid(),), name="repro-owner",
        daemon=True,
    ).start()
    wt = activate_telemetry(telemetry)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        try:
            conn.send(run_attempt(runner, *task, wt))
        except (BrokenPipeError, OSError):
            break
    if wt is not None:
        _telemetry.deactivate_worker()
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """One pool slot: a process, its pipe, and the task it is running."""

    def __init__(
        self,
        ctx: Any,
        runner: CellRunner,
        telemetry: Optional[TelemetrySpec] = None,
        siblings: Sequence[Any] = (),
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        # spawn and forkserver children inherit no pipe ends to close, and
        # no handlers to reset
        fork = ctx.get_start_method() == "fork"
        inherited = [parent_conn, *siblings] if fork else []
        self.proc = ctx.Process(
            target=_worker_loop,
            args=(child_conn, runner, telemetry, inherited),
            daemon=True,
        )
        # the child inherits this thread's mask; _worker_loop unblocks
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _RESET_SIGNALS) if fork else None
        try:
            self.proc.start()
        finally:
            if mask is not None:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[Tuple[Cell, int]] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def assign(self, cell: Cell, attempt: int, timeout: Optional[float]) -> None:
        self.conn.send((cell, attempt))
        self.task = (cell, attempt)
        self.deadline = (time.monotonic() + timeout) if timeout else None

    def take_task(self) -> Tuple[Cell, int]:
        task = self.task
        assert task is not None
        self.task = None
        self.deadline = None
        return task

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2)
            if self.proc.is_alive():  # pragma: no cover - stubborn child
                self.proc.kill()
                self.proc.join(timeout=2)
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Polite stop for an idle worker; escalates to kill."""
        if self.proc.is_alive() and not self.busy:
            try:
                self.conn.send(None)
                self.proc.join(timeout=2)
            except (BrokenPipeError, OSError):
                pass
        self.kill()


class CellPool:
    """A fixed-width pool of persistent cell workers fed by a queue."""

    def __init__(
        self,
        jobs: int,
        runner: CellRunner,
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
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._inbox: "queue.Queue[Tuple[Cell, int]]" = queue.Queue()
        # self-pipe: submit()/stop() write a byte to wake the pump
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._on_result: Optional[Callable[[PoolResult], None]] = None
        self._workers: List[Optional[_Worker]] = [None] * jobs
        self._stop = threading.Event()
        self._idle = threading.Event()  # every submitted cell has its result
        self._idle.set()
        self._outstanding = 0  # submitted cells without a result yet
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self, on_result: Callable[[PoolResult], None]) -> "CellPool":
        if self._ctx.get_start_method() == "fork":
            for name in PRELOAD:
                importlib.import_module(name)
        self._on_result = on_result
        self._thread = threading.Thread(
            target=self._loop, name="repro-cell-pool", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, cell: Cell, attempt: int) -> None:
        with self._lock:
            self._outstanding += 1
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

    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pump; with ``drain``, first let every submitted cell
        finish (up to ``timeout`` seconds), queued ones included."""
        if drain:
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
    def _emit(self, result: PoolResult) -> None:
        cb = self._on_result
        try:
            if cb is not None:
                cb(result)
        except Exception:  # pragma: no cover - a caller bug must not
            pass  # wedge the pump
        with self._lock:
            self._outstanding -= 1
            if not self._outstanding:
                self._idle.set()

    def _spawn(self, slot: int) -> Optional[_Worker]:
        telemetry: Optional[TelemetrySpec] = None
        if self.telemetry_dir is not None:
            # same slot name on respawn: the new worker (new pid) replaces
            # the same state file
            telemetry = (self.telemetry_dir, f"w{slot}", self.telemetry_interval)
        siblings = [w.conn for w in self._workers if w is not None]
        try:
            w = _Worker(self._ctx, self.runner, telemetry, siblings)
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
            # assign backlog to free slots
            if backlog:
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
            # the pump's one blocking point: a result (or a worker death)
            # on a busy pipe, a wake from submit()/stop(), or the nearest
            # cell deadline
            timeout: Optional[float] = None
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            if backlog and len(busy) < self.jobs:
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
    "CellPool",
    "CellRunner",
    "PoolResult",
    "STATUS_CRASH",
    "TelemetrySpec",
    "activate_telemetry",
    "run_attempt",
]
