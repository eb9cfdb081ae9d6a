"""Live campaign telemetry: per-worker heartbeat state files and aggregation.

A running campaign is observable through its manifest plus one *state
file* per worker in a spool directory next to it.  Each worker process
rewrites its file with one compact JSON record (a *heartbeat*) every
``interval`` seconds and at every cell boundary; the campaign process — or
a second terminal, or another host over a shared filesystem — reads the
state files and tails the manifest with :class:`TelemetryAggregator` into
one live :class:`CampaignView`.  The manifest is the only source of
campaign totals (:func:`campaign_status`); state files only describe
workers.  Every consumer reads the same view:
``repro monitor`` and ``repro campaign --watch`` (:mod:`repro.obs.watch`),
and ``/snapshot`` JSON plus ``/metrics`` Prometheus text (see
:mod:`repro.obs.promtext`), served by the one HTTP front end in
:mod:`repro.serve.server` for ``repro serve`` and ``repro campaign
--telemetry-port`` alike.

Zero-cost contract
------------------
Telemetry follows the same rules as the rest of :mod:`repro.obs`:

* **Disabled** (no ``--watch`` / ``--telemetry`` / ``--telemetry-port``): no
  sampler thread exists and the only residue on the hot path is
  :func:`publish_system`'s single ``is None`` check per cell — the pinned
  hot-path digests are byte-identical.
* **Enabled**: sampling is *pull*-based.  A daemon thread wakes every
  ``interval`` seconds and reads live engine state (``engine.now`` and the
  monotonic schedule counter ``engine._seq`` both advance during
  :meth:`~repro.sim.engine.Engine.run`) under the GIL; nothing is written
  into the simulation, no engine events are scheduled, so event order and
  ``events_fired`` — and therefore the pinned digests — are unchanged.
  ``benchmarks/bench_telemetry_overhead.py`` enforces digest parity and the
  < 2 % paired overhead bound in CI.

State-file format
-----------------
One JSON file per worker, ``telemetry-<worker>.json``, holding only the
worker's latest record::

    {"version": 1, "worker": "w0", "pid": 4242, "seq": 7, "ts": 1754556000.6,
     "phase": "running", "cells": {"done": 2, "ok": 2, "failed": 0},
     "cell": {...}, "cycle": 51200, "frozen": 0, ...}

The writer replaces the file atomically (a tmp file, then ``os.replace``)
on every heartbeat and cell boundary, so a reader never sees a torn record.
Records carry *cumulative* worker state (``cells`` done/ok/failed
counters), never deltas, so a reader that misses records converges to the
correct totals from any later one.  ``(pid, seq)`` names one record: a
respawned worker has a new ``pid`` and restarts ``seq``.  The worker
counts ``frozen`` itself (consecutive ``running`` heartbeats of one cell
whose sim-cycle did not move), so stall detection does not depend on how
often a reader polls.  The manifest stays the authoritative exactly-once
record of terminal cells; state files are a live, lossy-but-convergent
overlay.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

TELEMETRY_VERSION = 1

STATE_PREFIX = "telemetry-"
STATE_SUFFIX = ".json"

#: seconds between heartbeats
DEFAULT_INTERVAL = 0.5

#: a worker whose newest heartbeat is older than this is flagged stale
DEFAULT_STALE_AFTER = 5.0

#: consecutive same-cycle running heartbeats before a worker is flagged
#: frozen (the cell's sim-clock stopped advancing between samples); the
#: worker counts them into each record's ``frozen``
FROZEN_SAMPLES = 4


def spool_dir_for(manifest_path: Union[str, Path]) -> Path:
    """Canonical directory of a campaign manifest's worker state files."""
    return Path(str(manifest_path) + ".telemetry")


def state_path(spool_dir: Union[str, Path], worker: str) -> Path:
    """One worker's state file in ``spool_dir``."""
    return Path(spool_dir) / f"{STATE_PREFIX}{worker}{STATE_SUFFIX}"


def rss_bytes() -> int:
    """Resident set size of this process in bytes (0 if unreadable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS
        return peak * 1024 if peak < 1 << 40 else peak
    except Exception:
        return 0


# ----------------------------------------------------------------------
# Worker-side sampler
# ----------------------------------------------------------------------


class WorkerTelemetry:
    """Heartbeat producer for one worker process (or the serial driver).

    A daemon thread samples every ``interval`` seconds; cell boundaries emit
    immediately.  The live :class:`~repro.system.System` is published by
    :func:`publish_system` from inside the cell runner; the sampler only
    *reads* it (``engine.now`` / ``engine._seq`` advance during the run), so
    the simulation never observes the telemetry.

    Every record replaces the worker's state file.  One re-entrant lock
    serializes the sampler thread, the cell runner and the SIGTERM handler
    (which may interrupt a write on the same thread); cell-boundary and exit
    records are also fsynced (boundaries are rare and precious, heartbeats
    frequent and replaceable).
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        worker: str,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.path = state_path(spool_dir, worker)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # per-process tmp name: a respawned worker in the same slot never
        # shares one with a predecessor still finishing a write
        self._tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        self.worker = worker
        self.interval = interval
        self.system: Optional[Any] = None  # published by the cell runner
        self.cell: Optional[dict] = None
        self.cells_done = 0
        self.cells_ok = 0
        self.cells_failed = 0
        self._seq = 0
        self._frozen = 0  # consecutive running heartbeats at one cycle
        self._last_beat: Optional[tuple] = None  # (cell id, cycle)
        self._last_events: Optional[int] = None
        self._last_wall = 0.0
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._exited = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerTelemetry":
        self._emit("idle")
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def write_exit(self, reason: str) -> None:
        """Durably write the terminal exit record, at most once.

        ``reason`` lands in the record so monitors can distinguish a clean
        shutdown from a termination signal from a worker that simply went
        silent (hung / SIGKILLed: no exit record at all).
        """
        with self._lock:
            if self._exited:
                return
            self._exited = True
            self._emit("exit", durable=True, reason=reason)

    def stop(self, reason: str = "clean") -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.write_exit(reason)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                with self._lock:
                    self._emit("running" if self.cell else "idle")
            except Exception:  # pragma: no cover - never kill the worker
                pass

    def _emit(self, phase: str, durable: bool = False, **extra: Any) -> None:
        """Replace the state file with this worker's latest record."""
        with self._lock:
            self._seq += 1
            rec = {
                "version": TELEMETRY_VERSION,
                "worker": self.worker,
                "pid": os.getpid(),
                "seq": self._seq,
                **self._record(phase),
                **extra,
            }
            try:
                with open(self._tmp, "w") as fh:
                    fh.write(json.dumps(rec))
                    if durable:
                        fh.flush()
                        os.fsync(fh.fileno())
                os.replace(self._tmp, self.path)
            except OSError:  # pragma: no cover - disk trouble
                pass  # telemetry must never take the campaign down

    # -- cell boundaries ----------------------------------------------
    def cell_start(self, cell: Any, attempt: int) -> None:
        with self._lock:
            self.cell = {
                "id": cell.cell_id,
                "workload": cell.workload,
                "scheme": cell.scheme,
                "attempt": attempt,
            }
            self._last_events = None
            self._emit("start")

    def cell_end(self, status: str, elapsed: float) -> None:
        with self._lock:
            self.cells_done += 1
            if status == "ok":
                self.cells_ok += 1
            else:
                self.cells_failed += 1
            self._emit("end", durable=True, status=status, elapsed=round(elapsed, 3))
            self.cell = None
            self.system = None

    # -- sampling ------------------------------------------------------
    def _record(self, phase: str) -> dict:
        rec: dict = {
            "ts": time.time(),
            "phase": phase,
            "cells": {
                "done": self.cells_done,
                "ok": self.cells_ok,
                "failed": self.cells_failed,
            },
            "rss": rss_bytes(),
        }
        if self.cell is not None:
            rec["cell"] = dict(self.cell)
        system = self.system
        if system is not None and phase in ("running", "start", "end"):
            try:
                self._sample_system(system, rec)
            except Exception:
                pass  # a half-built system mid-cell must not kill sampling
        beat = None
        if phase == "running" and rec.get("cycle") is not None:
            beat = (rec.get("cell", {}).get("id"), rec["cycle"])
            self._frozen = self._frozen + 1 if beat == self._last_beat else 0
            rec["frozen"] = self._frozen
        else:
            self._frozen = 0
        self._last_beat = beat
        return rec

    def _sample_system(self, system: Any, rec: dict) -> None:
        engine = system.engine
        # engine.now and the schedule counter _seq advance *during* run();
        # events_fired only folds in at run exit, so it is useless live.
        cycle = int(engine.now)
        events = int(engine._seq)
        rec["cycle"] = cycle
        rec["events"] = events
        wall = time.monotonic()
        if self._last_events is not None and wall > self._last_wall:
            rate = (events - self._last_events) / (wall - self._last_wall)
            rec["eps"] = round(max(rate, 0.0), 1)
        self._last_events = events
        self._last_wall = wall
        counters: dict = {}
        watchdog = getattr(engine, "watchdog", None)
        if watchdog is not None:
            counters["integrity.stall_polls"] = int(
                getattr(watchdog, "_stuck_polls", 0)
            )
        host = getattr(system, "host", None)
        if host is not None and host.faults_enabled:
            faults = host.link_fault_summary()
            for key in ("crc_errors", "replays", "retrains", "dropped"):
                if key in faults:
                    counters[f"faults.{key}"] = faults[key]
        if counters:
            rec["counters"] = counters
        sampler = getattr(system, "timeseries", None)
        if sampler is not None:
            rec["samples"] = int(getattr(sampler, "samples_taken", 0))
            gauges: dict = {}
            for name, series in getattr(sampler, "_series", {}).items():
                n = len(series)
                if n:
                    idx = (series._idx - 1) % series.capacity
                    gauges[name] = round(float(series._values[idx]), 6)
            if gauges:
                rec["gauges"] = gauges


# -- module slot the cell runner publishes through ---------------------

_worker: Optional[WorkerTelemetry] = None
_prev_sigterm: Optional[Any] = None
_sigterm_installed = False


def _sigterm_exit_record(signum: int, frame: Any) -> None:
    """SIGTERM handler: durably record *why* this worker went quiet.

    Without this only a clean interpreter exit writes the terminal exit
    record, so ``--watch`` cannot tell "terminated" from "hung".  The
    record is written here, then the previous disposition is restored and
    the signal re-delivered so termination semantics are unchanged.
    """
    w = _worker
    if w is not None:
        try:
            w.write_exit("sigterm")
        except Exception:
            pass
    prev = _prev_sigterm
    try:
        signal.signal(
            signal.SIGTERM, prev if prev is not None else signal.SIG_DFL
        )
    except (ValueError, TypeError, OSError):  # pragma: no cover
        os._exit(143)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_sigterm_handler() -> None:
    global _prev_sigterm, _sigterm_installed
    if _sigterm_installed:
        return
    try:
        _prev_sigterm = signal.signal(signal.SIGTERM, _sigterm_exit_record)
        _sigterm_installed = True
    except ValueError:
        pass  # not the main thread: clean exits still get their record


def _uninstall_sigterm_handler() -> None:
    global _prev_sigterm, _sigterm_installed
    if not _sigterm_installed:
        return
    try:
        signal.signal(
            signal.SIGTERM,
            _prev_sigterm if _prev_sigterm is not None else signal.SIG_DFL,
        )
    except ValueError:  # pragma: no cover - symmetric with install
        pass
    _prev_sigterm = None
    _sigterm_installed = False


def publish_system(system: Optional[Any]) -> None:
    """Hand the live system to the sampler thread, if one is armed.

    One attribute check when telemetry is disabled — the bound-noop pattern
    the hot-path digests rely on.
    """
    w = _worker
    if w is not None:
        w.system = system


def current_worker() -> Optional[WorkerTelemetry]:
    return _worker


def activate_worker(
    spool_dir: Union[str, Path],
    worker: str,
    interval: float = DEFAULT_INTERVAL,
) -> WorkerTelemetry:
    """Arm heartbeat telemetry for this process; replaces any prior sampler."""
    global _worker
    deactivate_worker()
    _worker = WorkerTelemetry(spool_dir, worker, interval).start()
    _install_sigterm_handler()
    return _worker


def deactivate_worker() -> None:
    global _worker
    w = _worker
    _worker = None
    _uninstall_sigterm_handler()
    if w is not None:
        w.stop()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


class WorkerView:
    """Latest known state of one worker, with stall tracking."""

    def __init__(self, worker: str) -> None:
        self.worker = worker
        self.pid: Optional[int] = None
        self.record: dict = {}
        self.updated: float = 0.0  # local monotonic time of last new record

    def update(self, rec: dict, now: float) -> None:
        self.record = rec
        self.pid = rec.get("pid", self.pid)
        self.updated = now

    def age(self, now: float) -> float:
        return max(0.0, now - self.updated)

    def stall_reason(self, now: float, stale_after: float) -> Optional[str]:
        """Why this worker looks wedged, or None if it looks healthy."""
        phase = self.record.get("phase")
        if phase == "exit":
            return None
        stall_polls = (self.record.get("counters") or {}).get(
            "integrity.stall_polls", 0
        )
        if stall_polls:
            return f"watchdog: {stall_polls} stalled poll(s)"
        if phase == "running" and self.record.get("frozen", 0) >= FROZEN_SAMPLES:
            return f"sim-cycle frozen at {self.record.get('cycle')}"
        if self.age(now) > stale_after:
            return f"no heartbeat for {self.age(now):.0f}s"
        return None

    def to_dict(self, now: float, stale_after: float) -> dict:
        rec = self.record
        out = {
            "worker": self.worker,
            "pid": self.pid,
            "phase": rec.get("phase", "unknown"),
            "age_seconds": round(self.age(now), 3),
            "cells": rec.get("cells", {}),
            "rss": rec.get("rss", 0),
        }
        for key in (
            "cell",
            "cycle",
            "events",
            "eps",
            "counters",
            "gauges",
            "reason",
        ):
            if key in rec:
                out[key] = rec[key]
        stall = self.stall_reason(now, stale_after)
        out["stalled"] = stall is not None
        if stall:
            out["stall_reason"] = stall
        return out


def campaign_status(
    records: Iterable[Any], total: Optional[int] = None, jobs: int = 1
) -> dict:
    """The live ``campaign`` block, derived from terminal cell records alone.

    ``executed`` counts records not served from the result log and
    ``retried`` is the sum of ``attempts - 1``.  ``eta_seconds`` is None
    until one cell has run: the mean ``elapsed`` of executed records (cache
    hits finish in ~0 s and would drag the mean toward zero) times the
    remaining cells, divided by the effective parallelism
    ``min(jobs, remaining)`` - with 3 cells left an 8-worker pool runs at
    most 3 of them, so dividing by 8 would understate every campaign's tail.
    """
    done = ok = cached = retried = 0
    elapsed = 0.0
    for rec in records:
        done += 1
        ok += rec.ok
        retried += max(rec.attempts - 1, 0)
        if rec.cached:
            cached += 1
        else:
            elapsed += rec.elapsed
    executed = done - cached
    eta = None
    if executed and total is not None:
        remaining = total - done
        eta = 0.0
        if remaining > 0:
            eta = round(remaining * elapsed / executed / min(jobs, remaining), 3)
    return {
        "total": total,
        "done": done,
        "ok": ok,
        "failed": done - ok,
        "cached": cached,
        "executed": executed,
        "retried": retried,
        "jobs": jobs,
        "eta_seconds": eta,
    }


class CampaignView:
    """Merged live state of one campaign: workers from their state files,
    every count from the manifest."""

    def __init__(self, stale_after: float = DEFAULT_STALE_AFTER) -> None:
        self.workers: Dict[str, WorkerView] = {}
        self.manifest_meta: dict = {}  # manifest header fields (cells, jobs)
        #: cell_id -> last terminal CellRecord
        self.manifest_cells: Dict[str, Any] = {}
        self.stale_after = stale_after

    # -- derived -------------------------------------------------------
    def grid_records(self) -> Dict[str, Any]:
        """The manifest's terminal records of this run's grid: those the
        last header's ``cell_ids`` name, or every one when it names none.
        A campaign resumed with a smaller grid is not credited with the
        cells an earlier run finished outside it."""
        ids = self.manifest_meta.get("cell_ids")
        if not isinstance(ids, list):
            return self.manifest_cells
        grid = set(ids)
        # manifest order, so failures() still lists the most recent last
        return {cid: rec for cid, rec in self.manifest_cells.items() if cid in grid}

    def campaign(self) -> dict:
        """:func:`campaign_status` over :meth:`grid_records`, against the
        header's ``cells`` and ``jobs``."""
        total = self.manifest_meta.get("cells")
        jobs = self.manifest_meta.get("jobs")
        return campaign_status(
            self.grid_records().values(),
            total if isinstance(total, int) else None,
            jobs if isinstance(jobs, int) and jobs > 0 else 1,
        )

    def failures(self, limit: int = 5) -> List[dict]:
        """Most recent failed cells, with any watchdog diagnosis attached."""
        bad = [
            {
                "cell_id": cid,
                "workload": rec.workload,
                "scheme": rec.scheme,
                "status": rec.status,
                "diagnosis": rec.diagnosis,
            }
            for cid, rec in self.grid_records().items()
            if not rec.ok
        ]
        return bad[-limit:]

    def to_snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-ready snapshot served at ``/snapshot`` and rendered by UIs."""
        now = time.monotonic() if now is None else now
        campaign = self.campaign()
        return {
            "version": TELEMETRY_VERSION,
            "ts": time.time(),
            "campaign": campaign,
            # the counts the /snapshot wire contract names under "manifest"
            "manifest": {
                k: campaign[k] for k in ("total", "done", "ok", "failed", "cached")
            },
            "workers": [
                self.workers[name].to_dict(now, self.stale_after)
                for name in sorted(self.workers)
            ],
            "failures": self.failures(),
        }


class TelemetryAggregator:
    """Read the worker state files and tail the manifest (either optional)
    into a CampaignView.

    :meth:`refresh` is cheap and incremental — safe to call from a UI loop
    and an HTTP handler concurrently (internally serialized).
    """

    def __init__(
        self,
        spool_dir: Optional[Union[str, Path]],
        manifest_path: Optional[Union[str, Path]] = None,
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        from repro.campaign.manifest import ManifestFollower

        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.view = CampaignView(stale_after=stale_after)
        self._manifest = (
            ManifestFollower(manifest_path) if manifest_path is not None else None
        )
        self._lock = threading.RLock()

    def refresh(self) -> CampaignView:
        with self._lock:
            self._poll_workers()
            self._poll_manifest()
            return self.view

    def snapshot(self) -> dict:
        """Refresh, then :meth:`CampaignView.to_snapshot` under the same
        lock, so a concurrent refresh cannot change the view mid-read."""
        with self._lock:
            return self.refresh().to_snapshot()

    def _poll_workers(self) -> None:
        if self.spool_dir is None:
            return
        try:
            names = sorted(os.listdir(self.spool_dir))
        except OSError:
            return
        now = time.monotonic()
        for name in names:
            if not (name.startswith(STATE_PREFIX) and name.endswith(STATE_SUFFIX)):
                continue
            try:
                with open(self.spool_dir / name, "rb") as fh:
                    rec = json.loads(fh.read())
            except (OSError, ValueError):
                continue  # replaced or removed between listdir and open
            if not isinstance(rec, dict) or rec.get("version") != TELEMETRY_VERSION:
                continue
            worker = rec.get("worker") or name[len(STATE_PREFIX) : -len(STATE_SUFFIX)]
            wv = self.view.workers.get(worker)
            if wv is None:
                wv = self.view.workers[worker] = WorkerView(worker)
            elif (rec.get("pid"), rec.get("seq")) == (
                wv.record.get("pid"),
                wv.record.get("seq"),
            ):
                continue  # no new record: the heartbeat age keeps growing
            wv.update(rec, now)

    def _poll_manifest(self) -> None:
        if self._manifest is None:
            return
        # the manifest's own fold: claim, tick and span lines never count
        # as cells, and a fresh header (reset/rotation) restarts the view
        self._manifest.poll()
        self.view.manifest_meta = self._manifest.scan.meta
        self.view.manifest_cells = self._manifest.scan.records
