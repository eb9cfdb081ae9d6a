"""The campaign service: an asyncio front end over the campaign cell pool.

Two cooperating layers live here:

* :class:`ServeScheduler` — the headless node.  Owns the manifest-backed
  :class:`~repro.serve.steal.WorkQueue`, a long-lived
  :class:`~repro.campaign.pool.CellPool` (the pool ``run_campaign`` uses),
  the :class:`~repro.serve.admission.AdmissionController`, and the
  :class:`~repro.serve.jobs.JobRegistry`.  Several nodes may share one
  manifest (work stealing); the chaos harness runs nodes with no HTTP
  listener at all.  Attempts settle through the campaign's policy
  (:func:`~repro.campaign.executor.settle`) and new cells resolve through
  :func:`~repro.campaign.executor.resolved_record`; only crash handling
  is the node's own: a worker that died mid-cell is always requeued.
* :class:`ServeService` — the wire front end: one ``asyncio.start_server``
  socket speaking both HTTP/1.1 (hand-parsed, stdlib only) and raw
  newline-delimited JSON (a connection whose first byte is ``{`` is a JSONL
  session).  Endpoints: ``POST /submit``, ``GET /jobs/<id>``,
  ``/healthz``, ``/readyz``, ``/snapshot``, ``/metrics``, ``POST /drain``.
  Its HTTP half is :class:`HttpFront`, the one HTTP implementation: ``repro
  campaign --telemetry-port`` runs a bare front (``/snapshot`` and
  ``/metrics`` only) on a loop thread.

Degradation ladder (documented in docs/API.md):

1. **healthy** — admitting on both lanes, `/healthz` and `/readyz` 200.
2. **saturated** — a lane budget is full: submissions shed with 429 +
   ``retry_after`` while accepted work drains normally.
3. **draining** — SIGTERM (or ``POST /drain``): `/readyz` flips to 503
   immediately, submissions get 503, and every queued cell goes back into
   the manifest as an already-expired claim; in-flight cells finish, any
   cell still unfinished is released the same way, then the process exits.
   A peer (or a restart with ``resume=True``) steals the released cells on
   its first tick with nothing lost; they count in its ``stolen_total``
   and get a ``steal`` span.
4. **dead** — no clean exit.  The manifest's claim leases expire under the
   survivors' logical clock and peers steal the orphaned cells.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from collections import deque

from repro.campaign.executor import (
    cell_report_path,
    execute_cell,
    log_result,
    resolved_record,
    retry_delay,
    settle,
)
from repro.campaign.manifest import CellRecord, Manifest, ManifestFollower
from repro.campaign.pool import STATUS_CRASH, CellPool, CellRunner, PoolResult
from repro.campaign.spec import Cell
from repro.experiments.runner import default_cache
from repro.obs import telemetry as _telemetry
from repro.obs.spans import (
    STAGE_ADMIT,
    STAGE_CLAIM,
    STAGE_EXECUTE,
    STAGE_MERGE,
    STAGE_QUEUE,
    STAGE_STEAL,
    SpanLog,
    attribution,
    critical_path_text,
    mint_trace_id,
    parse_traceparent,
)
from repro.serve.admission import (
    LANE_BULK,
    LANE_QUICK,
    AdmissionController,
    LatencyTracker,
    infer_lane,
)
from repro.serve.jobs import (
    CELL_DONE,
    CELL_PENDING,
    CELL_QUARANTINED,
    CELL_RUNNING,
    CellState,
    Job,
    JobRegistry,
    SpecError,
    cell_from_spec,
)
from repro.serve.steal import DEFAULT_LEASE_TICKS, WorkQueue


class Saturated(Exception):
    """Submission shed by admission control."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"saturated; retry after {retry_after}s")
        self.retry_after = retry_after


class Draining(Exception):
    """Submission refused because the node is shutting down."""


@dataclass
class ServeConfig:
    """Everything one node needs; shared by `repro serve` and chaos nodes."""

    manifest: str
    jobs: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    resume: bool = False
    retries: int = 1
    timeout: Optional[float] = None
    quick_cap: int = 64
    bulk_cap: int = 256
    lease_ticks: int = DEFAULT_LEASE_TICKS
    tick_interval: float = 0.25
    crash_backoff: float = 0.05  # base for crash-requeue jitter
    drain_grace: float = 30.0  # seconds to let in-flight cells finish
    worker_name: Optional[str] = None  # default: s<pid>
    use_cache: bool = True
    telemetry: bool = True
    telemetry_interval: float = 0.5
    #: headless fleet mode: exit once every claim in the manifest is terminal
    exit_when_complete: bool = False
    start_method: Optional[str] = None
    #: causal span tracing (repro.obs.spans); off = no span records at all
    spans: bool = True
    #: directory for per-cell RunReport artifacts, served by
    #: ``GET /jobs/<id>/report`` and ``/jobs/<id>/dash.html``
    report_dir: Optional[str] = None

    @property
    def name(self) -> str:
        return self.worker_name or f"s{os.getpid()}"


class ServeScheduler:
    """One scheduler node: admission -> claims -> pool -> manifest."""

    def __init__(
        self,
        cfg: ServeConfig,
        runner: CellRunner = execute_cell,
        cache: Optional[Manifest] = None,
    ) -> None:
        self.cfg = cfg
        self.manifest = Manifest(cfg.manifest)
        self.queue = WorkQueue(self.manifest, cfg.name, cfg.lease_ticks)
        self.spans = SpanLog(self.manifest, cfg.name, enabled=cfg.spans)
        if cfg.report_dir is not None and runner is execute_cell:
            # mirror run_campaign: only the default runner understands the
            # report_dir kwarg; custom runners opt in themselves
            os.makedirs(cfg.report_dir, exist_ok=True)
            runner = functools.partial(
                execute_cell, report_dir=str(cfg.report_dir)
            )
        self.registry = JobRegistry()
        self.admission = AdmissionController(
            quick_cap=cfg.quick_cap, bulk_cap=cfg.bulk_cap, jobs=cfg.jobs
        )
        self.latency = LatencyTracker()
        self.cells: Dict[str, CellState] = self.registry.cells
        self.pending: Dict[str, Deque[str]] = {
            LANE_QUICK: deque(),
            LANE_BULK: deque(),
        }
        if cache is None and cfg.use_cache:
            cache = default_cache()
        #: the result log, followed so each submission sees the records
        #: appended since the last one (by this node or any other writer)
        self.cache = cache
        self._cached = ManifestFollower(cache.path) if cache is not None else None
        self.telemetry_dir: Optional[str] = None
        if cfg.telemetry:
            tdir = _telemetry.spool_dir_for(cfg.manifest)
            tdir.mkdir(parents=True, exist_ok=True)
            self.telemetry_dir = str(tdir)
        self._view = _telemetry.TelemetryAggregator(
            self.telemetry_dir, manifest_path=cfg.manifest
        )
        self.pool = CellPool(
            cfg.jobs,
            runner,
            timeout=cfg.timeout,
            telemetry_dir=self.telemetry_dir,
            telemetry_interval=cfg.telemetry_interval,
            start_method=cfg.start_method,
        )
        self.inflight = 0
        self.completed_cells = 0  # executed (not cached/resumed) terminals
        self.quarantined_total = 0
        self.started_at = time.monotonic()
        self.draining = False
        self.stopped = asyncio.Event()
        self._resume_records: Dict[str, CellRecord] = {}
        self._unrecorded: List[CellRecord] = []
        #: cells handed back to the manifest by the drain
        self._released: Set[str] = set()
        self._job_events: Dict[str, asyncio.Event] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.cfg.resume and self.manifest.path.exists():
            scan = self.queue.attach()
            self._resume_records = dict(scan.records)
        else:
            self.manifest.reset(meta={"jobs": self.cfg.jobs, "serve": True})
            self.queue.attach()
        self.pool.start(self._pool_result_threadsafe)
        self._tick_task = asyncio.create_task(self._run())

    def begin_drain(self) -> None:
        """Flip to draining; idempotent; safe from a signal handler."""
        if self.draining:
            return
        self.draining = True
        if self._loop is not None and self._drain_task is None:
            self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        # hand the queued cells to peers first: one waiting for every claim
        # in the manifest to settle must see them before our in-flight
        # cells land, or it takes the manifest for complete
        self._release_unfinished(running=False)
        # let in-flight cells finish (their results still flow through the
        # normal path and land in the manifest), then stop the pump
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.pool.stop(drain=True, timeout=self.cfg.drain_grace)
        )
        self._flush_unrecorded()
        # cells requeued during the drain, or cut off by its grace period
        self._release_unfinished(running=True)
        if self._tick_task is not None:
            self._tick_task.cancel()
        self.stopped.set()

    async def aclose(self) -> None:
        """Hard stop (tests): no drain, nothing released."""
        if self._tick_task is not None:
            self._tick_task.cancel()
        if self._drain_task is not None:
            await asyncio.gather(self._drain_task, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.pool.stop(drain=False, timeout=1.0)
        )
        self.stopped.set()

    # ------------------------------------------------------------------
    # Submission path (called from the event loop)
    # ------------------------------------------------------------------
    def submit(
        self,
        specs: List[dict],
        lane: Optional[str] = None,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Admit one job; raises Saturated/Draining/SpecError.

        ``trace_id`` is the client-supplied trace (already validated by
        :func:`repro.obs.spans.parse_traceparent`); with spans enabled a
        missing one is minted here — the admission point is where the
        causal chain starts.
        """
        t0 = time.perf_counter()
        wall0 = time.time()
        if trace_id is None and self.spans.enabled:
            trace_id = mint_trace_id()
        if self.draining:
            raise Draining("node is draining")
        if not specs:
            raise SpecError("submission carries no cells")
        cells = [cell_from_spec(s) for s in specs]
        if lane is None:
            lanes = {infer_lane(s) for s in specs}
            lane = LANE_BULK if LANE_BULK in lanes else LANE_QUICK
        elif lane not in (LANE_QUICK, LANE_BULK):
            raise SpecError(f"unknown lane {lane!r}")
        # dedupe within the submission, then against live/terminal state
        unique: Dict[str, Tuple[Cell, dict]] = {}
        for cell, spec in zip(cells, specs):
            unique.setdefault(cell.cell_id, (cell, dict(spec)))
        # new cells satisfied by the manifest (resume) or the result log
        # take no queue capacity
        cached = self._cached_records()
        resolved = {
            cid: resolved_record(cell, self._resume_records, cached)
            for cid, (cell, _) in unique.items()
            if cid not in self.cells
        }
        needs_slot = sum(1 for rec in resolved.values() if rec is None)
        verdict = self.admission.try_admit(lane, needs_slot)
        if verdict is not None:
            raise Saturated(verdict)
        job = Job(
            job_id=self.registry.new_job_id(),
            cell_ids=list(unique),
            lane=lane,
            submitted=time.monotonic(),
            deadline=(
                time.monotonic() + deadline_s if deadline_s is not None else None
            ),
            trace_id=trace_id,
        )
        self.registry.add(job)
        self._job_events[job.job_id] = asyncio.Event()
        for cid, (cell, spec) in unique.items():
            state = self.cells.get(cid)
            if state is None:
                state = self.cells[cid] = CellState(
                    cell=cell, spec=spec, lane=lane, trace_id=trace_id
                )
                if not self._resolve(state, resolved[cid]):
                    state.enqueued = time.monotonic()
                    self.pending[lane].append(cid)
            elif state.trace_id is None:
                state.trace_id = trace_id
            state.jobs.add(job.job_id)
            if state.terminal:
                job.done.add(cid)
        if len(job.done) >= len(job.cell_ids):
            job.status = "done"
            self._job_finished(job)
        elapsed = time.perf_counter() - t0
        self.latency.observe(elapsed)
        self.spans.record(
            STAGE_ADMIT,
            trace_id,
            wall0,
            elapsed,
            job=job.job_id,
            lane=lane,
            cells=len(unique),
        )
        self._dispatch()
        out = {
            "job": job.job_id,
            "status": job.status,
            "lane": lane,
            "cells": list(unique),
        }
        if trace_id is not None:
            out["trace"] = trace_id
        return out

    def _cached_records(self) -> Dict[str, CellRecord]:
        """The result log's records, folded up to its current end."""
        if self._cached is None:
            return {}
        self._cached.poll()
        return self._cached.scan.records

    def _resolve(self, state: CellState, rec: Optional[CellRecord]) -> bool:
        """Satisfy a new cell with its :func:`resolved_record`, if any."""
        if rec is None:
            return False
        if rec is self._resume_records.get(state.cell_id):
            state.record = rec
            state.status = (
                CELL_QUARANTINED if rec.diagnosis is not None else CELL_DONE
            )
            self.queue.mark(rec)
        else:
            self._finish(state, rec, executed=False)
        return True

    # ------------------------------------------------------------------
    # Dispatch / results
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Move pending cells into the pool: quick lane first, bounded by
        pool width (claimed-but-queued cells would just burn lease)."""
        if self.draining:
            return
        while self.inflight < self.cfg.jobs:
            cid = self._pop_pending()
            if cid is None:
                return
            state = self.cells.get(cid)
            if state is None or state.terminal:
                continue
            self._launch(state, state.attempts + 1)

    def _pop_pending(self) -> Optional[str]:
        for lane in (LANE_QUICK, LANE_BULK):
            q = self.pending[lane]
            while q:
                cid = q.popleft()
                state = self.cells.get(cid)
                if state is None or state.status != CELL_PENDING:
                    continue
                if state.jobs and self.registry.live_refs(cid) == 0:
                    # every job wanting this cell expired while it queued
                    self.admission.release(lane)
                    continue
                self.admission.release(lane)
                return cid
        return None

    def _launch(self, state: CellState, attempt: int) -> None:
        if state.enqueued is not None:
            age = max(0.0, time.monotonic() - state.enqueued)
            state.enqueued = None
            self.admission.observe_queue_age(state.lane, age)
            self.spans.record(
                STAGE_QUEUE,
                state.trace_id,
                time.time() - age,
                age,
                cell_id=state.cell_id,
                lane=state.lane,
            )
        claim_wall = time.time()
        claim_t0 = time.perf_counter()
        try:
            self.queue.claim(state.cell_id, state.spec, trace=state.trace_id)
        except OSError:
            # claim did not land (e.g. ENOSPC): run anyway — claims are an
            # optimization for peers; the terminal record is what matters
            pass
        else:
            self.spans.record(
                STAGE_CLAIM,
                state.trace_id,
                claim_wall,
                time.perf_counter() - claim_t0,
                cell_id=state.cell_id,
                gen=self.queue.gen,
                clock=self.queue.clock,
            )
        state.status = CELL_RUNNING
        state.attempts = attempt
        self.inflight += 1
        self.pool.submit(state.cell, attempt)

    def _pool_result_threadsafe(self, res: PoolResult) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._on_result, res)

    def _on_result(self, res: PoolResult) -> None:
        self.inflight = max(0, self.inflight - 1)
        state = self.cells.get(res.cell.cell_id)
        if state is None or state.terminal:
            self._dispatch()  # zombie result for a stolen/finished cell
            return
        self.spans.record(
            STAGE_EXECUTE,
            state.trace_id,
            time.time() - max(0.0, res.elapsed),
            res.elapsed,
            cell_id=state.cell_id,
            status=res.status,
            attempt=res.attempt,
            **({"slot": res.worker} if res.worker else {}),
        )
        if res.status == STATUS_CRASH:
            # infrastructure death, not a cell verdict: always re-run, with
            # deterministic jitter so a mass worker death cannot stampede
            state.crashes += 1
            self._requeue_later(
                state,
                retry_delay(
                    state.cell_id,
                    state.crashes,
                    self.cfg.crash_backoff,
                    cap=2.0,
                ),
            )
        else:
            rec = settle(
                state.cell,
                res.attempt,
                res.status,
                res.payload,
                res.elapsed,
                self.cfg.retries,
            )
            if rec is None:
                self._requeue_later(
                    state,
                    retry_delay(state.cell_id, res.attempt, self.cfg.crash_backoff),
                )
            else:
                # a diagnosed integrity failure is deterministic: quarantine
                quarantine = rec.diagnosis is not None
                if quarantine:
                    self.quarantined_total += 1
                self._finish(state, rec, executed=True, quarantine=quarantine)
        self._dispatch()

    def _requeue_later(self, state: CellState, delay: float) -> None:
        state.status = CELL_PENDING
        if self._loop is None or self.draining:
            return  # draining: stays pending, released at the drain's end

        def _again() -> None:
            if state.terminal or state.status != CELL_PENDING or self.draining:
                return
            if self.inflight < self.cfg.jobs:
                self._launch(state, state.attempts + 1)
            else:
                state.enqueued = time.monotonic()
                self.pending[state.lane].appendleft(state.cell_id)
                self.admission.queued[state.lane] += 1

        self._loop.call_later(delay, _again)

    def _finish(
        self,
        state: CellState,
        rec: CellRecord,
        executed: bool,
        quarantine: bool = False,
    ) -> None:
        if (
            executed
            and rec.ok
            and rec.report is None
            and self.cfg.report_dir is not None
        ):
            report = cell_report_path(self.cfg.report_dir, rec.cell_id)
            if report.exists():
                rec.report = str(report)
        merge_wall = time.time()
        merge_t0 = time.perf_counter()
        try:
            self.queue.record(rec)
        except OSError:
            # full disk mid-merge: keep the record in memory and retry the
            # append every tick until the write lands
            self._unrecorded.append(rec)
            self.queue.release(rec.cell_id)
        if executed:
            self.spans.record(
                STAGE_MERGE,
                state.trace_id,
                merge_wall,
                time.perf_counter() - merge_t0,
                cell_id=state.cell_id,
                status=rec.status,
            )
        state.record = rec
        state.status = CELL_QUARANTINED if quarantine else CELL_DONE
        if executed:
            self.completed_cells += 1
            if rec.ok:
                self.admission.observe_cell_seconds(rec.elapsed, lane=state.lane)
            log_result(self.cache, rec)
        for job in self.registry.cell_done(state.cell_id):
            self._job_finished(job)

    def _job_finished(self, job: Job) -> None:
        """Wake the job's waiters and drop its event: a ``wait`` on a
        finished job answers at once without one."""
        event = self._job_events.pop(job.job_id, None)
        if event is not None:
            event.set()

    def _flush_unrecorded(self) -> None:
        still: List[CellRecord] = []
        for rec in self._unrecorded:
            try:
                self.manifest.append(rec)
                self.queue.mark(rec)
            except OSError:
                still.append(rec)
        self._unrecorded = still

    # ------------------------------------------------------------------
    # Tick loop: clock, renewals, stealing, expiry
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.tick_interval)
            try:
                self._tick_cycle()
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except Exception:  # pragma: no cover - the loop must survive
                pass
            if self.cfg.exit_when_complete and self._complete():
                self.begin_drain()
                return

    def _tick_cycle(self) -> None:
        try:
            self.queue.tick()
        except OSError:
            pass  # ticks are disposable; a full disk only slows stealing
        try:
            scan = self.queue.scan()
        except OSError:
            return
        self._absorb_peer_records(scan)
        self._flush_unrecorded()
        # renew leases on cells we are actively running
        for cid in self.queue.renewals_due(scan):
            state = self.cells.get(cid)
            if state is not None and state.status == CELL_RUNNING:
                try:
                    # carry the trace on renewals too, or a death after a
                    # renewal would strand the stolen cell off its trace
                    self.queue.claim(cid, state.spec, trace=state.trace_id)
                except OSError:
                    pass
            else:
                self.queue.release(cid)
        # steal expired orphans (admission-exempt: already admitted once)
        if not self.draining:
            for cid, spec in self.queue.steals(scan):
                if self.inflight >= self.cfg.jobs * 2:
                    break  # bounded theft: leave the rest for other peers
                claim = scan.claims.get(cid)
                trace = claim.trace if claim is not None else None
                state = self.cells.get(cid)
                if state is None:
                    try:
                        cell = cell_from_spec(spec)
                    except SpecError:
                        continue
                    state = self.cells[cid] = CellState(
                        cell=cell,
                        spec=spec,
                        lane=infer_lane(spec),
                        trace_id=trace,
                    )
                    rec = resolved_record(
                        cell, self._resume_records, self._cached_records()
                    )
                    if self._resolve(state, rec):
                        continue  # the result log already holds it
                if state.status != CELL_PENDING or state.terminal:
                    continue
                if state.trace_id is None:
                    # adopt the trace riding in the dead owner's claim: the
                    # stolen cell stays on the submission's causal chain
                    state.trace_id = trace
                state.stolen = True
                self.queue.stolen_total += 1
                self.spans.record(
                    STAGE_STEAL,
                    state.trace_id,
                    time.time(),
                    0.0,
                    cell_id=cid,
                    **(
                        {"from_worker": claim.worker, "from_gen": claim.gen}
                        if claim is not None
                        else {}
                    ),
                )
                self._launch(state, state.attempts + 1)
        # job deadlines: queued cells of expired jobs stop occupying lanes
        for job in self.registry.expire_due():
            self._job_finished(job)
        self._dispatch()

    def _absorb_peer_records(self, scan: Any) -> None:
        """Fold terminal records written by peers into local cell state
        (``scan.records`` holds only those folded since the last tick)."""
        for cid, rec in scan.records.items():
            state = self.cells.get(cid)
            if state is None or state.terminal:
                continue
            if state.status == CELL_PENDING:
                # a peer finished it first: drop our queued copy
                try:
                    self.pending[state.lane].remove(cid)
                    self.admission.release(state.lane)
                except ValueError:
                    pass
            self._finish(state, rec, executed=False)

    def _complete(self) -> bool:
        claims = self.queue.claims
        if not claims:
            return False
        return (
            claims.keys() <= self.queue.done
            and self.inflight == 0
            and not any(self.pending.values())
        )

    # ------------------------------------------------------------------
    # Drain hand-off
    # ------------------------------------------------------------------
    def _release_unfinished(self, running: bool) -> None:
        """Write every unfinished cell back into the manifest as an
        already-expired claim (:meth:`WorkQueue.seed`), so any peer, or this
        node restarted with ``resume=True``, steals it.  Cells still running
        here are included only with ``running`` (once the pool has stopped)."""
        cells = [
            (s.cell_id, s.spec, s.trace_id)
            for s in self.cells.values()
            if not s.terminal
            and s.cell_id not in self._released
            and (running or s.status != CELL_RUNNING)
        ]
        try:
            self.queue.seed(cells)
        except OSError:
            return  # claimed cells' leases still expire; retried at the end
        self._released.update(cid for cid, _spec, _trace in cells)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def serve_stats(self) -> dict:
        p99 = self.latency.quantile(0.99)
        return {
            "worker": self.cfg.name,
            "gen": self.queue.gen,
            "clock": self.queue.clock,
            "draining": self.draining,
            "inflight": self.inflight,
            "pending": {lane: len(q) for lane, q in self.pending.items()},
            "jobs": self.registry.counts(),
            "admission": self.admission.snapshot(),
            "stolen_total": self.queue.stolen_total,
            "quarantined_total": self.quarantined_total,
            "completed_cells": self.completed_cells,
            "unrecorded": len(self._unrecorded),
            "admission_p99_seconds": p99,
            "spans": self.spans.snapshot(),
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
        }

    def job_info(self, job: Job) -> dict:
        """Job status plus span-derived per-stage wall-clock attribution."""
        out = job.to_dict(self.cells)
        for cid, entry in out["cells"].items():
            stages = self.spans.by_cell.get(cid)
            if stages:
                entry["stages"] = {k: round(v, 6) for k, v in stages.items()}
        totals = self.spans.stage_totals(job.cell_ids)
        fracs = attribution(totals)
        if fracs:
            out["stages"] = {k: round(v, 6) for k, v in totals.items()}
            out["critical_path"] = fracs
            out["critical_path_text"] = critical_path_text(fracs)
        return out

    def job_report_paths(self, job: Job) -> Dict[str, str]:
        """cell_id -> on-disk RunReport path for cells that wrote one."""
        out: Dict[str, str] = {}
        for cid in job.cell_ids:
            state = self.cells.get(cid)
            rec = state.record if state is not None else None
            path = rec.report if rec is not None else None
            if path is None and self.cfg.report_dir is not None:
                candidate = cell_report_path(self.cfg.report_dir, cid)
                if candidate.exists():
                    path = str(candidate)
            if path is not None and os.path.exists(path):
                out[cid] = path
        return out

    def job_reports(self, job: Job) -> dict:
        """The job's RunReport artifacts as one JSON payload (wire form)."""
        reports: Dict[str, Any] = {}
        for cid, path in self.job_report_paths(job).items():
            try:
                with open(path) as fh:
                    reports[cid] = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
        return {
            "job": job.job_id,
            "report_dir": self.cfg.report_dir,
            "reports": reports,
        }

    def job_dash(self, job: Job) -> str:
        """The run-report dashboard for this job, rendered server-side."""
        from repro.obs.html import render_html
        from repro.obs.report import RunReport

        reports = []
        for _cid, path in sorted(self.job_report_paths(job).items()):
            try:
                reports.append(RunReport.load(path))
            except Exception:
                continue
        return render_html(reports, title=f"repro serve job {job.job_id}")

    def snapshot(self) -> dict:
        """The campaign view of this node's manifest (and worker state files),
        plus the node's own ``serve`` block."""
        snap = self._view.snapshot()
        snap["serve"] = self.serve_stats()
        return snap


# ----------------------------------------------------------------------
# Wire front end
# ----------------------------------------------------------------------

_MAX_BODY = 8 * 1024 * 1024


class HttpFront:
    """One asyncio listener speaking hand-parsed HTTP/1.1.

    Serves ``GET /snapshot`` (JSON) and ``GET /metrics`` (Prometheus text,
    :mod:`repro.obs.promtext`) from ``snapshot_fn()`` and answers 404 for
    anything else; :class:`ServeService` adds its routes and the JSONL
    protocol on top.  Run it inside an event loop with :meth:`listen` /
    :meth:`close`, or on its own loop thread with :meth:`start_thread` /
    :meth:`stop_thread`.
    """

    def __init__(
        self, snapshot_fn: Any, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.snapshot_fn = snapshot_fn
        self.host = host
        self.port = port  # replaced with the bound port by listen()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def listen(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def start_thread(self) -> "HttpFront":
        """Listen on a fresh event loop in a daemon thread."""
        loop = self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=loop.run_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self.listen(), loop).result(timeout=30)
        return self

    def stop_thread(self) -> None:
        loop = self._loop
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.close(), loop).result(timeout=5)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=5)
        loop.close()
        self._loop = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if first:
                await self._session(first, reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # dropped client mid-stream: admitted work continues
        except Exception:  # pragma: no cover - handler must never kill loop
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _session(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one connection whose first line is ``first``."""
        await self._http_request(first, reader, writer)

    async def _http_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await _respond(writer, 400, {"error": "malformed request line"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" in line:
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                await _respond(writer, 400, {"error": "bad Content-Length"})
                return
            if n > _MAX_BODY:
                await _respond(writer, 413, {"error": "body too large"})
                return
            if n:
                body = await reader.readexactly(n)
        path = target.split("?", 1)[0]
        await self._route(writer, method, path, body, headers)

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if method == "GET" and path == "/snapshot":
            await _respond(writer, 200, self.snapshot_fn())
        elif method == "GET" and path == "/metrics":
            from repro.obs.promtext import render_metrics

            await _respond(
                writer,
                200,
                render_metrics(self.snapshot_fn()).encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            await _respond(writer, 404, {"error": f"no route {method} {path}"})


class ServeService(HttpFront):
    """HTTP + JSONL listener bound to one :class:`ServeScheduler`."""

    def __init__(
        self,
        cfg: ServeConfig,
        runner: CellRunner = execute_cell,
        cache: Optional[Manifest] = None,
    ) -> None:
        self.cfg = cfg
        self.node = ServeScheduler(cfg, runner=runner, cache=cache)
        super().__init__(self.node.snapshot, cfg.host, cfg.port)

    async def start(self) -> "ServeService":
        await self.node.start()
        await self.listen()
        return self

    async def stop(self) -> None:
        await self.close()
        await self.node.aclose()

    # -- JSONL protocol ------------------------------------------------
    async def _session(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """A connection whose first byte is ``{`` speaks JSONL, else HTTP."""
        if not first.lstrip().startswith(b"{"):
            await self._http_request(first, reader, writer)
            return
        line = first
        while line:
            try:
                reply = await self._jsonl_op(line)
            except Exception as exc:
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()

    async def _jsonl_op(self, line: bytes) -> dict:
        try:
            req = json.loads(line)
        except json.JSONDecodeError:
            return {"ok": False, "error": "unparseable JSON line"}
        if not isinstance(req, dict):
            return {"ok": False, "error": "request must be an object"}
        op = req.get("op")
        node = self.node
        if op == "ping":
            return {"ok": True, "pong": True, "draining": node.draining}
        if op == "submit":
            try:
                out = node.submit(
                    _expand_cells(req),
                    lane=req.get("lane"),
                    deadline_s=req.get("deadline_s"),
                    trace_id=parse_traceparent(req.get("traceparent")),
                )
            except Saturated as exc:
                return {
                    "ok": False,
                    "error": "saturated",
                    "retry_after": exc.retry_after,
                }
            except Draining:
                return {"ok": False, "error": "draining"}
            except SpecError as exc:
                return {"ok": False, "error": str(exc)}
            return {"ok": True, **out}
        if op == "status":
            job = node.registry.jobs.get(str(req.get("job")))
            if job is None:
                return {"ok": False, "error": "unknown job"}
            return {"ok": True, **node.job_info(job)}
        if op == "wait":
            job_id = str(req.get("job"))
            job = node.registry.jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": "unknown job"}
            event = node._job_events.get(job_id)
            timeout = req.get("timeout")
            if event is not None and job.status in ("queued", "running"):
                try:
                    await asyncio.wait_for(
                        event.wait(),
                        timeout=float(timeout) if timeout is not None else None,
                    )
                except asyncio.TimeoutError:
                    return {
                        "ok": False,
                        "error": "timeout",
                        **node.job_info(job),
                    }
            return {"ok": True, **node.job_info(job)}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- HTTP routes ---------------------------------------------------
    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        node = self.node
        if method == "GET" and path == "/healthz":
            if node.draining:
                await _respond(writer, 503, {"status": "draining"})
            else:
                await _respond(writer, 200, {"status": "ok"})
            return
        if method == "GET" and path == "/readyz":
            if node.draining:
                await _respond(writer, 503, {"ready": False, "reason": "draining"})
            else:
                await _respond(writer, 200, {"ready": True})
            return
        if method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            tail = ""
            for suffix in ("/report", "/dash.html"):
                if rest.endswith(suffix):
                    rest, tail = rest[: -len(suffix)], suffix
                    break
            job = node.registry.jobs.get(rest)
            if job is None:
                await _respond(writer, 404, {"error": "unknown job"})
                return
            if tail == "/report":
                await _respond(writer, 200, node.job_reports(job))
            elif tail == "/dash.html":
                await _respond(
                    writer,
                    200,
                    node.job_dash(job).encode(),
                    content_type="text/html; charset=utf-8",
                )
            else:
                await _respond(writer, 200, node.job_info(job))
            return
        if method == "POST" and path == "/submit":
            try:
                req = json.loads(body or b"{}")
                if not isinstance(req, dict):
                    raise SpecError("submission body must be a JSON object")
                out = node.submit(
                    _expand_cells(req),
                    lane=req.get("lane"),
                    deadline_s=req.get("deadline_s"),
                    trace_id=parse_traceparent(
                        (headers or {}).get("traceparent")
                        or req.get("traceparent")
                    ),
                )
            except Saturated as exc:
                await _respond(
                    writer,
                    429,
                    {"error": "saturated", "retry_after": exc.retry_after},
                    headers={"Retry-After": str(exc.retry_after)},
                )
                return
            except Draining:
                await _respond(writer, 503, {"error": "draining"})
                return
            except (SpecError, json.JSONDecodeError) as exc:
                await _respond(writer, 400, {"error": str(exc)})
                return
            await _respond(writer, 202, out)
            return
        if method == "POST" and path == "/drain":
            node.begin_drain()
            await _respond(writer, 202, {"draining": True})
            return
        await super()._route(writer, method, path, body, headers)


def _expand_cells(req: dict) -> List[dict]:
    """Cells from a submission body: explicit list and/or a grid shorthand.

    ``{"grid": {"mixes": [...], "schemes": [...], "refs": N, ...}}`` expands
    workload-major, matching ``repro campaign`` cell order.
    """
    specs: List[dict] = []
    cells = req.get("cells")
    if cells is not None:
        if not isinstance(cells, list):
            raise SpecError("'cells' must be a list of cell specs")
        specs.extend(c for c in cells if isinstance(c, dict))
        if len(specs) != len(cells):
            raise SpecError("every cell spec must be an object")
    grid = req.get("grid")
    if grid is not None:
        if not isinstance(grid, dict):
            raise SpecError("'grid' must be an object")
        mixes = grid.get("mixes")
        schemes = grid.get("schemes")
        if not isinstance(mixes, list) or not isinstance(schemes, list):
            raise SpecError("'grid' needs 'mixes' and 'schemes' lists")
        base = {
            k: v
            for k, v in grid.items()
            if k in ("refs", "seed", "topology", "ber", "drop", "fault_seed",
                     "integrity")
        }
        topologies = grid.get("topologies")
        if topologies is not None and not isinstance(topologies, list):
            raise SpecError("'topologies' must be a list")
        for topo in topologies or [base.get("topology")]:
            for w in mixes:
                for s in schemes:
                    spec = dict(base)
                    spec["workload"] = w
                    spec["scheme"] = s
                    if topo is not None:
                        spec["topology"] = topo
                    specs.append(spec)
    if not specs:
        raise SpecError("submission carries no cells")
    return specs


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    content_type: str = "application/json",
    headers: Optional[Dict[str, str]] = None,
) -> None:
    reason = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        413: "Payload Too Large",
        429: "Too Many Requests",
        503: "Service Unavailable",
    }.get(status, "OK")
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (headers or {}).items():
        head.append(f"{key}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()


# ----------------------------------------------------------------------
# Blocking entry points (CLI / chaos nodes)
# ----------------------------------------------------------------------


async def _serve_async(
    cfg: ServeConfig,
    runner: CellRunner = execute_cell,
    announce: bool = True,
) -> int:
    import signal as _signal

    service = ServeService(cfg, runner=runner)
    await service.start()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(_signal.SIGTERM, service.node.begin_drain)
        loop.add_signal_handler(_signal.SIGINT, service.node.begin_drain)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    if announce:
        print(
            f"serve: listening on {service.url} "
            f"(manifest {cfg.manifest}, {cfg.jobs} workers, "
            f"gen {service.node.queue.gen})",
            flush=True,
        )
    await service.node.stopped.wait()
    await service.close()
    if announce:
        print("serve: drained and stopped", flush=True)
    return 0


def run_serve(cfg: ServeConfig, runner: CellRunner = execute_cell) -> int:
    """Blocking service entry: runs until SIGTERM (or /drain) completes."""
    try:
        return asyncio.run(_serve_async(cfg, runner=runner))
    except KeyboardInterrupt:  # pragma: no cover
        return 130
