"""Campaign execution: drive a list of cells to terminal manifest records.

:func:`run_campaign` takes a list of :class:`~repro.campaign.spec.Cell`
specs and drives them to terminal state:

* **Execution** — ``jobs=1`` runs each attempt in this process;
  ``jobs >= 2`` runs them on a :class:`~repro.campaign.pool.CellPool`, the
  same worker pool ``repro serve`` uses.  Both call
  :func:`~repro.campaign.pool.run_attempt`, so an attempt yields the same
  ``(status, payload, elapsed)`` either way.
* **One verdict** — :func:`settle` turns every attempt into a terminal
  record or a retry, for campaigns and the service alike: ``ok`` and
  ``timeout`` are terminal, a diagnosed error is terminal, an undiagnosed
  error is retried (with jittered backoff, :func:`retry_delay`) while
  ``attempt <= retries``.  A campaign records a worker that died mid-cell
  as an undiagnosed error.
* **Timeout** — with ``jobs >= 2`` each attempt has a wall-clock budget;
  an overrunning worker is terminated and the cell recorded as ``timeout``.
* **Resume and cache** — :func:`resolved_record` satisfies a cell without
  running it: a manifest record that is ok or diagnosed (with
  ``resume=True``), else a :class:`~repro.experiments.runner.ResultCache`
  hit.
* **Deterministic merge** — :meth:`CampaignResult.matrix` orders results by
  cell id, so serial and parallel campaigns over the same cells produce
  identical summaries regardless of completion order (pin with
  :func:`matrix_digest`).
"""

from __future__ import annotations

import heapq
import os
import queue
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.manifest import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
    Manifest,
)
from repro.campaign.pool import (
    STATUS_CRASH,
    CellPool,
    CellRunner,
    PoolResult,
    activate_telemetry,
    run_attempt,
)
from repro.campaign.progress import CampaignProgress
from repro.campaign.spec import Cell
from repro.experiments.runner import _CACHED_FIELDS, ResultCache
from repro.metrics.collectors import ResultMatrix
from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import publish_system
from repro.system import SimulationResult, System, SystemConfig


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_on_failure`."""


#: ceiling on any single retry delay, however deep the attempt count
MAX_RETRY_DELAY = 30.0


def retry_delay(
    cell_id: str, attempt: int, base: float, cap: float = MAX_RETRY_DELAY
) -> float:
    """Deterministic full-jitter backoff for one (cell, attempt).

    Classic exponential backoff retries every victim of a simultaneous
    failure (say, a worker host dying with eight cells in flight) at the
    same instant, stampeding whatever resource just recovered.  Full jitter
    draws uniformly from ``[0, base * 2**(attempt-1)]`` (capped) instead —
    and seeding the draw from ``(cell_id, attempt)`` keeps the schedule
    reproducible: the same cell retries at the same offsets in every run,
    while distinct cells de-synchronize.
    """
    import hashlib
    import random

    span = min(cap, base * (2 ** (max(attempt, 1) - 1)))
    if span <= 0.0:
        return 0.0
    seed = int.from_bytes(
        hashlib.sha256(f"{cell_id}#{attempt}".encode()).digest()[:8], "big"
    )
    return random.Random(seed).uniform(0.0, span)


def summarize(result: SimulationResult) -> dict:
    """Project a result onto the picklable persisted-summary fields."""
    return {f: getattr(result, f) for f in _CACHED_FIELDS}


def execute_cell(
    cell: Cell, attempt: int = 1, report_dir: Optional[str] = None
) -> dict:
    """Default cell runner: build the system, simulate, return the summary.

    Runs in the worker process; trace generation is seeded, so regenerating
    per cell yields byte-identical traces to the serial shared-trace loop.

    Cells carrying a ``topology`` spec run on that routed fabric: the
    Table II mix is replicated as one independent stream per cube (each
    with its own RNG stream, homed at its cube) and the scheme runs
    per-vault in every cube.

    With ``report_dir`` set (``functools.partial`` keeps the runner
    picklable under spawn), the run carries the default-epoch time series
    sampler and, once finished, writes a
    :class:`~repro.obs.report.RunReport` to ``<report_dir>/<cell_id>.json``;
    the report's counters are read from the finished system, so no tracer
    is attached and no trace events are recorded.  The sampler does not
    change the returned summary: it never perturbs simulation order, so
    cached and reported cells stay digest-identical.
    """
    cfg = cell.config
    fabric = None
    workload = cell.workload
    if cell.topology is None:
        from repro.workloads.mixes import mix as make_mix

        trace_hmc = cell.trace_config if cell.trace_config is not None else cfg.hmc
        traces = make_mix(
            cell.workload, cfg.refs_per_core, seed=cfg.seed, config=trace_hmc
        )
    else:
        from repro.fabric import FabricConfig
        from repro.workloads.multistream import MultiStreamSpec, build_stream_traces

        fabric = FabricConfig.from_spec(cell.topology, hmc=cfg.hmc)
        spec = MultiStreamSpec.per_cube(
            cell.workload, fabric.cubes, cfg.refs_per_core, seed=cfg.seed
        )
        traces = build_stream_traces(spec, fabric)
        # topology-qualified: ResultMatrix keys by (workload, scheme), so a
        # topology sweep of one mix must not collapse to a single entry
        workload = f"{cell.workload}@{cell.topology}"
    epoch = None
    if report_dir is not None:
        from repro.obs.timeseries import DEFAULT_EPOCH

        epoch = DEFAULT_EPOCH
    system = System(
        traces,
        SystemConfig(
            hmc=cfg.hmc,
            fabric=fabric,
            scheme=cell.scheme,
            integrity=cfg.integrity,
            timeseries_epoch=epoch,
        ),
        workload=workload,
        scheme_kwargs=cell.scheme_kwargs,
    )
    # Hand the live system to the telemetry sampler thread, if one is
    # armed for this process (a single is-None check otherwise — the
    # hot-path digests stay byte-identical with telemetry disabled).
    publish_system(system)
    try:
        result = system.run()
    finally:
        publish_system(None)
    if report_dir is not None:
        from repro.obs import build_run_report

        meta: Dict[str, Any] = {"cell_id": cell.cell_id, "attempt": attempt}
        if cell.topology is not None:
            meta["topology"] = cell.topology
        build_run_report(system, result, **meta).save(
            cell_report_path(report_dir, cell.cell_id)
        )
    return summarize(result)


def cell_report_path(report_dir: Union[str, "os.PathLike"], cell_id: str) -> "Path":
    """Where :func:`execute_cell` writes a cell's RunReport artifact."""
    from pathlib import Path

    return Path(report_dir) / f"{cell_id}.json"


@dataclass(frozen=True)
class CampaignOptions:
    """Execution policy for one campaign."""

    jobs: int = 1
    timeout: Optional[float] = None  # per-attempt wall-clock seconds (jobs >= 2)
    retries: int = 0
    backoff: float = 0.1  # base retry delay; doubles per attempt
    resume: bool = False
    progress: bool = False
    start_method: Optional[str] = None  # default: fork if available, else spawn
    #: write per-worker heartbeat spools (implied by watch/telemetry_port)
    telemetry: bool = False
    #: spool directory; default ``<manifest>.telemetry`` next to the manifest
    telemetry_dir: Optional[str] = None
    #: seconds between heartbeats
    telemetry_interval: float = _telemetry.DEFAULT_INTERVAL
    #: serve /snapshot and /metrics on this port (0 = ephemeral)
    telemetry_port: Optional[int] = None
    #: render the live terminal status board in the campaign process
    watch: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")

    @property
    def telemetry_enabled(self) -> bool:
        return (
            self.telemetry
            or self.watch
            or self.telemetry_dir is not None
            or self.telemetry_port is not None
        )


@dataclass
class CampaignResult:
    """Terminal state of every cell plus campaign-level statistics."""

    cells: List[Cell]  # deduplicated, submission order
    records: Dict[str, CellRecord]  # by cell id
    stats: Dict[str, int]
    wall_seconds: float

    @property
    def failures(self) -> List[CellRecord]:
        return [r for r in self.records.values() if not r.ok]

    def raise_on_failure(self) -> None:
        bad = self.failures
        if bad:
            parts = []
            for r in bad[:5]:
                desc = f"{r.workload}/{r.scheme}: {r.status} ({r.error})"
                if r.diagnosis:
                    reason = r.diagnosis.get("reason", "integrity")
                    dump = r.diagnosis.get("crash_dump")
                    desc += f" [diagnosed: {reason}" + (
                        f", dump: {dump}]" if dump else "]"
                    )
                parts.append(desc)
            detail = "; ".join(parts)
            raise CampaignError(f"{len(bad)} cell(s) failed: {detail}")

    def result_for(self, cell_id: str) -> SimulationResult:
        rec = self.records[cell_id]
        if not rec.ok:
            raise CampaignError(
                f"cell {rec.workload}/{rec.scheme} ended {rec.status}: {rec.error}"
            )
        return SimulationResult(
            extra={"campaign": True, "cell_id": cell_id, "attempts": rec.attempts},
            **rec.summary,
        )

    def matrix(self) -> ResultMatrix:
        """Successful cells as a :class:`ResultMatrix`, ordered by cell id
        (deterministic merge: independent of completion order)."""
        out = ResultMatrix()
        for cid in sorted(r.cell_id for r in self.records.values() if r.ok):
            out.add(self.result_for(cid))
        return out


def matrix_digest(matrix: ResultMatrix) -> str:
    """Canonical digest of a matrix's persisted summaries.

    Serial and parallel campaigns over the same cells must agree on this
    value — it hashes the `_CACHED_FIELDS` projection of every result in
    sorted (workload, scheme) order, ignoring per-run ``extra`` annotations.
    """
    import hashlib
    import json

    items = []
    for key in sorted(matrix.results):
        r = matrix.results[key]
        items.append({f: getattr(r, f) for f in _CACHED_FIELDS})
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Attempt policy (shared with repro.serve)
# ----------------------------------------------------------------------


def resolved_record(
    cell: Cell,
    prior: Mapping[str, CellRecord],
    cache: Optional[ResultCache],
) -> Optional[CellRecord]:
    """The record that satisfies ``cell`` without running it, if any.

    A ``prior`` manifest record counts when it is ok or diagnosed: a cell
    the integrity layer convicted (wedge, invariant violation) is
    deterministic, so re-running it would reproduce the failure.
    Undiagnosed errors and timeouts stay eligible for re-execution.
    Otherwise a ``cache`` hit becomes a ``cached`` ok record (attempts 0).
    The returned record *is* the prior one when the manifest resolved it.
    """
    old = prior.get(cell.cell_id)
    if old is not None and (old.ok or old.diagnosis is not None):
        return old
    if cache is not None and cell.cacheable:
        hit = cache.get(cell.config.cache_key(cell.workload, cell.scheme))
        if hit is not None:
            return CellRecord(
                cell_id=cell.cell_id,
                workload=cell.workload,
                scheme=cell.scheme,
                status=STATUS_OK,
                attempts=0,
                elapsed=0.0,
                summary=summarize(hit),
                cached=True,
            )
    return None


def settle(
    cell: Cell,
    attempt: int,
    status: str,
    payload: Any,
    elapsed: float,
    retries: int,
) -> Optional[CellRecord]:
    """The verdict on one attempt: its terminal record, or None to retry.

    * ``ok`` — terminal, carrying the summary;
    * ``timeout`` — terminal: a deterministic simulator that hung once will
      hang again, so retrying only multiplies the loss;
    * ``error`` with a diagnosis — terminal for the same reason;
    * ``error`` without one — retried while ``attempt <= retries``.

    ``payload`` is what :func:`~repro.campaign.pool.run_attempt` returned.
    A worker ``crash`` is not a verdict: callers map it first.
    """
    fields: Dict[str, Any] = dict(
        cell_id=cell.cell_id,
        workload=cell.workload,
        scheme=cell.scheme,
        status=status,
        attempts=attempt,
        elapsed=elapsed,
    )
    if status == STATUS_OK:
        return CellRecord(summary=payload, **fields)
    if status == STATUS_TIMEOUT:
        return CellRecord(error=str(payload), **fields)
    diagnosis = None
    error = payload
    if isinstance(payload, dict):
        diagnosis = payload.get("diagnosis")
        error = payload.get("error", "")
    if diagnosis is None and attempt <= retries:
        return None
    return CellRecord(error=str(error).strip(), diagnosis=diagnosis, **fields)


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------


class _Driver:
    """Shared bookkeeping for the serial and pooled execution paths."""

    def __init__(
        self,
        opts: CampaignOptions,
        cache: Optional[ResultCache],
        manifest: Optional[Manifest],
        progress: CampaignProgress,
        report_dir: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        self.opts = opts
        self.cache = cache
        self.manifest = manifest
        self.progress = progress
        self.report_dir = report_dir
        self.telemetry_dir = telemetry_dir
        self.records: Dict[str, CellRecord] = {}

    def record(self, rec: CellRecord, source: str = "executed") -> None:
        if (
            source == "executed"
            and rec.ok
            and self.report_dir is not None
            and rec.report is None
        ):
            # execute_cell writes the artifact at a deterministic path; the
            # record carries it so readers never reconstruct the layout
            rec.report = str(cell_report_path(self.report_dir, rec.cell_id))
        self.records[rec.cell_id] = rec
        if source != "resumed" and self.manifest is not None:
            self.manifest.append(rec)
        cell = self._cells[rec.cell_id]
        if source == "executed" and rec.ok and self.cache is not None and cell.cacheable:
            self.cache.put(
                cell.config.cache_key(cell.workload, cell.scheme),
                SimulationResult(extra={}, **rec.summary),
            )
        self.progress.cell_done(rec, source)

    def prepare(self, cells: Sequence[Cell]) -> List[Cell]:
        """Resolve resume/cache hits; return the cells needing execution."""
        prior = (
            self.manifest.records()
            if (self.manifest is not None and self.opts.resume)
            else {}
        )
        self._cells = {cell.cell_id: cell for cell in cells}
        pending: List[Cell] = []
        for cell in cells:
            rec = resolved_record(cell, prior, self.cache)
            if rec is None:
                pending.append(cell)
            else:
                resumed = rec is prior.get(cell.cell_id)
                self.record(rec, source="resumed" if resumed else "cached")
        return pending

    def conclude(
        self, cell: Cell, attempt: int, status: str, payload: Any, elapsed: float
    ) -> bool:
        """Record the attempt's verdict; False when it is to be retried."""
        rec = settle(cell, attempt, status, payload, elapsed, self.opts.retries)
        if rec is None:
            self.progress.retry(cell, attempt, str(payload).strip().splitlines()[-1])
            return False
        self.record(rec)
        return True

    # ------------------------------------------------------------------
    def run_serial(self, pending: Sequence[Cell], runner: CellRunner) -> None:
        """In-process execution (jobs=1).

        Per-attempt timeouts need a separate process to interrupt; with one
        job the attempt runs inline and ``timeout`` is not enforced.
        """
        # one job: the "worker" heartbeats come from this process
        wt = activate_telemetry(
            (self.telemetry_dir, "w0", self.opts.telemetry_interval)
            if self.telemetry_dir is not None
            else None
        )
        try:
            for cell in pending:
                attempt = 1
                while not self.conclude(
                    cell, attempt, *run_attempt(runner, cell, attempt, wt)
                ):
                    time.sleep(retry_delay(cell.cell_id, attempt, self.opts.backoff))
                    attempt += 1
        finally:
            if wt is not None:
                _telemetry.deactivate_worker()

    # ------------------------------------------------------------------
    def run_pool(self, pending: Sequence[Cell], runner: CellRunner) -> None:
        """Pooled execution on a :class:`CellPool`: submit every cell, then
        settle results as they arrive, resubmitting retries when due."""
        opts = self.opts
        results: "queue.Queue[PoolResult]" = queue.Queue()
        pool = CellPool(
            min(opts.jobs, len(pending)),
            runner,
            timeout=opts.timeout,
            telemetry_dir=self.telemetry_dir,
            telemetry_interval=opts.telemetry_interval,
            start_method=opts.start_method,
        ).start(results.put)
        # (due, cell id, cell, attempt): cell ids are unique, so the heap
        # never compares two cells
        retries: List[Tuple[float, str, Cell, int]] = []
        unsettled = len(pending)
        try:
            for cell in pending:
                pool.submit(cell, 1)
            while unsettled:
                wait: Optional[float] = None
                if retries:
                    wait = retries[0][0] - time.monotonic()
                    if wait <= 0:
                        _, _, cell, attempt = heapq.heappop(retries)
                        pool.submit(cell, attempt)
                        continue
                try:
                    res = results.get(timeout=wait)
                except queue.Empty:
                    continue
                # a worker that died mid-cell is an undiagnosed error here
                status = STATUS_ERROR if res.status == STATUS_CRASH else res.status
                cell, attempt = res.cell, res.attempt
                if self.conclude(cell, attempt, status, res.payload, res.elapsed):
                    unsettled -= 1
                else:
                    due = time.monotonic() + retry_delay(
                        cell.cell_id, attempt, opts.backoff
                    )
                    heapq.heappush(retries, (due, cell.cell_id, cell, attempt + 1))
        finally:
            pool.stop(drain=False)


def run_campaign(
    cells: Sequence[Cell],
    options: Optional[CampaignOptions] = None,
    cache: Optional[ResultCache] = None,
    manifest: Optional[Manifest] = None,
    runner: CellRunner = execute_cell,
    report_dir: Optional[str] = None,
) -> CampaignResult:
    """Drive every cell to a terminal manifest record.

    ``cells`` are deduplicated by cell id (first spec wins).  ``cache`` is
    consulted before execution and updated (batched; flushed once at the
    end) for cacheable cells; pass ``None`` to run uncached.  Without
    ``resume`` an existing manifest file is rewritten fresh.  With
    ``report_dir``, every *executed* cell also writes a RunReport artifact
    there and its manifest record points at it (cached/resumed cells carry
    none - nothing was simulated).
    """
    opts = options or CampaignOptions()
    if report_dir is not None:
        import functools
        from pathlib import Path

        Path(report_dir).mkdir(parents=True, exist_ok=True)
        if runner is execute_cell:
            # partial of a module-level callable: still picklable under spawn
            runner = functools.partial(execute_cell, report_dir=str(report_dir))
    unique: Dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.cell_id, cell)
    ordered = list(unique.values())
    if manifest is not None and not opts.resume:
        manifest.reset(meta={"cells": len(ordered), "jobs": opts.jobs})
    progress = CampaignProgress(
        total=len(ordered), jobs=opts.jobs, enabled=opts.progress
    )

    telemetry_dir: Optional[str] = None
    if opts.telemetry_enabled:
        from pathlib import Path

        if opts.telemetry_dir is not None:
            tdir = Path(opts.telemetry_dir)
        elif manifest is not None:
            tdir = _telemetry.spool_dir_for(manifest.path)
        else:
            raise ValueError(
                "telemetry needs a manifest (spools live next to it) or an "
                "explicit telemetry_dir"
            )
        tdir.mkdir(parents=True, exist_ok=True)
        telemetry_dir = str(tdir)

    driver = _Driver(
        opts,
        cache,
        manifest,
        progress,
        report_dir=report_dir,
        telemetry_dir=telemetry_dir,
    )

    # Parent-side telemetry consumers: driver spool (campaign totals for
    # out-of-process monitors), live board, HTTP endpoint.  All are daemon
    # threads torn down in the finally block; none touches the simulation.
    consumers: List[Any] = []
    stats_extra: Dict[str, Any] = {}
    if telemetry_dir is not None:
        consumers.append(
            _telemetry.DriverTelemetry(
                telemetry_dir, progress.status, opts.telemetry_interval
            ).start()
        )
        if opts.watch or opts.telemetry_port is not None:
            aggregator = _telemetry.TelemetryAggregator(
                telemetry_dir,
                manifest_path=manifest.path if manifest is not None else None,
            )

            def snapshot_fn() -> dict:
                snap = aggregator.refresh().to_snapshot()
                # in-process totals beat the (slightly lagged) driver spool
                snap["campaign"] = progress.status()
                return snap

            if opts.telemetry_port is not None:
                server = _telemetry.TelemetryServer(
                    snapshot_fn, port=opts.telemetry_port
                ).start()
                consumers.append(server)
                stats_extra["telemetry_port"] = server.port
                if opts.progress or opts.watch:
                    print(
                        f"telemetry: {server.url}/snapshot and "
                        f"{server.url}/metrics",
                        flush=True,
                    )
            if opts.watch:
                from repro.obs.watch import WatchBoard

                consumers.append(
                    WatchBoard(
                        snapshot_fn,
                        interval=max(0.5, opts.telemetry_interval),
                    ).start()
                )

    t0 = time.perf_counter()
    try:
        pending = driver.prepare(ordered)
        if pending:
            if opts.jobs == 1:
                driver.run_serial(pending, runner)
            else:
                driver.run_pool(pending, runner)
    finally:
        if cache is not None:
            cache.flush()
        for consumer in reversed(consumers):
            try:
                consumer.stop()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
    stats = {
        "total": len(ordered),
        "ok": progress.ok,
        "failed": progress.failed,
        "executed": progress._executed,
        "cached": progress.cached,
        "resumed": progress.resumed,
        "retried": progress.retried,
        **stats_extra,
    }
    return CampaignResult(
        cells=ordered,
        records=driver.records,
        stats=stats,
        wall_seconds=time.perf_counter() - t0,
    )
