"""Job bookkeeping for the campaign service: portable cell specs + registry.

The service's unit of admission is a *job* (one client submission of one or
more cells); its unit of execution is the campaign's :class:`Cell`.  Jobs
and cells are deliberately decoupled: two jobs that name the same cell share
one execution (dedupe), and a cell outlives the job that submitted it — its
claim record in the manifest carries the portable *spec* below, so a peer
scheduler that never saw the submission can rebuild and re-run it.

A spec is the JSON-safe subset of a cell that travels over the wire and
into manifest claim records::

    {"workload": "HM1", "scheme": "camps", "refs": 4000, "seed": 1,
     "topology": null, "ber": 0.0, "drop": 0.0, "fault_seed": 0,
     "integrity": false}

It covers exactly what ``repro campaign`` exposes on its command line; cells
with scheme kwargs or trace-config overrides are campaign-API-only and not
servable (they would not round-trip through JSON faithfully).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.campaign.spec import Cell
from repro.experiments.runner import ExperimentConfig

#: job lifecycle states
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_EXPIRED = "expired"

#: cell lifecycle states inside the scheduler (terminal manifest statuses
#: are the campaign's ok/error/timeout; these are the live states before)
CELL_PENDING = "pending"
CELL_RUNNING = "running"
CELL_DONE = "done"
#: diagnosed-terminal integrity failures: recorded, never retried
CELL_QUARANTINED = "quarantined"


class SpecError(ValueError):
    """A submitted cell spec is malformed or names unknown entities."""


def cell_to_spec(cell: Cell) -> dict:
    """Portable JSON projection of a servable cell.

    Raises :class:`SpecError` for cells that cannot round-trip (scheme
    kwargs / trace-config overrides have no wire representation).
    """
    if cell.scheme_kwargs is not None or cell.trace_config is not None:
        raise SpecError(
            f"cell {cell.cell_id} carries scheme_kwargs/trace_config and "
            "cannot be served (no JSON representation)"
        )
    cfg = cell.config
    spec: dict = {
        "workload": cell.workload,
        "scheme": cell.scheme,
        "refs": cfg.refs_per_core,
        "seed": cfg.seed,
    }
    if cell.topology is not None:
        spec["topology"] = cell.topology
    f = cfg.hmc.faults
    if f.enabled:
        spec["ber"] = f.ber
        spec["drop"] = f.drop_prob
        spec["fault_seed"] = f.seed
    if cfg.integrity:
        spec["integrity"] = True
    return spec


def cell_from_spec(spec: Any) -> Cell:
    """Rebuild a cell from its wire/claim spec; validates as it goes.

    The inverse of :func:`cell_to_spec`: ``cell_from_spec(cell_to_spec(c))``
    reproduces ``c.cell_id`` exactly, which is what lets a stealing peer
    verify a claim's spec against the cell id it claims to describe.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"cell spec must be an object, got {type(spec).__name__}")
    from repro.hmc.config import HMCConfig
    from repro.workloads.mixes import mix_names

    workload = spec.get("workload")
    scheme = spec.get("scheme")
    if not isinstance(workload, str) or not isinstance(scheme, str):
        raise SpecError("cell spec needs string 'workload' and 'scheme'")
    if workload not in mix_names():
        raise SpecError(f"unknown workload mix {workload!r}")
    from repro.core.schemes import scheme_names

    if scheme not in scheme_names():
        raise SpecError(f"unknown scheme {scheme!r}")
    try:
        refs = int(spec.get("refs", ExperimentConfig().refs_per_core))
        seed = int(spec.get("seed", 1))
        ber = float(spec.get("ber", 0.0) or 0.0)
        drop = float(spec.get("drop", 0.0) or 0.0)
        fault_seed = int(spec.get("fault_seed", 0))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad numeric field in cell spec: {exc}") from None
    if refs <= 0:
        raise SpecError("refs must be positive")
    topology = spec.get("topology")
    if topology is not None:
        if not isinstance(topology, str):
            raise SpecError("topology must be a string spec like 'chain:4'")
        from repro.fabric.topology import parse_topology

        try:
            parse_topology(topology)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    hmc = HMCConfig()
    if ber or drop:
        from repro.faults import LinkFaultConfig

        hmc = hmc.with_overrides(
            faults=LinkFaultConfig(ber=ber, drop_prob=drop, seed=fault_seed)
        )
    config = ExperimentConfig(
        refs_per_core=refs,
        seed=seed,
        hmc=hmc,
        integrity=bool(spec.get("integrity", False)),
    )
    return Cell(workload, scheme, config, topology=topology)


@dataclass
class CellState:
    """Live scheduler state of one unique cell (shared across jobs)."""

    cell: Cell
    spec: dict
    lane: str
    status: str = CELL_PENDING
    attempts: int = 0
    crashes: int = 0
    stolen: bool = False
    record: Optional[Any] = None  # CellRecord once terminal
    jobs: Set[str] = field(default_factory=set)
    #: trace id of the submission (or stolen claim) that created this cell
    trace_id: Optional[str] = None
    #: monotonic instant the cell last entered a lane queue (span timing)
    enqueued: Optional[float] = None

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id

    @property
    def terminal(self) -> bool:
        return self.status in (CELL_DONE, CELL_QUARANTINED)


@dataclass
class Job:
    """One client submission: a set of cells plus admission metadata."""

    job_id: str
    cell_ids: List[str]
    lane: str
    submitted: float  # time.monotonic() at admission
    deadline: Optional[float] = None  # monotonic expiry for *queued* cells
    status: str = JOB_QUEUED
    done: Set[str] = field(default_factory=set)
    #: trace id minted (or adopted from ``traceparent``) at admission
    trace_id: Optional[str] = None

    def to_dict(self, cells: Dict[str, CellState]) -> dict:
        results: Dict[str, dict] = {}
        for cid in self.cell_ids:
            state = cells.get(cid)
            if state is None:
                continue
            entry: dict = {"status": state.status, "attempts": state.attempts}
            rec = state.record
            if rec is not None:
                entry["status"] = rec.status
                if rec.summary is not None:
                    entry["summary"] = rec.summary
                if rec.error is not None:
                    entry["error"] = str(rec.error)
                if rec.diagnosis is not None:
                    entry["diagnosis"] = rec.diagnosis
                entry["cached"] = rec.cached
            results[cid] = entry
        out = {
            "job": self.job_id,
            "status": self.status,
            "lane": self.lane,
            "total": len(self.cell_ids),
            "done": len(self.done),
            "cells": results,
        }
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        return out


class JobRegistry:
    """All live jobs plus the shared cell-state table."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        self.cells: Dict[str, CellState] = {}
        #: jobs with a deadline that were queued or running when last seen
        self._deadlined: Dict[str, Job] = {}
        self._ids = itertools.count(1)

    def new_job_id(self) -> str:
        return f"j{next(self._ids)}"

    def add(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        if job.deadline is not None:
            self._deadlined[job.job_id] = job

    def cell_done(self, cell_id: str) -> List[Job]:
        """Mark one cell terminal in every job referencing it; returns the
        jobs that just completed."""
        finished: List[Job] = []
        state = self.cells.get(cell_id)
        if state is None:
            return finished
        for job_id in state.jobs:
            job = self.jobs.get(job_id)
            if job is None or job.status in (JOB_DONE, JOB_EXPIRED):
                continue
            job.done.add(cell_id)
            job.status = JOB_RUNNING
            if len(job.done) >= len(job.cell_ids):
                job.status = JOB_DONE
                finished.append(job)
        return finished

    def expire_due(self, now: Optional[float] = None) -> List[Job]:
        """Expire jobs past their deadline; returns the newly expired.

        Walks only the live jobs that have a deadline, not every job ever
        submitted: a job leaves that set once it is found finished.
        """
        now = time.monotonic() if now is None else now
        expired: List[Job] = []
        for job_id, job in list(self._deadlined.items()):
            if job.status not in (JOB_QUEUED, JOB_RUNNING):
                del self._deadlined[job_id]
            elif now >= job.deadline:
                job.status = JOB_EXPIRED
                del self._deadlined[job_id]
                expired.append(job)
        return expired

    def live_refs(self, cell_id: str) -> int:
        """How many non-expired jobs still want this cell."""
        state = self.cells.get(cell_id)
        if state is None:
            return 0
        n = 0
        for job_id in state.jobs:
            job = self.jobs.get(job_id)
            if job is not None and job.status in (JOB_QUEUED, JOB_RUNNING):
                n += 1
        return n

    def counts(self) -> Dict[str, int]:
        out = {JOB_QUEUED: 0, JOB_RUNNING: 0, JOB_DONE: 0, JOB_EXPIRED: 0}
        for job in self.jobs.values():
            out[job.status] = out.get(job.status, 0) + 1
        return out
