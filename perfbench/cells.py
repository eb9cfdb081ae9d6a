"""Per-cell calls into the program's public layers, with spans around each.

:func:`run_cell` makes the same public calls as
:func:`repro.campaign.executor.execute_cell` - trace synthesis, system
construction, the engine run and, with a report directory, RunReport
building - so a traced run produces the same summary as an untraced one.
:func:`traced_cell` is the module-level (picklable) runner handed to pool
and service workers; it dumps its spans into a directory that the
benchmark process merges at the end.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.executor import cell_report_path, summarize
from repro.campaign.manifest import CellRecord, Manifest
from repro.campaign.spec import Cell
from repro.obs.telemetry import publish_system

from perfbench.spans import SpanRecorder


def run_cell(
    cell: Cell,
    rec: SpanRecorder,
    report_dir: Optional[str] = None,
    attempt: int = 1,
) -> dict:
    """Simulate one cell through the public API, one span per layer."""
    tracer = epoch = None
    if report_dir is not None:
        from repro.obs import Tracer
        from repro.obs.timeseries import DEFAULT_EPOCH

        tracer, epoch = Tracer(), DEFAULT_EPOCH
    cfg = cell.config
    with rec.span("cell", trace=cell.cell_id) as root:
        if cell.topology is None:
            from repro.system import System, SystemConfig
            from repro.workloads.mixes import mix

            with rec.span("workloads.mix"):
                hmc = cell.trace_config if cell.trace_config is not None else cfg.hmc
                traces = mix(cell.workload, cfg.refs_per_core, seed=cfg.seed, config=hmc)
            with rec.span("system.build"):
                system: Any = System(
                    traces,
                    SystemConfig(
                        hmc=cfg.hmc,
                        scheme=cell.scheme,
                        integrity=cfg.integrity,
                        timeseries_epoch=epoch,
                    ),
                    workload=cell.workload,
                    scheme_kwargs=cell.scheme_kwargs,
                    tracer=tracer,
                )
            cubes = 1
        else:
            from repro.fabric import FabricConfig, FabricSystem, FabricSystemConfig
            from repro.workloads.multistream import MultiStreamSpec, build_stream_traces

            with rec.span("workloads.mix"):
                fabric = FabricConfig.from_spec(cell.topology, hmc=cfg.hmc)
                spec = MultiStreamSpec.per_cube(
                    cell.workload, fabric.cubes, cfg.refs_per_core, seed=cfg.seed
                )
                traces = build_stream_traces(spec, fabric)
            with rec.span("system.build"):
                system = FabricSystem(
                    traces,
                    FabricSystemConfig(
                        fabric=fabric, scheme=cell.scheme, timeseries_epoch=epoch
                    ),
                    workload=f"{cell.workload}@{cell.topology}",
                    scheme_kwargs=cell.scheme_kwargs,
                    tracer=tracer,
                )
            cubes = fabric.cubes
        publish_system(system)
        try:
            with rec.span("sim.run"):
                result = system.run()
        finally:
            publish_system(None)
        if report_dir is not None:
            from repro.obs import build_run_report

            meta: Dict[str, Any] = {"cell_id": cell.cell_id, "attempt": attempt}
            if cell.topology is not None:
                meta["topology"] = cell.topology
            with rec.span("obs.report"):
                build_run_report(system, result, **meta).save(
                    cell_report_path(report_dir, cell.cell_id)
                )
        outcomes = result.extra.get("bank_outcomes", {})
        fab = result.extra.get("fabric", {})
        root.args = {
            "scheme": cell.scheme,
            "cubes": cubes,
            "refs": sum(len(t) for t in traces),
            "events": result.extra.get("events_fired", 0),
            "cycles": result.cycles,
            "idle_cycles_skipped": system.engine.idle_cycles_skipped,
            "bank_hits": outcomes.get("hits", 0),
            "bank_outcomes": sum(outcomes.values()),
            "hop_flits": fab.get("hop_flits", 0),
            "mean_hops": fab.get("mean_hops", 0.0),
        }
    return summarize(result)


def traced_cell(
    cell: Cell,
    attempt: int = 1,
    *,
    span_dir: str,
    report_dir: Optional[str] = None,
) -> dict:
    """Cell runner for pool and service workers (bind ``span_dir`` with
    ``functools.partial``); appends this cell's spans to
    ``<span_dir>/<pid>.jsonl``."""
    rec = SpanRecorder()
    summary = run_cell(cell, rec, report_dir=report_dir, attempt=attempt)
    rec.dump(Path(span_dir) / f"{os.getpid()}.jsonl")
    return summary


def reference_summary(cell: Cell) -> dict:
    """The cell's summary recomputed in this process (spans discarded)."""
    return run_cell(cell, SpanRecorder())


class TimedManifest(Manifest):
    """A manifest whose write and read paths record spans."""

    def __init__(self, path: Any, rec: SpanRecorder) -> None:
        super().__init__(path)
        self.rec = rec

    def append(self, record: CellRecord) -> None:
        with self.rec.span("manifest.append", trace=record.cell_id):
            super().append(record)

    def records(self) -> Dict[str, CellRecord]:
        with self.rec.span("manifest.records"):
            return super().records()


def canonical(summary: Optional[dict]) -> str:
    """Byte-exact comparison form of a summary (floats keep every digit)."""
    return json.dumps(summary, sort_keys=True)


def cells_digest(summaries: Dict[str, dict]) -> str:
    """Digest over (cell id, summary) pairs, for cell sets whose
    (workload, scheme) keys repeat and so cannot use ``matrix_digest``."""
    import hashlib

    items: List[Any] = [[cid, summaries[cid]] for cid in sorted(summaries)]
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
