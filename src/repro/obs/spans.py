"""Causal span tracing across the campaign service.

A *trace* follows one submission through every stage of the service path:
the trace id is minted at ``POST /submit`` (or accepted from a client's
``traceparent`` header), stored on the job and on every cell the job
created, embedded in the work-stealing *claim* records — so a cell stolen
by a peer process after its owner died keeps the same trace — and stamped
on every per-stage :class:`Span`:

========  ============================================================
stage     what the span measures
========  ============================================================
admit     the submit handler: parse, dedupe, admission, dispatch
queue     a cell's dwell in its priority lane (admission -> launch)
claim     appending the lease claim to the shared manifest
steal     the instant a peer took over an orphaned cell (zero-width)
execute   one pool-worker attempt (crashes and timeouts included)
merge     appending the terminal record (the exactly-once merge)
========  ============================================================

Spans persist as ``{"kind": "span", ...}`` lines in the campaign manifest.
Every existing reader skips unknown ``kind`` values, so the schema addition
is backward-compatible, and :meth:`Manifest.records` never sees them — the
merged matrix (and therefore every pinned digest) is byte-identical with
tracing on or off.  Span appends are flushed but not fsynced: spans are
observability, losing one in a crash costs a timeline slice, not a cell.

Timing is monotonic for durations (``time.monotonic``/``perf_counter``
deltas) and wall-clock for span starts, so spans written by different
processes land on one mergeable timeline.  :func:`spans_to_chrome` renders
that timeline in the Chrome trace-event format the simulator's exporters
(:mod:`repro.obs.export`) already emit, and :func:`merge_chrome` folds
sim-level trace files into the same JSON so one Perfetto tab shows the
service stages *and* the per-bank simulator activity they contain.

With spans disabled (``ServeConfig.spans=False``) every hook degrades to a
single attribute check: no manifest lines, no in-memory stage totals, no
``critical_path`` in ``GET /jobs/<id>`` — and nothing else changes.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: manifest record kind for persisted spans (readers skip unknown kinds)
KIND_SPAN = "span"

#: service stages, in causal order
STAGE_ADMIT = "admit"
STAGE_QUEUE = "queue"
STAGE_CLAIM = "claim"
STAGE_STEAL = "steal"
STAGE_EXECUTE = "execute"
STAGE_MERGE = "merge"
STAGES = (
    STAGE_ADMIT,
    STAGE_QUEUE,
    STAGE_CLAIM,
    STAGE_STEAL,
    STAGE_EXECUTE,
    STAGE_MERGE,
)

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})"
    r"-(?P<span>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{16,64}$")


def mint_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def mint_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


def parse_traceparent(header: Optional[str]) -> Optional[str]:
    """Trace id from a W3C ``traceparent`` header; None when unusable.

    Accepts the standard ``00-<trace>-<span>-<flags>`` shape (any version
    byte) or a bare hex trace id.  The all-zero trace id is invalid per the
    spec and rejected, so a client cannot accidentally connect unrelated
    submissions under the null trace.
    """
    if not header or not isinstance(header, str):
        return None
    header = header.strip().lower()
    m = _TRACEPARENT_RE.match(header)
    trace = m.group("trace") if m else None
    if trace is None and _TRACE_ID_RE.match(header):
        trace = header
    if trace is None or set(trace) == {"0"}:
        return None
    return trace


def format_traceparent(trace_id: str, span_id: Optional[str] = None) -> str:
    """Render a ``traceparent`` header value for propagation to a client."""
    return f"00-{trace_id:0>32}-{span_id or mint_span_id()}-01"


@dataclass
class Span:
    """One timed stage of one trace (possibly one cell's)."""

    trace_id: str
    name: str  # one of STAGES
    start: float  # wall-clock (time.time()) seconds at span start
    dur: float  # seconds (monotonic-derived); 0 renders as an instant
    worker: str = ""
    cell_id: Optional[str] = None
    span_id: str = field(default_factory=mint_span_id)
    parent_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """The manifest line for this span (``kind`` stamped by the log)."""
        payload: dict = {
            "kind": KIND_SPAN,
            "trace": self.trace_id,
            "name": self.name,
            "start": round(self.start, 6),
            "dur": round(self.dur, 6),
            "worker": self.worker,
            "span_id": self.span_id,
        }
        if self.cell_id is not None:
            payload["cell_id"] = self.cell_id
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    @classmethod
    def from_payload(cls, raw: dict) -> Optional["Span"]:
        """Rebuild a span from a manifest line; None for malformed input."""
        try:
            trace = raw["trace"]
            name = raw["name"]
            start = float(raw["start"])
            dur = float(raw["dur"])
        except (KeyError, TypeError, ValueError):
            return None
        if not isinstance(trace, str) or not isinstance(name, str):
            return None
        attrs = raw.get("attrs")
        return cls(
            trace_id=trace,
            name=name,
            start=start,
            dur=max(0.0, dur),
            worker=str(raw.get("worker", "")),
            cell_id=raw.get("cell_id"),
            span_id=str(raw.get("span_id", "")) or mint_span_id(),
            parent_id=raw.get("parent"),
            attrs=dict(attrs) if isinstance(attrs, dict) else {},
        )


class SpanLog:
    """One node's span recorder: manifest persistence + live stage totals.

    ``manifest`` is any object with an ``append_span(payload)`` method (the
    campaign :class:`~repro.campaign.manifest.Manifest`); append failures
    (ENOSPC, torn disk) are swallowed — spans are disposable observability,
    never load-bearing.  ``by_cell`` accumulates per-cell stage seconds for
    the live ``critical_path`` attribution in ``GET /jobs/<id>``.
    """

    def __init__(self, manifest: Any, worker: str, enabled: bool = True) -> None:
        self.manifest = manifest
        self.worker = worker
        self.enabled = enabled
        #: cell_id -> stage -> cumulative seconds (attempts summed)
        self.by_cell: Dict[str, Dict[str, float]] = {}
        self.recorded = 0
        self.dropped = 0  # spans lost to append errors

    def record(
        self,
        name: str,
        trace_id: Optional[str],
        start: float,
        dur: float,
        cell_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Record one span; no-op (returns None) when disabled or traceless."""
        if not self.enabled or not trace_id:
            return None
        span = Span(
            trace_id=trace_id,
            name=name,
            start=start,
            dur=max(0.0, dur),
            worker=self.worker,
            cell_id=cell_id,
            parent_id=parent_id,
            attrs=attrs,
        )
        if cell_id is not None:
            stages = self.by_cell.setdefault(cell_id, {})
            stages[name] = stages.get(name, 0.0) + span.dur
        try:
            self.manifest.append_span(span.to_payload())
            self.recorded += 1
        except OSError:
            self.dropped += 1
        return span

    def stage_totals(self, cell_ids: Iterable[str]) -> Dict[str, float]:
        """Summed per-stage seconds across ``cell_ids`` (known cells only)."""
        totals: Dict[str, float] = {}
        for cid in cell_ids:
            for stage, dur in (self.by_cell.get(cid) or {}).items():
                totals[stage] = totals.get(stage, 0.0) + dur
        return totals

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "cells": len(self.by_cell),
        }


def read_spans(
    path: Any,
    trace_id: Optional[str] = None,
) -> List[Span]:
    """Parse every span record out of a manifest file, oldest first.

    Streams the file through the manifest's line source and parser
    (:func:`repro.campaign.manifest.read_lines`, ``parse_line``), so it
    skips exactly the lines the manifest reader skips (blank, torn or
    garbled lines) plus every non-span record; with ``trace_id`` only that
    trace's spans return.
    """
    from repro.campaign.manifest import parse_line, read_lines

    spans: List[Span] = []
    for line in read_lines(path):
        if '"span"' not in line:
            continue
        raw = parse_line(line)
        if raw is None or raw.get("kind") != KIND_SPAN:
            continue
        span = Span.from_payload(raw)
        if span is None:
            continue
        if trace_id is not None and span.trace_id != trace_id:
            continue
        spans.append(span)
    spans.sort(key=lambda s: (s.start, s.name))
    return spans


# ----------------------------------------------------------------------
# Critical-path attribution
# ----------------------------------------------------------------------


def attribution(stage_seconds: Dict[str, float]) -> Dict[str, float]:
    """Fractional wall-clock attribution per stage (sums to ~1.0).

    Input is summed per-stage seconds (e.g. :meth:`SpanLog.stage_totals`);
    zero-total input attributes nothing (empty dict), so callers can treat
    "no spans yet" and "spans disabled" identically.
    """
    total = sum(d for d in stage_seconds.values() if d > 0)
    if total <= 0:
        return {}
    return {
        stage: round(dur / total, 4)
        for stage, dur in stage_seconds.items()
        if dur > 0
    }


def critical_path_text(fractions: Dict[str, float]) -> str:
    """Render attribution as ``"queue 71% / execute 24% / merge 5%"``."""
    ordered = sorted(fractions.items(), key=lambda kv: (-kv[1], kv[0]))
    return " / ".join(f"{stage} {frac:.0%}" for stage, frac in ordered)


# ----------------------------------------------------------------------
# Chrome trace-event rendering (merges with repro.obs.export output)
# ----------------------------------------------------------------------

#: service-span pids start here; the simulator's exporters use vault ids
#: (0..n) plus DEVICE_PID=1000, so merged files never collide
SERVICE_PID_BASE = 2000


def spans_to_chrome(spans: Iterable[Span]) -> Dict[str, Any]:
    """Chrome trace-event JSON for service spans: one *process* per worker
    node, one *thread* per cell (thread 0 holds cell-less admit spans).

    Timestamps are microseconds since the earliest span start, so the file
    loads in Perfetto / ``chrome://tracing`` exactly like the simulator
    traces from :func:`repro.obs.export.chrome_trace`.
    """
    spans = list(spans)
    t0 = min((s.start for s in spans), default=0.0)
    workers = sorted({s.worker for s in spans})
    pid_of = {w: SERVICE_PID_BASE + i for i, w in enumerate(workers)}
    tid_of: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        pid = pid_of[span.worker]
        key = (span.worker, span.cell_id or "")
        if span.cell_id is None:
            tid = 0
        else:
            tid = tid_of.setdefault(key, len(
                [k for k in tid_of if k[0] == span.worker]
            ) + 1)
        record: Dict[str, Any] = {
            "name": span.name,
            "cat": "serve",
            "pid": pid,
            "tid": tid,
            "ts": round((span.start - t0) * 1e6, 1),
            "args": {
                "trace": span.trace_id,
                **({"cell": span.cell_id} if span.cell_id else {}),
                **span.attrs,
            },
        }
        if span.dur > 0:
            record["ph"] = "X"
            record["dur"] = round(span.dur * 1e6, 1)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        events.append(record)
    metadata: List[Dict[str, Any]] = []
    for worker in workers:
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid_of[worker],
                "args": {"name": f"serve {worker}" if worker else "serve"},
            }
        )
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid_of[worker],
                "tid": 0,
                "args": {"name": "scheduler"},
            }
        )
    for (worker, cell), tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid_of[worker],
                "tid": tid,
                "args": {"name": cell},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "wall-microseconds",
            "epoch_start": t0,
            "spans": len(spans),
            "traces": len({s.trace_id for s in spans}),
        },
    }


def merge_chrome(
    service_trace: Dict[str, Any],
    sim_traces: Iterable[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Fold simulator Chrome traces into a service-span timeline.

    Simulator events keep their own pids/tids (vault ids + DEVICE_PID, all
    below :data:`SERVICE_PID_BASE`) and their own cycle clock — they appear
    as separate track groups in the same Perfetto tab.  ``otherData`` from
    each input is preserved under ``sim[<index>]``.
    """
    merged = {
        "traceEvents": list(service_trace.get("traceEvents", [])),
        "displayTimeUnit": service_trace.get("displayTimeUnit", "ms"),
        "otherData": dict(service_trace.get("otherData", {})),
    }
    for i, sim in enumerate(sim_traces):
        merged["traceEvents"].extend(sim.get("traceEvents", []))
        other = sim.get("otherData")
        if other:
            merged["otherData"][f"sim{i}"] = other
    return merged
