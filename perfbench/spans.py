"""In-memory span recording, self-time attribution and Chrome-trace export.

Spans are taken around calls into the program's public functions from the
benchmark's own code; nothing inside ``src/`` is instrumented.  Each span
carries a wall-clock start (so spans from several processes share one
timeline), a duration from ``time.perf_counter``, the id of the span that
caused it, and a trace id shared by every span of one cell.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

#: Chrome-trace pid of the benchmark process; pool workers follow it.  Kept
#: below the service span pids and away from the simulator's vault/device
#: pids so ``repro trace --sim`` can fold this file into a service timeline.
CHROME_PID_BASE = 1500


@dataclass
class Span:
    name: str
    start: float  # wall-clock seconds (time.time)
    dur: float  # seconds (perf_counter difference)
    span_id: str
    parent: Optional[str]
    trace: Optional[str]
    pid: int
    #: counts taken at the same boundary as the span
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.dur


class SpanRecorder:
    """Collects spans for one thread; nesting follows the ``with`` stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        sp = Span(
            name=name,
            start=time.time(),
            dur=0.0,
            span_id=uuid.uuid4().hex[:16],
            parent=parent.span_id if parent is not None else None,
            trace=trace,
            pid=self._pid,
        )
        self._stack.append(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.dur = time.perf_counter() - t0
            self._stack.pop()
            self.spans.append(sp)

    def dump(self, path: Path) -> None:
        """Append this recorder's spans to ``path`` (one JSON line each)."""
        with open(path, "a") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
        self.spans = []


def load_spans(span_dir: Path) -> List[Span]:
    """Every span a worker process dumped into ``span_dir``."""
    out: List[Span] = []
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                out.append(Span(**json.loads(line)))
    return out


def adopt_roots(spans: List[Span], parents: Iterable[Span]) -> None:
    """Give each parentless span the innermost candidate that contains it.

    Worker processes cannot know the id of the benchmark-side span that
    caused their work; a candidate with the same trace id wins, otherwise
    the shortest candidate whose interval covers the span.
    """
    cands = sorted(parents, key=lambda s: s.dur)
    for sp in spans:
        if sp.parent is not None:
            continue
        best = None
        for c in cands:
            if c is sp or not (c.start <= sp.start + 1e-3 and sp.end <= c.end + 1e-3):
                continue
            if c.trace is not None and c.trace == sp.trace:
                best = c
                break
            if best is None:
                best = c
        if best is not None:
            sp.parent = best.span_id


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its children cover (children running in parallel count once).
    """
    children: Dict[str, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    totals: Dict[str, float] = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for c in sorted(children.get(sp.span_id, []), key=lambda c: c.start):
            lo = max(cursor, c.start)
            hi = min(sp.end, c.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[sp.name] = totals.get(sp.name, 0.0) + max(0.0, sp.dur - covered)
    return totals


def write_chrome(spans: List[Span], path: Path, meta: dict) -> None:
    """Chrome trace-event JSON (one process per OS process, one thread per
    trace id), loadable in Perfetto and by ``repro trace --sim``.
    Timestamps count from ``otherData.epoch_start`` (wall-clock seconds)."""
    t0 = min((s.start for s in spans), default=0.0)
    pids = {pid: CHROME_PID_BASE + i for i, pid in enumerate(sorted({s.pid for s in spans}))}
    tids: Dict[tuple, int] = {}
    events: List[dict] = []
    for sp in spans:
        key = (sp.pid, sp.trace)
        tid = tids.setdefault(key, sum(1 for k in tids if k[0] == sp.pid))
        events.append(
            {
                "name": sp.name,
                "cat": "perfbench",
                "ph": "X",
                "pid": pids[sp.pid],
                "tid": tid,
                "ts": round((sp.start - t0) * 1e6, 1),
                "dur": round(sp.dur * 1e6, 1),
                "args": {"trace": sp.trace, "id": sp.span_id,
                         "parent": sp.parent, **sp.args},
            }
        )
    for os_pid, pid in pids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": f"perfbench pid {os_pid}"}}
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {**meta, "epoch_start": t0}}, fh)
