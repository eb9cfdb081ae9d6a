"""The terminal UI over live campaign telemetry.

:func:`run_monitor` is the ``repro monitor`` loop: it reads a campaign's
worker state files and tails its manifest
(:class:`~repro.obs.telemetry.TelemetryAggregator`) and repaints a
multi-line board - campaign totals and ETA, per-worker rows, stall
highlighting wired to the watchdog diagnosis - on an ANSI terminal;
on a non-TTY stream it degrades to one plain status line per refresh so CI
logs stay useful.  It runs from a second terminal, from another host over a
shared filesystem, or inside the campaign process itself as
``repro campaign --watch`` (:func:`watch`, on a thread, until the campaign
ends).

Rendering is pure (:func:`render_board` takes a snapshot dict and returns
lines), so the tests never need a TTY or a live campaign.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, TextIO, Union

from repro.obs.telemetry import (
    DEFAULT_STALE_AFTER,
    TelemetryAggregator,
    spool_dir_for,
)

#: ANSI fragments (used only when the stream is a TTY)
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_GREEN = "\x1b[32m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"


def fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"


def _fmt_rate(eps: Optional[float]) -> str:
    if not eps:
        return "--"
    if eps >= 1e6:
        return f"{eps / 1e6:.1f}M/s"
    if eps >= 1e3:
        return f"{eps / 1e3:.0f}k/s"
    return f"{eps:.0f}/s"


def _fmt_rss(rss: Optional[int]) -> str:
    if not rss:
        return "--"
    return f"{rss / (1 << 20):.0f}MB"


def render_board(snapshot: dict, color: bool = False) -> List[str]:
    """Render a telemetry snapshot as terminal lines (pure function)."""

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{_RESET}" if color else text

    campaign = snapshot.get("campaign") or {}
    total = campaign.get("total")
    done = campaign.get("done", 0)
    lines: List[str] = []

    header = f"campaign: {done}/{total if total is not None else '?'} cells"
    parts = []
    for key in ("ok", "failed", "cached", "retried"):
        value = campaign.get(key)
        if value:
            text = f"{value} {key}"
            if key == "failed":
                text = paint(text, _RED)
            parts.append(text)
    if parts:
        header += "  (" + ", ".join(parts) + ")"
    eta = campaign.get("eta_seconds")
    if eta is not None and total is not None and done < total:
        header += f"  eta {fmt_duration(eta)}"
    lines.append(header)

    workers = snapshot.get("workers") or []
    name_w = max([len(str(w.get("worker", "?"))) for w in workers] + [6])
    for worker in workers:
        name = str(worker.get("worker", "?"))
        phase = worker.get("phase", "?")
        cell = worker.get("cell") or {}
        cells_done = (worker.get("cells") or {}).get("done", 0)
        if phase in ("running", "start") and cell:
            what = f"{cell.get('workload', '?')}/{cell.get('scheme', '?')}"
            attempt = cell.get("attempt", 1)
            if attempt and attempt > 1:
                what += f" (attempt {attempt})"
            detail = (
                f"{what:<24} cyc {worker.get('cycle', '--'):>12} "
                f"{_fmt_rate(worker.get('eps')):>8}"
            )
        elif phase in ("exit",):
            detail = paint("finished", _DIM)
        else:
            detail = paint(phase, _DIM)
        row = (
            f"  {name:<{name_w}}  {detail}  "
            f"[{cells_done} done, rss {_fmt_rss(worker.get('rss'))}]"
        )
        if worker.get("stalled"):
            reason = worker.get("stall_reason", "stalled")
            row += "  " + paint(f"STALLED: {reason}", _RED)
        lines.append(row)
    if not workers:
        lines.append("  (no worker heartbeats yet)")

    failures = snapshot.get("failures") or []
    for failure in failures[-3:]:
        desc = (
            f"  failed: {failure.get('workload', '?')}/"
            f"{failure.get('scheme', '?')} ({failure.get('status')})"
        )
        diagnosis = failure.get("diagnosis") or {}
        if diagnosis:
            reason = diagnosis.get("reason", "integrity")
            desc += f" [diagnosed: {reason}"
            stuck = diagnosis.get("stuck_component")
            if stuck:
                desc += f", stuck: {stuck}"
            desc += "]"
        lines.append(paint(desc, _YELLOW))
    return lines


def render_status_line(snapshot: dict) -> str:
    """One-line summary for non-TTY streams (CI logs, pipes)."""
    campaign = snapshot.get("campaign") or {}
    total = campaign.get("total")
    done = campaign.get("done", 0)
    running = [
        f"{(w.get('cell') or {}).get('workload', '?')}/"
        f"{(w.get('cell') or {}).get('scheme', '?')}"
        for w in snapshot.get("workers") or []
        if w.get("phase") in ("running", "start") and w.get("cell")
    ]
    stalled = sum(1 for w in snapshot.get("workers") or [] if w.get("stalled"))
    line = f"watch: {done}/{total if total is not None else '?'} done"
    eta = campaign.get("eta_seconds")
    if eta is not None:
        line += f", eta {fmt_duration(eta)}"
    if running:
        line += ", running " + " ".join(running[:4])
    if stalled:
        line += f", {stalled} STALLED"
    return line


# ----------------------------------------------------------------------
# repro monitor
# ----------------------------------------------------------------------


def resolve_monitor_paths(target: Union[str, Path]) -> tuple:
    """Map a monitor target onto ``(spool_dir, manifest_path)``.

    Accepts the manifest file itself, its spool directory, or a directory
    containing exactly one ``*.telemetry`` spool dir / one manifest-like
    JSONL file.
    """
    target = Path(target)
    if target.is_file():
        return spool_dir_for(target), target
    if target.name.endswith(".telemetry") and target.is_dir():
        manifest = Path(str(target)[: -len(".telemetry")])
        return target, (manifest if manifest.exists() else None)
    if target.is_dir():
        spools = sorted(target.glob("*.telemetry"))
        if len(spools) == 1:
            manifest = Path(str(spools[0])[: -len(".telemetry")])
            return spools[0], (manifest if manifest.exists() else None)
        manifests = sorted(target.glob("*.jsonl"))
        if len(manifests) == 1:
            return spool_dir_for(manifests[0]), manifests[0]
        raise FileNotFoundError(
            f"{target}: could not identify a campaign (found "
            f"{len(spools)} spool dirs, {len(manifests)} manifests); "
            "point at the manifest file itself"
        )
    raise FileNotFoundError(f"{target}: no such manifest or spool directory")


def monitor_done(view_snapshot: dict) -> bool:
    """True once every cell the manifest promised is terminal."""
    campaign = view_snapshot.get("campaign") or {}
    total = campaign.get("total")
    return isinstance(total, int) and total > 0 and campaign.get("done", 0) >= total


def run_monitor(
    target: Union[str, Path],
    interval: float = 1.0,
    once: bool = False,
    as_json: bool = False,
    stream: Optional[TextIO] = None,
    stale_after: float = DEFAULT_STALE_AFTER,
    max_seconds: Optional[float] = None,
) -> dict:
    """Watch a campaign's state files and manifest from outside its process.

    Returns the final snapshot (also printed as JSON with ``as_json``).
    Exits when the manifest reports every cell terminal, after one refresh
    with ``once``, or after ``max_seconds``.
    """
    spool_dir, manifest_path = resolve_monitor_paths(target)
    aggregator = TelemetryAggregator(
        spool_dir, manifest_path=manifest_path, stale_after=stale_after
    )
    return watch(aggregator, interval, once, as_json, stream, max_seconds)


def watch(
    aggregator: TelemetryAggregator,
    interval: float = 1.0,
    once: bool = False,
    as_json: bool = False,
    stream: Optional[TextIO] = None,
    max_seconds: Optional[float] = None,
    stop: Optional[threading.Event] = None,
) -> dict:
    """The monitor loop: repaint the board every ``interval`` seconds until
    the campaign is done, ``once`` after one refresh, ``max_seconds`` pass
    or ``stop`` is set; the final board (or JSON snapshot) stays printed."""
    stream = stream or sys.stdout
    stop = stop or threading.Event()
    tty = bool(getattr(stream, "isatty", lambda: False)())
    deadline = time.monotonic() + max_seconds if max_seconds else None
    last_height = 0
    while True:
        snapshot = aggregator.snapshot()
        final = (
            once
            or stop.is_set()
            or monitor_done(snapshot)
            or (deadline is not None and time.monotonic() >= deadline)
        )
        if as_json:
            if final:  # JSON mode only emits the terminal snapshot
                import json

                stream.write(json.dumps(snapshot, indent=2) + "\n")
        elif tty or final:
            lines = render_board(snapshot, color=tty)
            if last_height:
                stream.write(f"\x1b[{last_height}F\x1b[J")  # up + clear below
            stream.write("\n".join(lines) + "\n")
            last_height = len(lines)
        else:
            stream.write(render_status_line(snapshot) + "\n")
        stream.flush()
        if final:
            return snapshot
        stop.wait(interval)
