"""Prometheus text exposition for campaign telemetry snapshots.

:func:`render_metrics` turns a :meth:`CampaignView.to_snapshot
<repro.obs.telemetry.CampaignView.to_snapshot>` dict into the Prometheus
text exposition format (version 0.0.4) served at ``/metrics``.
:func:`parse_exposition` is a strict-enough parser used by the tests and the
CI smoke job to assert the output is actually scrapeable — every sample line
must match the exposition grammar and agree with its ``# TYPE`` declaration.

Most metrics are gauges (campaign state is a snapshot, and counters reset
when a campaign restarts); the serve layer's queue-age and service-time
distributions render as real Prometheus *histogram* families — cumulative
``_bucket{le=...}`` series ending in the mandatory ``+Inf`` bucket plus
``_sum``/``_count``.  The ``repro_`` prefix namespaces everything.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

_METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: one sample line: name{labels} value  (labels optional)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt_value(value: object) -> Optional[str]:
    try:
        num = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    if math.isnan(num):
        return "NaN"
    if math.isinf(num):
        return "+Inf" if num > 0 else "-Inf"
    if num == int(num) and abs(num) < 1e15:
        return str(int(num))
    return repr(num)


def _sanitize(name: str) -> str:
    """Fold an arbitrary counter/gauge name into a metric-safe suffix."""
    out = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not out or not _METRIC_RE.match(out):
        out = "_" + out
    return out


class _Family:
    """One metric family: HELP/TYPE header plus its sample lines."""

    def __init__(self, name: str, help_text: str, kind: str = "gauge") -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.samples: List[str] = []

    @staticmethod
    def _labels(labels: Dict[str, str]) -> str:
        if not labels:
            return ""
        inner = ",".join(
            f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
        )
        return "{" + inner + "}"

    def add(self, value: object, labels: Optional[Dict[str, str]] = None) -> None:
        text = _fmt_value(value)
        if text is None:
            return
        self.samples.append(f"{self.name}{self._labels(labels or {})} {text}")

    def add_histogram(
        self, snap: dict, labels: Optional[Dict[str, str]] = None
    ) -> None:
        """One histogram series from a :meth:`LogHistogram.snapshot
        <repro.serve.admission.LogHistogram.snapshot>` dict: cumulative
        ``_bucket`` lines (``+Inf`` last) plus ``_sum`` and ``_count``."""
        base = dict(labels or {})
        for bucket in snap.get("buckets") or []:
            le = _fmt_value(bucket.get("le"))
            count = _fmt_value(bucket.get("count"))
            if le is None or count is None:
                continue
            sample_labels = self._labels({**base, "le": le})
            self.samples.append(f"{self.name}_bucket{sample_labels} {count}")
        total = _fmt_value(snap.get("sum", 0.0))
        count = _fmt_value(snap.get("count", 0))
        if total is not None and count is not None:
            self.samples.append(f"{self.name}_sum{self._labels(base)} {total}")
            self.samples.append(f"{self.name}_count{self._labels(base)} {count}")

    def render(self) -> List[str]:
        if not self.samples:
            return []
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
            *self.samples,
        ]


def render_metrics(snapshot: dict) -> str:
    """Render a telemetry snapshot as Prometheus text exposition."""
    fams: Dict[str, _Family] = {}

    def fam(name: str, help_text: str, kind: str = "gauge") -> _Family:
        f = fams.get(name)
        if f is None:
            f = fams[name] = _Family(name, help_text, kind)
        return f

    campaign = snapshot.get("campaign") or {}
    for key in ("total", "done", "ok", "failed", "cached", "retried"):
        if key in campaign:
            fam(
                f"repro_campaign_cells_{key}",
                f"Campaign '{key}' count from the manifest's terminal records.",
            ).add(campaign[key])
    if campaign.get("eta_seconds") is not None:
        fam(
            "repro_campaign_eta_seconds",
            "Estimated wall-clock seconds until the campaign completes.",
        ).add(campaign["eta_seconds"])

    serve = snapshot.get("serve") or {}
    if serve:
        fam(
            "repro_serve_draining",
            "1 while the service is draining (refusing submissions).",
        ).add(1 if serve.get("draining") else 0)
        fam(
            "repro_serve_inflight_cells",
            "Cells currently executing in the service's worker pool.",
        ).add(serve.get("inflight", 0))
        q_fam = fam(
            "repro_serve_queued_cells",
            "Admitted cells waiting for a worker, per priority lane.",
        )
        for lane, value in sorted((serve.get("pending") or {}).items()):
            q_fam.add(value, {"lane": str(lane)})
        j_fam = fam(
            "repro_serve_jobs",
            "Service jobs by lifecycle state.",
        )
        for state, value in sorted((serve.get("jobs") or {}).items()):
            j_fam.add(value, {"state": str(state)})
        admission = serve.get("admission") or {}
        fam(
            "repro_serve_shed_total",
            "Submissions shed with 429 since the service started.",
        ).add(admission.get("shed_total", 0))
        fam(
            "repro_serve_admitted_cells_total",
            "Cells admitted past load shedding since the service started.",
        ).add(admission.get("admitted_cells", 0))
        fam(
            "repro_serve_cell_seconds_ema",
            "Smoothed per-cell service time used for retry_after hints.",
        ).add(admission.get("cell_seconds"))
        r_fam = fam(
            "repro_serve_retry_after_seconds",
            "retry_after a shed submission would receive right now, per lane.",
        )
        for lane, value in sorted((admission.get("retry_after") or {}).items()):
            r_fam.add(value, {"lane": str(lane)})
        for metric, key, help_text in (
            (
                "repro_serve_queue_age_seconds",
                "queue_age",
                "Time admitted cells sat queued in their lane before dispatch.",
            ),
            (
                "repro_serve_service_time_seconds",
                "service_time",
                "Wall-clock execution time of completed cells, per lane.",
            ),
        ):
            lanes = admission.get(key) or {}
            if lanes:
                h_fam = fam(metric, help_text, kind="histogram")
                for lane, hist in sorted(lanes.items()):
                    h_fam.add_histogram(hist, {"lane": str(lane)})
        spans = serve.get("spans") or {}
        if spans:
            fam(
                "repro_serve_spans_recorded_total",
                "Tracing spans this node appended to the manifest.",
            ).add(spans.get("recorded", 0))
            fam(
                "repro_serve_spans_dropped_total",
                "Tracing spans lost to manifest append failures.",
            ).add(spans.get("dropped", 0))
        fam(
            "repro_serve_stolen_cells_total",
            "Orphaned cells this node stole after their owner's lease expired.",
        ).add(serve.get("stolen_total", 0))
        fam(
            "repro_serve_quarantined_cells_total",
            "Diagnosed-terminal cells quarantined instead of retried.",
        ).add(serve.get("quarantined_total", 0))
        fam(
            "repro_serve_completed_cells_total",
            "Cells this node executed to a terminal state (cache hits excluded).",
        ).add(serve.get("completed_cells", 0))
        fam(
            "repro_serve_unrecorded_cells",
            "Finished cells whose manifest append is still failing (ENOSPC).",
        ).add(serve.get("unrecorded", 0))
        fam(
            "repro_serve_logical_clock",
            "This node's work-stealing logical clock.",
        ).add(serve.get("clock", 0))
        if serve.get("admission_p99_seconds") is not None:
            fam(
                "repro_serve_admission_p99_seconds",
                "99th percentile submit handling latency on this node.",
            ).add(serve["admission_p99_seconds"])

    workers = snapshot.get("workers") or []
    w_age = fam(
        "repro_worker_heartbeat_age_seconds",
        "Seconds since the worker's newest heartbeat.",
    )
    w_stalled = fam(
        "repro_worker_stalled",
        "1 when the worker looks wedged (stale, frozen cycle, or watchdog).",
    )
    w_cells = fam(
        "repro_worker_cells_done",
        "Cells this worker has driven to a terminal state.",
    )
    w_rss = fam("repro_worker_rss_bytes", "Worker resident set size.")
    w_cycle = fam(
        "repro_worker_sim_cycle", "Current simulation cycle of the running cell."
    )
    w_events = fam(
        "repro_worker_sim_events",
        "Events scheduled so far in the running cell's engine.",
    )
    w_eps = fam(
        "repro_worker_events_per_second",
        "Live event-scheduling rate of the running cell.",
    )
    w_info = fam(
        "repro_worker_info",
        "Identity of each worker's running cell (value is always 1).",
    )
    w_counter = fam(
        "repro_worker_counter",
        "Retry/fault/integrity counters sampled from the worker's simulator.",
    )
    w_gauge = fam(
        "repro_worker_gauge",
        "Latest value of each attached timeseries gauge.",
    )
    for worker in workers:
        labels = {"worker": str(worker.get("worker", "?"))}
        w_age.add(worker.get("age_seconds"), labels)
        w_stalled.add(1 if worker.get("stalled") else 0, labels)
        w_cells.add((worker.get("cells") or {}).get("done", 0), labels)
        w_rss.add(worker.get("rss"), labels)
        if "cycle" in worker:
            w_cycle.add(worker["cycle"], labels)
        if "events" in worker:
            w_events.add(worker["events"], labels)
        if "eps" in worker:
            w_eps.add(worker["eps"], labels)
        info = {**labels, "phase": str(worker.get("phase", "unknown"))}
        cell = worker.get("cell") or {}
        if cell:
            info["workload"] = str(cell.get("workload", "?"))
            info["scheme"] = str(cell.get("scheme", "?"))
        w_info.add(1, info)
        for name, value in sorted((worker.get("counters") or {}).items()):
            w_counter.add(value, {**labels, "counter": _sanitize(name)})
        for name, value in sorted((worker.get("gauges") or {}).items()):
            w_gauge.add(value, {**labels, "gauge": _sanitize(name)})

    lines: List[str] = []
    for name in sorted(fams):
        lines.extend(fams[name].render())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Validation (tests / CI smoke)
# ----------------------------------------------------------------------


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse exposition text; raise ``ValueError`` on any malformed line.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(labels_dict, float_value), ...]}}``.  Histogram/summary component
    samples (``<family>_bucket``, ``_sum``, ``_count``) associate with their
    base family and land under its ``"series"`` dict keyed by suffix.
    Enforces the parts of the format a scraper depends on: metric/label name
    grammar, quoted+escaped label values, parseable float values, TYPE
    declared before samples — and full histogram semantics (cumulative
    monotone buckets, a ``+Inf`` bucket, ``_count`` equal to the ``+Inf``
    count, a ``_sum`` per series).
    """
    families: Dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _METRIC_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _METRIC_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown type {parts[3]!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = m.group("name")
        labels = _parse_labels(m.group("labels"), lineno)
        raw = m.group("value")
        try:
            value = float(raw)  # accepts NaN / +Inf / -Inf spellings too
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {raw!r}")
        family = families.get(name)
        suffix = ""
        if family is None or family["type"] is None:
            # histogram/summary component samples carry a suffixed name;
            # associate them with the declared base family
            for cand in ("_bucket", "_sum", "_count"):
                if not name.endswith(cand):
                    continue
                base = families.get(name[: -len(cand)])
                if base is None or base["type"] not in ("histogram", "summary"):
                    continue
                if cand == "_bucket" and base["type"] != "histogram":
                    continue
                family, suffix = base, cand
                break
        if family is None or family["type"] is None:
            raise ValueError(f"line {lineno}: sample before TYPE for {name!r}")
        if suffix:
            family.setdefault("series", {}).setdefault(suffix, []).append(
                (labels, value)
            )
        else:
            family["samples"].append((labels, value))
    for name, family in families.items():
        if family["type"] == "histogram":
            _validate_histogram(name, family)
    return families


def _validate_histogram(name: str, family: dict) -> None:
    """Histogram semantics a scraper silently miscounts without."""
    series = family.get("series") or {}
    buckets = series.get("_bucket") or []
    if not buckets:
        raise ValueError(f"histogram {name!r} has no _bucket samples")
    groups: Dict[tuple, List[Tuple[float, float]]] = {}
    for labels, value in buckets:
        le_raw = labels.get("le")
        if le_raw is None:
            raise ValueError(f"histogram {name!r}: _bucket without 'le' label")
        try:
            le = float(le_raw)
        except ValueError:
            raise ValueError(f"histogram {name!r}: unparseable le {le_raw!r}")
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        groups.setdefault(key, []).append((le, value))
    sums = {
        tuple(sorted(labels.items())): value
        for labels, value in series.get("_sum") or []
    }
    counts = {
        tuple(sorted(labels.items())): value
        for labels, value in series.get("_count") or []
    }
    for key, rows in groups.items():
        where = f"{name}{dict(key)}"
        rows.sort(key=lambda r: r[0])
        if not math.isinf(rows[-1][0]):
            raise ValueError(f"histogram {where}: missing +Inf bucket")
        values = [v for _, v in rows]
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(f"histogram {where}: buckets not cumulative")
        if key not in sums:
            raise ValueError(f"histogram {where}: missing _sum")
        if key not in counts:
            raise ValueError(f"histogram {where}: missing _count")
        if counts[key] != values[-1]:
            raise ValueError(
                f"histogram {where}: _count {counts[key]} != "
                f"+Inf bucket {values[-1]}"
            )


def _parse_labels(raw: Optional[str], lineno: int) -> Dict[str, str]:
    if not raw:
        return {}
    out: Dict[str, str] = {}
    # split on commas not inside quotes
    parts: List[str] = []
    depth_quote = False
    current = ""
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and depth_quote:
            current += raw[i : i + 2]
            i += 2
            continue
        if ch == '"':
            depth_quote = not depth_quote
        if ch == "," and not depth_quote:
            parts.append(current)
            current = ""
        else:
            current += ch
        i += 1
    if current:
        parts.append(current)
    for part in parts:
        m = _LABEL_PAIR_RE.match(part)
        if m is None:
            raise ValueError(f"line {lineno}: malformed label pair {part!r}")
        key = m.group("key")
        if not _LABEL_RE.match(key):
            raise ValueError(f"line {lineno}: bad label name {key!r}")
        out[key] = (
            m.group("value")
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
    return out
