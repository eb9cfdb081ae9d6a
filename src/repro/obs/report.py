"""Versioned run-report artifacts and run-to-run diffing.

A :class:`RunReport` is the durable record of one simulation: a config
digest, the headline summary metrics, the full flattened counter tree, and
any time series the run sampled - one JSON file per run, written by
``repro run --report`` and per campaign cell by ``repro campaign
--report-dir``.  Reports are the input to ``repro diff`` (metric deltas and
subsystem attribution) and ``repro report`` (the HTML dashboard,
:mod:`repro.obs.html`).

The format is versioned (:data:`RUN_REPORT_VERSION`); readers reject
higher-versioned files instead of misparsing them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.counters import CounterRegistry, system_counters

RUN_REPORT_VERSION = 1

#: summary metrics captured from a SimulationResult, in display order
SUMMARY_FIELDS = (
    "cycles",
    "geomean_ipc",
    "conflict_rate",
    "row_conflicts",
    "demand_accesses",
    "buffer_hits",
    "prefetches_issued",
    "row_accuracy",
    "line_accuracy",
    "mean_memory_latency",
    "mean_read_latency",
    "energy_pj",
    "link_utilization",
)


def _jsonable(obj: Any) -> Any:
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    return str(obj)


def config_digest(config: Any) -> str:
    """Short stable digest of a configuration object.

    Canonical-JSON SHA-256, truncated to 12 hex chars - the same shape as
    the campaign layer's cell digests, computed locally so :mod:`repro.obs`
    never imports :mod:`repro.campaign` (the dependency runs the other way).
    """
    canon = json.dumps(
        _jsonable(config), sort_keys=True, separators=(",", ":"), default=_jsonable
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class RunReport:
    """Everything one run leaves behind for offline analysis."""

    workload: str
    scheme: str
    config_digest: str
    summary: Dict[str, float]
    counters: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    version: int = RUN_REPORT_VERSION

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.scheme}@{self.config_digest}"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        result: Any,
        config: Any = None,
        counters: Optional[CounterRegistry] = None,
        sampler: Any = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Build a report from a finished run.

        ``result`` is a :class:`~repro.system.SimulationResult`; ``config``
        the :class:`~repro.system.SystemConfig` (digested, not embedded);
        ``counters`` the run's :class:`~repro.obs.counters.CounterRegistry`
        (stored flattened); ``sampler`` contributes its series payload.
        ``config``, ``counters`` and ``sampler`` may each be None.
        """
        summary: Dict[str, float] = {}
        for name in SUMMARY_FIELDS:
            value = getattr(result, name, None)
            if value is None:
                continue
            summary[name] = float(value)
        flat: Dict[str, float] = {}
        if counters is not None:
            flat = {k: float(v) for k, v in counters.flatten().items()}
        series: Dict[str, Any] = {}
        if sampler is not None:
            series = sampler.to_payload()
        return cls(
            workload=result.workload,
            scheme=result.scheme,
            config_digest=config_digest(config) if config is not None else "",
            summary=summary,
            counters=flat,
            series=series,
            meta=dict(meta or {}),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "workload": self.workload,
            "scheme": self.scheme,
            "config_digest": self.config_digest,
            "summary": self.summary,
            "counters": self.counters,
            "series": self.series,
            "meta": self.meta,
        }

    def save(self, path: Union[str, Path]) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")
        return p

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        with Path(path).open() as fh:
            raw = json.load(fh)
        version = int(raw.get("version", 0))
        if version > RUN_REPORT_VERSION:
            raise ValueError(
                f"run report {path} has version {version}; this build reads "
                f"<= {RUN_REPORT_VERSION}"
            )
        return cls(
            workload=raw.get("workload", ""),
            scheme=raw.get("scheme", ""),
            config_digest=raw.get("config_digest", ""),
            summary={k: float(v) for k, v in raw.get("summary", {}).items()},
            counters={k: float(v) for k, v in raw.get("counters", {}).items()},
            series=raw.get("series", {}),
            meta=raw.get("meta", {}),
            version=version,
        )


def build_run_report(system: Any, result: Any, **meta: Any) -> RunReport:
    """Build a report straight from a finished ``System``.

    Counters come from :func:`~repro.obs.counters.system_counters`, read
    after the run, so a report needs no tracer attached.
    """
    return RunReport.from_run(
        result,
        config=system.config,
        counters=system_counters(system),
        sampler=getattr(system, "timeseries", None),
        meta=meta or None,
    )


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

#: subsystems counters are attributed to, in fallback order
SUBSYSTEMS = (
    "buffer/prefetch",
    "bank",
    "scheduler",
    "link",
    "tsv/bus",
    "host/queues",
    "device",
)


def subsystem_of(name: str) -> str:
    """Map a flattened counter name onto a subsystem bucket."""
    leaf = name.rsplit(".", 1)[-1]
    if (
        "buffer" in leaf
        or "prefetch" in leaf
        or "writeback" in leaf
        # CAMPS table state (Conflict Table / Row Utilization Table) belongs
        # to the prefetching scheme, not the vault datapath
        or leaf.startswith(("ct_", "rut_"))
    ):
        return "buffer/prefetch"
    if ".bank" in name:
        return "bank"
    if leaf.startswith("sched_") or "drain" in leaf:
        return "scheduler"
    if "link" in name:
        return "link"
    if "tsv" in leaf:
        return "tsv/bus"
    if name.startswith("host.") or "queue" in leaf:
        return "host/queues"
    return "device"


@dataclass
class MetricDelta:
    """One metric's change from run A to run B."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        """Relative change, |delta| / max(|a|, |b|); 0 when both are 0."""
        scale = max(abs(self.a), abs(self.b))
        return abs(self.delta) / scale if scale else 0.0


@dataclass
class SeriesDivergence:
    """Where two runs' series for the same metric pull apart."""

    name: str
    first_cycle: Optional[int]  # first aligned sample exceeding tolerance
    max_gap: float
    aligned_samples: int


@dataclass
class ReportDiff:
    """Structured comparison of two :class:`RunReport` artifacts."""

    a_label: str
    b_label: str
    metrics: List[MetricDelta]
    counters: List[MetricDelta]
    subsystems: List[Tuple[str, float, int]]  # (name, score, aggregated leaves)
    divergences: List[SeriesDivergence]

    def top_subsystem(self) -> Optional[str]:
        """The subsystem contributing most to the delta (None if no diff)."""
        for name, score, _ in self.subsystems:
            if score > 0:
                return name
        return None

    def to_text(self, max_counters: int = 10) -> str:
        lines = [f"diff {self.a_label} -> {self.b_label}"]
        lines.append("  summary metrics")
        for m in self.metrics:
            mark = "  " if m.rel < 0.001 else "* "
            lines.append(
                f"    {mark}{m.name:<22} {m.a:>14.6g} -> {m.b:>14.6g}"
                f"  ({m.delta:+.6g}, {m.rel * 100:.2f}%)"
            )
        if self.subsystems:
            lines.append("  subsystem attribution (max aggregated metric delta)")
            for name, score, n in self.subsystems:
                lines.append(f"    {name:<16} {score * 100:7.2f}%  ({n} metrics)")
        moved = [c for c in self.counters if c.rel >= 0.001]
        if moved:
            lines.append(f"  top counter deltas ({len(moved)} changed)")
            for c in moved[:max_counters]:
                lines.append(
                    f"    {c.name:<40} {c.a:>12.6g} -> {c.b:>12.6g}"
                    f"  ({c.rel * 100:.1f}%)"
                )
        diverged = [d for d in self.divergences if d.first_cycle is not None]
        if diverged:
            lines.append(f"  series divergence ({len(diverged)} series)")
            for d in diverged[:max_counters]:
                lines.append(
                    f"    {d.name:<28} from cycle {d.first_cycle}"
                    f"  (max gap {d.max_gap:.4g})"
                )
            if len(diverged) > max_counters:
                lines.append(f"    ... and {len(diverged) - max_counters} more")
        return "\n".join(lines)


def _series_map(report: RunReport) -> Dict[str, Dict[str, Any]]:
    """Inner ``name -> samples`` map, tolerating degenerate payloads.

    Hand-edited or partially-written artifacts can carry ``"series": null``
    (outer or inner) — treat every non-dict shape as "no series" rather
    than raising mid-diff.
    """
    outer = report.series
    if not isinstance(outer, dict):
        return {}
    inner = outer.get("series")
    return inner if isinstance(inner, dict) else {}


def has_series(report: RunReport) -> bool:
    """True when the report carries at least one sampled series."""
    return bool(_series_map(report))


def _diverge(name: str, sa: Dict[str, Any], sb: Dict[str, Any]) -> SeriesDivergence:
    ta = {int(t): v for t, v in zip(sa.get("times", []), sa.get("values", []))}
    first: Optional[int] = None
    max_gap = 0.0
    aligned = 0
    for t, vb in zip(sb.get("times", []), sb.get("values", [])):
        va = ta.get(int(t))
        if va is None:
            continue
        aligned += 1
        if math.isnan(va) or math.isnan(vb):
            continue
        gap = abs(vb - va)
        if gap > max_gap:
            max_gap = gap
        # tolerance scales with magnitude; exact zeros stay exact
        if first is None and gap > 1e-9 + 1e-6 * max(abs(va), abs(vb)):
            first = int(t)
    return SeriesDivergence(name, first, max_gap, aligned)


#: per-instance scope segments collapsed by :func:`_leaf_key`
_INSTANCE = re.compile(r"(vault|bank|link)\d+")

#: aggregated leaves smaller than this are damped in the subsystem score
#: (a 0 -> 2 blip would otherwise claim a perfect relative delta)
_MIN_SCALE = 16.0


def _leaf_key(name: str) -> str:
    """Collapse instance indices: ``vault3.bank7.acts`` -> ``vault*.bank*.acts``."""
    return _INSTANCE.sub(lambda m: m.group(1) + "*", name)


def _subsystem_scores(
    counters: List[MetricDelta],
) -> List[Tuple[str, float, int]]:
    """Rank subsystems by their most-changed *aggregated* metric.

    Per-instance counters are summed across vaults/banks/links first, so a
    single noisy bank cannot speak for the bank subsystem and the hundreds
    of per-bank counters cannot outvote the handful of buffer counters by
    sheer count.  Each subsystem then scores as the maximum relative delta
    over its aggregated leaves, damped toward zero for leaves whose total
    magnitude is below ``_MIN_SCALE`` (small-count noise).
    """
    agg: Dict[str, List[float]] = {}
    for c in counters:
        bucket = agg.setdefault(_leaf_key(c.name), [0.0, 0.0])
        bucket[0] += c.a
        bucket[1] += c.b
    grouped: Dict[str, Tuple[float, int]] = {}
    for leaf, (a, b) in agg.items():
        scale = max(abs(a), abs(b))
        rel = abs(b - a) / scale if scale else 0.0
        score = rel * min(1.0, scale / _MIN_SCALE)
        sub = subsystem_of(leaf)
        best, n = grouped.get(sub, (0.0, 0))
        grouped[sub] = (max(best, score), n + 1)
    return sorted(
        ((name, score, n) for name, (score, n) in grouped.items()),
        key=lambda t: t[1],
        reverse=True,
    )


def diff_reports(a: RunReport, b: RunReport) -> ReportDiff:
    """Align two reports and rank what changed.

    Summary metrics and counters are matched by name (missing on either
    side is skipped); counters are additionally attributed to subsystems
    via :func:`_subsystem_scores`.
    """
    metrics = [
        MetricDelta(k, a.summary[k], b.summary[k])
        for k in SUMMARY_FIELDS
        if k in a.summary and k in b.summary
    ]
    counters = [
        MetricDelta(k, a.counters[k], b.counters[k])
        for k in sorted(set(a.counters) & set(b.counters))
        if not (math.isnan(a.counters[k]) or math.isnan(b.counters[k]))
    ]
    counters.sort(key=lambda m: m.rel, reverse=True)
    subsystems = _subsystem_scores(counters)

    sa, sb = _series_map(a), _series_map(b)
    divergences = [_diverge(name, sa[name], sb[name]) for name in sorted(set(sa) & set(sb))]
    return ReportDiff(
        a_label=a.label,
        b_label=b.label,
        metrics=metrics,
        counters=counters,
        subsystems=subsystems,
        divergences=divergences,
    )
