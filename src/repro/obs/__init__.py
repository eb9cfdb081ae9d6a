"""Observability: structured tracing, hierarchical counters, exporters.

The subsystem answers the per-event questions the end-of-run aggregates
cannot: *why* was this row prefetched (utilization- or conflict-triggered),
why did a conflict-prone row miss the Conflict Table, which resident row did
CAMPS-MOD evict and with what utilization.  Attach a :class:`Tracer` to a
:class:`~repro.system.System` and every decision point in the simulator
records a typed event; afterwards export the stream as a Chrome trace
(Perfetto / ``chrome://tracing``), JSONL, or a text summary.

Usage::

    from repro import mix, System, SystemConfig
    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    system = System(mix("HM1", 3000), SystemConfig(scheme="camps-mod"),
                    workload="HM1", tracer=tracer)
    result = system.run()
    write_chrome_trace(tracer, "out.json")
    print(result.extra["trace_summary"]["prefetch_provenance"])

When no tracer is attached every hook in the simulator is a no-op behind a
single attribute check - see ``benchmarks/bench_obs_overhead.py``.
"""

from repro.obs.counters import CounterRegistry, CounterScope
from repro.obs.events import (
    ALL_KINDS,
    PROV_CONFLICT,
    PROV_UTILIZATION,
    TraceEvent,
)
from repro.obs.export import (
    chrome_trace,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.html import render_html, write_html
from repro.obs.report import (
    RunReport,
    ReportDiff,
    build_run_report,
    diff_reports,
    has_series,
)
from repro.obs.promtext import parse_exposition, render_metrics
from repro.obs.spans import (
    Span,
    SpanLog,
    attribution,
    critical_path_text,
    format_traceparent,
    merge_chrome,
    mint_trace_id,
    parse_traceparent,
    read_spans,
    spans_to_chrome,
)
from repro.obs.telemetry import (
    CampaignView,
    TelemetryAggregator,
    TelemetryServer,
    TelemetrySpool,
    WorkerTelemetry,
    publish_system,
    spool_dir_for,
)
from repro.obs.timeseries import DEFAULT_EPOCH, Series, TimeseriesSampler
from repro.obs.tracer import Tracer
from repro.obs.trend import append_entry, load_history, trend_report

__all__ = [
    "Tracer",
    "TraceEvent",
    "CounterRegistry",
    "CounterScope",
    "ALL_KINDS",
    "PROV_UTILIZATION",
    "PROV_CONFLICT",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "text_summary",
    "Series",
    "TimeseriesSampler",
    "DEFAULT_EPOCH",
    "RunReport",
    "ReportDiff",
    "build_run_report",
    "diff_reports",
    "has_series",
    "render_html",
    "write_html",
    "TelemetrySpool",
    "TelemetryAggregator",
    "TelemetryServer",
    "WorkerTelemetry",
    "CampaignView",
    "publish_system",
    "spool_dir_for",
    "render_metrics",
    "parse_exposition",
    "Span",
    "SpanLog",
    "attribution",
    "critical_path_text",
    "format_traceparent",
    "merge_chrome",
    "mint_trace_id",
    "parse_traceparent",
    "read_spans",
    "spans_to_chrome",
    "append_entry",
    "load_history",
    "trend_report",
]
