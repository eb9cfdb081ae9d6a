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

Counters and run reports need no tracer: :func:`system_counters` builds the
counter registry of any built system, and :func:`build_run_report` reads it
after the run.  When no tracer is attached every hook in the simulator is
bound to :func:`repro.obs.hooks.noop` - no branch on the hot path (see
:mod:`repro.obs.hooks` and ``benchmarks/bench_obs_overhead.py``).

The package is lazy (PEP 562): the simulator's components import
:mod:`repro.obs.hooks`, and that must not load the exporters, the HTML
dashboard, telemetry or spans.  Each name below is imported from its
submodule on first access (:func:`repro._lazy.lazy_exports`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "Tracer": "tracer",
        "TraceEvent": "events",
        "CounterRegistry": "counters",
        "CounterScope": "counters",
        "system_counters": "counters",
        "ALL_KINDS": "events",
        "PROV_UTILIZATION": "events",
        "PROV_CONFLICT": "events",
        "chrome_trace": "export",
        "write_chrome_trace": "export",
        "write_jsonl": "export",
        "text_summary": "export",
        "Series": "timeseries",
        "TimeseriesSampler": "timeseries",
        "DEFAULT_EPOCH": "timeseries",
        "RunReport": "report",
        "ReportDiff": "report",
        "build_run_report": "report",
        "diff_reports": "report",
        "has_series": "report",
        "render_html": "html",
        "write_html": "html",
        "TelemetryAggregator": "telemetry",
        "WorkerTelemetry": "telemetry",
        "CampaignView": "telemetry",
        "publish_system": "telemetry",
        "spool_dir_for": "telemetry",
        "render_metrics": "promtext",
        "parse_exposition": "promtext",
        "Span": "spans",
        "SpanLog": "spans",
        "attribution": "spans",
        "critical_path_text": "spans",
        "format_traceparent": "spans",
        "merge_chrome": "spans",
        "mint_trace_id": "spans",
        "parse_traceparent": "spans",
        "read_spans": "spans",
        "spans_to_chrome": "spans",
    },
)
