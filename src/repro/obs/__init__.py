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
submodule on first access.
"""

from importlib import import_module
from typing import Any, Dict

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS: Dict[str, str] = {
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
    "TelemetrySpool": "telemetry",
    "TelemetryAggregator": "telemetry",
    "TelemetryServer": "telemetry",
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
    "append_entry": "trend",
    "load_history": "trend",
    "trend_report": "trend",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        # AttributeError (not ImportError) lets ``from repro.obs import
        # <submodule>`` fall through to the regular submodule import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # cache: later lookups skip __getattr__
    return value
