"""Derived metrics and reporting helpers for the paper's figures.

:mod:`repro.metrics.collectors` turns sets of
:class:`~repro.system.SimulationResult` into the quantities each figure
plots (normalized speedups, conflict rates, accuracies, AMAT reductions,
normalized energy); :mod:`repro.metrics.report` renders them as aligned
ASCII tables and CSV for the benchmark harness.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "ResultMatrix": "collectors",
        "normalized_speedups": "collectors",
        "amat_reduction": "collectors",
        "energy_normalized": "collectors",
        "group_geomean": "collectors",
        "format_table": "report",
        "write_csv": "report",
        "bar_chart": "plot",
        "summary_bars": "plot",
        "sparkline": "plot",
        "LatencySlice": "latency",
        "format_latency_table": "latency",
        "latency_by_source": "latency",
        "latency_segments": "latency",
    },
)
