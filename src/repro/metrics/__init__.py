"""Derived metrics and reporting helpers for the paper's figures.

:mod:`repro.metrics.collectors` turns sets of
:class:`~repro.system.SimulationResult` into the quantities each figure
plots (normalized speedups, conflict rates, accuracies, AMAT reductions,
normalized energy); :mod:`repro.metrics.report` renders them as aligned
ASCII tables and CSV for the benchmark harness.
"""

from repro.metrics.collectors import (
    ResultMatrix,
    amat_reduction,
    energy_normalized,
    group_geomean,
    normalized_speedups,
)
from repro.metrics.report import format_table, write_csv
from repro.metrics.plot import bar_chart, sparkline, summary_bars
from repro.metrics.latency import (
    LatencySlice,
    format_latency_table,
    latency_by_source,
    latency_segments,
)

__all__ = [
    "ResultMatrix",
    "normalized_speedups",
    "amat_reduction",
    "energy_normalized",
    "group_geomean",
    "format_table",
    "write_csv",
    "bar_chart",
    "summary_bars",
    "sparkline",
    "LatencySlice",
    "format_latency_table",
    "latency_by_source",
    "latency_segments",
]
