"""Experiment harness: one entry point per paper table and figure.

:mod:`repro.experiments.runner` runs (mix x scheme) grids as one
:mod:`repro.campaign` with an on-disk summary cache; :mod:`repro.experiments.figures` computes the
data behind Figures 5-9 and holds the paper's claims about it (``CLAIMS``);
:mod:`repro.experiments.tables` reproduces Tables I-II.  The
``benchmarks/`` directory wraps these in pytest-benchmark entries, one per
figure.  ``python -m repro.experiments`` regenerates the claims tables of
EXPERIMENTS.md from the committed benchmark CSVs.
"""

from repro.experiments.runner import ExperimentConfig, run_matrix
from repro.experiments.figures import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    FigureData,
)
from repro.experiments.tables import table1_text, table2_rows
from repro.experiments.report import generate_report

__all__ = [
    "ExperimentConfig",
    "run_matrix",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "FigureData",
    "table1_text",
    "table2_rows",
    "generate_report",
]
