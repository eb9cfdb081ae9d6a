"""Experiment harness: one entry point per paper table and figure.

:mod:`repro.experiments.runner` runs (mix x scheme) grids as one
:mod:`repro.campaign` with an on-disk summary cache; :mod:`repro.experiments.figures` computes the
data behind Figures 5-9 and holds the paper's claims about it (``CLAIMS``);
:mod:`repro.experiments.tables` reproduces Tables I-II.  The
``benchmarks/`` directory wraps these in pytest-benchmark entries, one per
figure.  ``python -m repro.experiments`` regenerates the claims tables of
EXPERIMENTS.md from the committed benchmark CSVs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "ExperimentConfig": "runner",
        "run_matrix": "runner",
        "figure5": "figures",
        "figure6": "figures",
        "figure7": "figures",
        "figure8": "figures",
        "figure9": "figures",
        "FigureData": "figures",
        "table1_text": "tables",
        "table2_rows": "tables",
        "generate_report": "report",
    },
)
