"""Regenerate the claims blocks of EXPERIMENTS.md from the committed
benchmark CSVs, in a source checkout:
``PYTHONPATH=src python -m repro.experiments``."""

from pathlib import Path

from repro.experiments.figures import read_summaries
from repro.experiments.report import render_experiments

repo = Path(__file__).resolve().parents[3]
doc = repo / "EXPERIMENTS.md"
doc.write_text(render_experiments(doc.read_text(), read_summaries(repo / "benchmarks/results")))
print(f"regenerated the claims blocks of {doc}")
