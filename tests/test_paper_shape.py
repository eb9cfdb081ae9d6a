"""The paper's claims at tier-1 scale.

Every ``tier1`` row of :data:`repro.experiments.figures.CLAIMS` is checked
here on HM1 + LM1 at 2500 refs per core, seed 1 (each mix group is one
mix, so a per-group row checks that workload), plus the two ablation rows
on their own mixes.  ``full`` rows are checked against the committed
benchmark CSVs by ``tests/test_docs.py``.
"""

import pytest

from repro.experiments.figures import (
    FIG5_SCHEMES,
    TIER1,
    ablation_figure,
    paper_figures,
    required,
)
from repro.experiments.runner import ExperimentConfig, run_matrix
from repro.experiments.sweep import Sweep

SCALE = {"refs_per_core": 2500, "seed": 1}


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:  # one result log for every cell
        mp.setenv("REPRO_CACHE", str(tmp_path_factory.mktemp("cache") / "c.jsonl"))
        figures = paper_figures(
            run_matrix(["HM1", "LM1"], FIG5_SCHEMES, ExperimentConfig(**SCALE))
        )
        ct = Sweep("scheme:conflict_table_entries", [32, 128]).run("HM3", **SCALE)
        rut = Sweep("scheme:utilization_threshold", [2, 4, 8, 12]).run(
            "HM1", baseline_scheme=None, **SCALE
        )
    figures["ct_size"] = ablation_figure(
        "ct_size", "HM3", {p.value: p.speedup_vs_base for p in ct.points}
    )
    figures["rut_threshold"] = ablation_figure(
        "rut_threshold", "HM1", {p.value: p.result.prefetches_issued for p in rut.points}
    )
    return {name: data.summary for name, data in figures.items()}


@pytest.mark.parametrize("claim", required(TIER1), ids=lambda c: c.key)
def test_claim(claim, summaries):
    assert claim.holds(summaries) is True, claim.verdict(summaries)
