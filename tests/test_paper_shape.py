"""End-to-end shape checks against the paper's qualitative claims.

These run one HM-style and one LM-style workload at reduced scale and assert
the *relationships* the paper reports, with generous tolerances - absolute
numbers are covered by the benchmark harness (EXPERIMENTS.md), not here.
"""

import pytest

from repro.campaign import Manifest
from repro.experiments.runner import ExperimentConfig, run_matrix
from repro.sim.stats import geomean

SCHEMES = ["base", "base-hit", "mmd", "camps", "camps-mod"]


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    cache = Manifest(tmp_path_factory.mktemp("cache") / "c.jsonl")
    cfg = ExperimentConfig(refs_per_core=2500, seed=1)
    return run_matrix(["HM1", "LM1"], SCHEMES, cfg, cache=cache)


def speedup(matrix, workload, scheme):
    return matrix.get(workload, scheme).speedup_vs(matrix.get(workload, "base"))


class TestFigure5Shape:
    def test_camps_mod_beats_base(self, matrix):
        for w in ("HM1", "LM1"):
            assert speedup(matrix, w, "camps-mod") > 1.0

    def test_camps_mod_beats_mmd_and_base_hit_on_hm(self, matrix):
        assert speedup(matrix, "HM1", "camps-mod") > speedup(matrix, "HM1", "mmd")
        assert speedup(matrix, "HM1", "camps-mod") > speedup(matrix, "HM1", "base-hit")

    def test_hm_gains_exceed_lm_gains(self, matrix):
        assert speedup(matrix, "HM1", "camps-mod") > speedup(matrix, "LM1", "camps-mod")

    def test_camps_family_leads_overall(self, matrix):
        avg = {
            s: geomean([speedup(matrix, w, s) for w in ("HM1", "LM1")])
            for s in SCHEMES
        }
        assert max(avg, key=avg.get) in ("camps", "camps-mod")


class TestFigure6Shape:
    def test_base_zero_conflicts(self, matrix):
        assert matrix.get("HM1", "base").conflict_rate == 0.0

    def test_camps_reduces_conflicts_vs_mmd(self, matrix):
        for w in ("HM1", "LM1"):
            assert (
                matrix.get(w, "camps").conflict_rate
                < matrix.get(w, "mmd").conflict_rate
            )

    def test_camps_reduces_conflicts_vs_base_hit(self, matrix):
        for w in ("HM1", "LM1"):
            assert (
                matrix.get(w, "camps").conflict_rate
                < matrix.get(w, "base-hit").conflict_rate
            )


class TestFigure7Shape:
    def test_base_least_accurate(self, matrix):
        for w in ("HM1", "LM1"):
            base_acc = matrix.get(w, "base").row_accuracy
            for s in ("camps", "camps-mod"):
                assert matrix.get(w, s).row_accuracy > base_acc

    def test_camps_mod_accuracy_not_below_camps_much(self, matrix):
        # CAMPS-MOD's replacement keeps useful rows; accuracy within a few
        # points of plain CAMPS at minimum.
        for w in ("HM1", "LM1"):
            assert (
                matrix.get(w, "camps-mod").row_accuracy
                >= matrix.get(w, "camps").row_accuracy - 0.10
            )


class TestFigure8Shape:
    def test_camps_mod_cuts_amat_vs_base_on_hm(self, matrix):
        base = matrix.get("HM1", "base").mean_read_latency
        mod = matrix.get("HM1", "camps-mod").mean_read_latency
        assert mod < base


class TestFigure9Shape:
    def test_base_most_energy(self, matrix):
        for w in ("HM1", "LM1"):
            base_e = matrix.get(w, "base").energy_pj
            for s in ("mmd", "camps-mod"):
                assert matrix.get(w, s).energy_pj < base_e

    def test_camps_mod_saves_more_than_mmd(self, matrix):
        for w in ("HM1",):
            assert (
                matrix.get(w, "camps-mod").energy_pj
                < matrix.get(w, "mmd").energy_pj
            )
