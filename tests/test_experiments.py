"""Unit tests for the experiment runner, figures and tables."""

import os

import pytest

from repro.experiments.figures import (
    FIG5_SCHEMES,
    FIG6_SCHEMES,
    FIG9_SCHEMES,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
)
from repro.campaign import CampaignError
from repro.campaign import Manifest
from repro.experiments.runner import ExperimentConfig, default_cache, run_matrix
from repro.experiments.tables import table1_text, table2_rows, table2_text
from repro.hmc.config import HMCConfig


@pytest.fixture
def tiny():
    return ExperimentConfig(refs_per_core=150, seed=1)


class TestRunner:
    def test_run_matrix_single_cell_result(self, tiny):
        r = run_matrix(["LM4"], ["base"], tiny).get("LM4", "base")
        assert r.workload == "LM4" and r.scheme == "base"
        assert r.cycles > 0

    def test_cache_hit_round_trip(self, tiny, tmp_path):
        cache = Manifest(tmp_path / "c.jsonl")
        r1 = run_matrix(["LM4"], ["base"], tiny, cache=cache).get("LM4", "base")
        r2 = run_matrix(["LM4"], ["base"], tiny, cache=cache).get("LM4", "base")
        assert r2.extra["attempts"] == 0  # resolved from the cache, not run
        assert r2.cycles == r1.cycles
        assert r2.core_ipc == r1.core_ipc

    def test_page_policies_never_share_a_result(self, tmp_path, monkeypatch):
        # page_policy is outside ExperimentConfig.cache_key: a result store
        # keyed by that string handed the open-page result to the
        # closed-page run.  The log is keyed by the full cell_id.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "shared.jsonl"))
        open_cfg = ExperimentConfig(refs_per_core=150, seed=1)
        closed_cfg = ExperimentConfig(
            refs_per_core=150, seed=1, hmc=HMCConfig(page_policy="closed")
        )
        opened = run_matrix(["HM1"], ["none"], open_cfg, cache=default_cache())
        closed = run_matrix(["HM1"], ["none"], closed_cfg, cache=default_cache())
        got = closed.get("HM1", "none")
        assert got.extra["attempts"] == 1  # simulated, not a log hit
        assert got.cycles != opened.get("HM1", "none").cycles
        monkeypatch.setenv("REPRO_CACHE", "off")
        fresh = run_matrix(["HM1"], ["none"], closed_cfg).get("HM1", "none")
        assert got.cycles == fresh.cycles

    def test_default_cache_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "a.jsonl"))
        a = default_cache()
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "b.jsonl"))
        b = default_cache()
        assert a.path != b.path
        run_matrix(["LM4"], ["base"], ExperimentConfig(150, 1))
        assert b.records() and not a.records()
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert default_cache() is None

    def test_failed_cell_raises_campaign_error(self, tiny):
        with pytest.raises(CampaignError, match="LM4/no-such-scheme"):
            run_matrix(["LM4"], ["no-such-scheme"], tiny)

    def test_cache_key_distinguishes_inputs(self, tiny):
        k1 = tiny.cache_key("HM1", "base")
        k2 = tiny.cache_key("HM1", "camps")
        k3 = ExperimentConfig(refs_per_core=151, seed=1).cache_key("HM1", "base")
        k4 = ExperimentConfig(
            refs_per_core=150, seed=1, hmc=HMCConfig(pf_buffer_entries=8)
        ).cache_key("HM1", "base")
        assert len({k1, k2, k3, k4}) == 4

    def test_env_scale_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "321")
        monkeypatch.setenv("REPRO_SEED", "9")
        cfg = ExperimentConfig()
        assert cfg.refs_per_core == 321 and cfg.seed == 9

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "lots")
        with pytest.raises(ValueError):
            ExperimentConfig()

    def test_run_matrix_covers_grid(self, tiny):
        m = run_matrix(["LM4"], ["base", "camps"], tiny)
        assert ("LM4", "base") in m and ("LM4", "camps") in m


class TestFigures:
    @pytest.fixture
    def matrix(self, tiny):
        return run_matrix(
            ["HM1", "LM4"], FIG5_SCHEMES, tiny
        )

    def test_figure5_structure(self, matrix):
        f = figure5(matrix)
        assert f.figure == "Figure 5"
        assert set(f.per_workload) == {"HM1", "LM4"}
        assert "AVG" in f.summary
        assert f.per_workload["HM1"]["base"] == pytest.approx(1.0)
        assert "Figure 5" in f.text()

    def test_figure6_excludes_base(self, matrix):
        f = figure6(matrix)
        assert "base" not in f.schemes
        assert set(f.schemes) == set(FIG6_SCHEMES)

    def test_figure7_bounds(self, matrix):
        f = figure7(matrix)
        for row in f.per_workload.values():
            for v in row.values():
                assert 0.0 <= v <= 1.0

    def test_figure7_line_level_variant(self, matrix):
        f = figure7(matrix, line_level=True)
        assert "line-level" in f.title

    def test_figure8_baseline_zero(self, matrix):
        f = figure8(matrix, schemes=["base", "mmd", "camps-mod"])
        assert f.per_workload["HM1"]["base"] == pytest.approx(0.0)

    def test_figure9_baseline_one(self, matrix):
        f = figure9(matrix)
        assert set(f.schemes) == set(FIG9_SCHEMES)
        assert f.per_workload["HM1"]["base"] == pytest.approx(1.0)

    def test_avg_helper(self, matrix):
        f = figure5(matrix)
        assert f.avg("base") == pytest.approx(1.0)


class TestTables:
    def test_table1_mentions_key_parameters(self):
        text = table1_text()
        for frag in ("32 vaults", "16 banks/vault", "RoRaBaVaCo", "FR-FCFS", "22"):
            assert frag in text

    def test_table2_rows_cover_all_mixes(self):
        rows = table2_rows()
        assert len(rows) == 12
        assert all(len(benches) == 8 for _, _, benches, _ in rows)

    def test_table2_measured_mpki(self):
        rows = table2_rows(measure_mpki=True, refs=500)
        _, _, _, mpki = rows[0]
        assert mpki  # non-empty
        assert all(v > 0 for v in mpki.values())

    def test_table2_text_renders(self):
        text = table2_text()
        assert "HM1" in text and "bwaves" in text
