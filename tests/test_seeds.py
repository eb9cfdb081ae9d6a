"""Tests for multi-seed aggregation."""

import pytest

from repro.campaign import Manifest
from repro.experiments.runner import ExperimentConfig
from repro.experiments.seeds import SeededCell, run_seeded


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    cache = Manifest(tmp_path_factory.mktemp("c") / "cache.jsonl")
    cfg = ExperimentConfig(refs_per_core=250, seed=1)
    return run_seeded(
        ["LM4"], ["base", "camps-mod"], cfg, seeds=(1, 2, 3), cache=cache
    )


class TestSeededSpeedups:
    def test_structure(self, seeded):
        assert seeded.seeds == [1, 2, 3]
        assert set(seeded.per_workload) == {"LM4"}
        cell = seeded.per_workload["LM4"]["camps-mod"]
        assert len(cell.values) == 3
        assert cell.low <= cell.mean <= cell.high

    def test_baseline_exactly_one_all_seeds(self, seeded):
        cell = seeded.per_workload["LM4"]["base"]
        assert cell.mean == pytest.approx(1.0)
        assert cell.std == pytest.approx(0.0)

    def test_avg_aggregates_per_seed(self, seeded):
        avg = seeded.avg("camps-mod")
        assert len(avg.values) == 3
        assert min(avg.values) <= avg.mean <= max(avg.values)

    def test_text_renders(self, seeded):
        text = seeded.text()
        assert "LM4" in text and "+/-" in text and "AVG" in text
        assert "ordering stable" in text

    def test_ordering_stability_api(self, seeded):
        assert isinstance(seeded.ordering_stable(), bool)

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_seeded(["LM4"], ["base"], seeds=())

    def test_cell_values(self):
        c = SeededCell(1.5, 0.1, (1.4, 1.5, 1.6))
        assert c.low == pytest.approx(1.4)
        assert c.high == pytest.approx(1.6)
