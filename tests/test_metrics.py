"""Unit tests for metric collectors and reporting."""

import pytest

from repro.metrics.collectors import (
    ResultMatrix,
    accuracies,
    amat_reduction,
    conflict_rates,
    energy_normalized,
    group_geomean,
    group_mean,
    normalized_speedups,
)
from repro.metrics.report import format_table, write_csv
from repro.system import SimulationResult


def fake(workload, scheme, ipc=1.0, conflict=0.1, acc=0.5, lat=100.0, energy=1000.0):
    return SimulationResult(
        scheme=scheme,
        workload=workload,
        cycles=1000,
        core_ipc=[ipc, ipc],
        core_instructions=[100, 100],
        conflict_rate=conflict,
        row_conflicts=int(conflict * 100),
        demand_accesses=100,
        buffer_hits=10,
        prefetches_issued=20,
        row_accuracy=acc,
        line_accuracy=acc / 2,
        mean_memory_latency=lat,
        mean_read_latency=lat,
        energy_pj=energy,
        energy_breakdown={},
        link_utilization=0.1,
    )


@pytest.fixture
def matrix():
    m = ResultMatrix()
    m.add(fake("HM1", "base", ipc=1.0, lat=200, energy=1000))
    m.add(fake("HM1", "camps", ipc=1.2, conflict=0.05, lat=150, energy=850))
    m.add(fake("LM1", "base", ipc=2.0, lat=100, energy=500))
    m.add(fake("LM1", "camps", ipc=2.1, conflict=0.02, lat=95, energy=480))
    return m


class TestMatrix:
    def test_get_and_contains(self, matrix):
        assert matrix.get("HM1", "base").scheme == "base"
        assert ("HM1", "camps") in matrix
        with pytest.raises(KeyError):
            matrix.get("HM9", "base")

    def test_workloads_and_schemes_preserve_order(self, matrix):
        assert matrix.workloads() == ["HM1", "LM1"]
        assert matrix.schemes() == ["base", "camps"]


class TestCollectors:
    def test_normalized_speedups(self, matrix):
        s = normalized_speedups(matrix, ["base", "camps"])
        assert s["HM1"]["base"] == pytest.approx(1.0)
        assert s["HM1"]["camps"] == pytest.approx(1.2)
        assert s["LM1"]["camps"] == pytest.approx(1.05)

    def test_conflict_rates(self, matrix):
        c = conflict_rates(matrix, ["camps"])
        assert c["HM1"]["camps"] == pytest.approx(0.05)

    def test_accuracies_row_and_line(self, matrix):
        row = accuracies(matrix, ["camps"])
        line = accuracies(matrix, ["camps"], line_level=True)
        assert row["HM1"]["camps"] == pytest.approx(0.5)
        assert line["HM1"]["camps"] == pytest.approx(0.25)

    def test_amat_reduction(self, matrix):
        a = amat_reduction(matrix, ["camps"])
        assert a["HM1"]["camps"] == pytest.approx(0.25)  # 200 -> 150

    def test_energy_normalized(self, matrix):
        e = energy_normalized(matrix, ["camps"])
        assert e["HM1"]["camps"] == pytest.approx(0.85)

    def test_group_geomean(self):
        per = {"HM1": {"s": 2.0}, "HM2": {"s": 8.0}, "LM1": {"s": 1.0}}
        g = group_geomean(per, ["s"])
        assert g["HM"]["s"] == pytest.approx(4.0)
        assert g["LM"]["s"] == pytest.approx(1.0)
        assert g["AVG"]["s"] == pytest.approx((2 * 8 * 1) ** (1 / 3))

    def test_group_mean(self):
        per = {"HM1": {"s": 0.2}, "HM2": {"s": 0.4}, "MX1": {"s": 0.6}}
        g = group_mean(per, ["s"])
        assert g["HM"]["s"] == pytest.approx(0.3)
        assert g["MX"]["s"] == pytest.approx(0.6)
        assert g["AVG"]["s"] == pytest.approx(0.4)

    def test_group_skips_absent_categories(self):
        per = {"HM1": {"s": 1.0}}
        g = group_geomean(per, ["s"])
        assert "LM" not in g and "AVG" in g


class TestReport:
    def test_format_table_contains_all_cells(self, matrix):
        per = normalized_speedups(matrix, ["base", "camps"])
        text = format_table(per, ["base", "camps"], "Fig")
        assert "HM1" in text and "camps" in text and "1.200" in text

    def test_format_table_with_summary(self, matrix):
        per = normalized_speedups(matrix, ["camps"])
        summary = group_geomean(per, ["camps"])
        text = format_table(per, ["camps"], "Fig", summary=summary)
        assert "AVG" in text

    def test_write_csv(self, matrix, tmp_path):
        per = normalized_speedups(matrix, ["base", "camps"])
        path = write_csv(per, ["base", "camps"], tmp_path / "out.csv")
        content = path.read_text()
        assert content.splitlines()[0] == "workload,base,camps"
        assert "HM1" in content
