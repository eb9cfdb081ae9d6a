"""Tests for the markdown report generator and the text trace format."""

import numpy as np
import pytest

from repro.experiments.figures import CLAIMS
from repro.experiments.report import generate_report
from repro.campaign import Manifest
from repro.experiments.runner import ExperimentConfig, run_matrix
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    cache = Manifest(tmp_path_factory.mktemp("c") / "cache.jsonl")
    cfg = ExperimentConfig(refs_per_core=200, seed=1)
    return run_matrix(
        ["HM1", "LM4"],
        ["base", "base-hit", "mmd", "camps", "camps-mod"],
        cfg,
        cache=cache,
    )


class TestReport:
    def test_contains_all_sections(self, matrix):
        md = generate_report(matrix)
        for frag in (
            "# CAMPS reproduction report",
            "## Headline comparison",
            "## Scheme ordering",
            "### Figure 5",
            "### Figure 6",
            "### Figure 7",
            "### Figure 8",
            "### Figure 9",
        ):
            assert frag in md

    def test_paper_values_in_comparison(self, matrix):
        md = generate_report(matrix)
        paper = [c.paper for c in CLAIMS if isinstance(c.paper, float)]
        assert paper and all(f"| {v:.3f} |" in md for v in paper)

    def test_scale_note_included(self, matrix):
        md = generate_report(matrix, scale_note="Scale: tiny test run.")
        assert "Scale: tiny test run." in md

    def test_markdown_tables_well_formed(self, matrix):
        md = generate_report(matrix)
        for line in md.splitlines():
            if line.startswith("|") and "---" not in line:
                # same column count as a pipe-delimited row
                assert line.endswith("|")

    def test_every_mix_row_present(self, matrix):
        md = generate_report(matrix)
        assert "| HM1 |" in md and "| LM4 |" in md


class TestTextTraceFormat:
    def test_roundtrip(self, tmp_path):
        t = generate_trace("gcc", 300, seed=5)
        path = tmp_path / "trace.txt"
        t.save_text(path)
        t2 = Trace.load_text(path)
        assert np.array_equal(t.gaps, t2.gaps)
        assert np.array_equal(t.addrs, t2.addrs)
        assert np.array_equal(t.writes, t2.writes)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "# header comment\n"
            "\n"
            "10 0x1000 R\n"
            "5 0x2040 W  # trailing comment\n"
        )
        t = Trace.load_text(path)
        assert len(t) == 2
        assert t.addrs[1] == 0x2040
        assert bool(t.writes[1]) is True

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 4096 R\n")
        t = Trace.load_text(path)
        assert t.addrs[0] == 4096

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10 0x1000\n")
        with pytest.raises(ValueError, match="expected"):
            Trace.load_text(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("10 0x1000 X\n")
        with pytest.raises(ValueError):
            Trace.load_text(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="empty"):
            Trace.load_text(path)

    def test_loaded_trace_runs(self, tmp_path):
        from repro.system import run_system

        t = generate_trace("h264ref", 200, seed=2)
        path = tmp_path / "t.txt"
        t.save_text(path)
        loaded = Trace.load_text(path)
        r = run_system([loaded], scheme="camps-mod")
        assert r.cycles > 0
