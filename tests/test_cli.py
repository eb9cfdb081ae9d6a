"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "HM1"])
        assert args.scheme == "camps-mod"
        assert args.baseline == "base"
        assert args.refs == 4000

    def test_unknown_mix_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "HM9"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "HM1", "--scheme", "magic"])

    def test_figure_numbers(self):
        for n in "56789":
            args = build_parser().parse_args(["figure", n])
            assert args.number == n
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "4"])


class TestCommands:
    def test_schemes_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for s in ("base", "base-hit", "mmd", "camps", "camps-mod", "none"):
            assert s in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "32 vaults" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "HM1" in out and "bwaves" in out

    def test_trace_command(self, capsys, tmp_path):
        out_file = tmp_path / "t.npz"
        assert main(["trace", "gcc", "--refs", "500", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "mpki" in out
        assert out_file.exists()

    def test_trace_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["trace", "doom", "--refs", "100"])

    def test_run_command(self, capsys):
        rc = main(["run", "LM4", "--refs", "300", "--scheme", "camps-mod"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "geomean IPC" in out
        assert "speedup vs base" in out

    def test_run_without_baseline_comparison(self, capsys):
        main(["run", "LM4", "--refs", "300", "--scheme", "base"])
        out = capsys.readouterr().out
        assert "speedup vs" not in out

    def test_run_baseline_with_report(self, capsys, tmp_path):
        # a run that builds a live system still compares against --baseline
        rc = main([
            "run", "LM4", "--refs", "300", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        assert "speedup vs base" in capsys.readouterr().out

    def test_run_baseline_on_fabric(self, capsys):
        rc = main(["run", "MX1", "--topology", "chain:2", "--refs", "100"])
        assert rc == 0
        assert "speedup vs base" in capsys.readouterr().out

    def test_run_json_link_faults_independent_of_cache(self, capsys):
        # the second run of the same cell could be a cache hit; the JSON
        # must carry the same keys (link_faults included) either way
        argv = ["run", "HM1", "--refs", "300", "--ber", "1e-4", "--json"]
        payloads = []
        for _ in range(2):
            assert main(argv) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert "link_faults" in payloads[0]
        assert payloads[0] == payloads[1]

    def test_figure_command_with_csv_and_chart(self, capsys, tmp_path):
        csv = tmp_path / "fig5.csv"
        rc = main([
            "figure", "5", "--mixes", "LM4", "--refs", "300",
            "--csv", str(csv), "--chart", "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "legend:" in out
        assert csv.exists()

    def test_figure_bad_mixes(self):
        with pytest.raises(SystemExit):
            main(["figure", "5", "--mixes", "NOPE", "--refs", "100"])
