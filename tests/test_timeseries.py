"""Tests for the epoch timeseries sampler, RunReport artifacts, run diffing,
and the HTML dashboard (repro.obs.timeseries / report / html)."""

import hashlib
import json

import numpy as np
import pytest

from repro.campaign.manifest import Manifest
from repro.cli import main
from repro.fabric import FabricConfig
from repro.hmc.config import HMCConfig
from repro.obs import (
    DEFAULT_EPOCH,
    ReportDiff,
    RunReport,
    Series,
    TimeseriesSampler,
    Tracer,
    build_run_report,
    diff_reports,
    has_series,
    render_html,
    write_html,
)
from repro.obs.report import RUN_REPORT_VERSION, config_digest, subsystem_of
from repro.sim.engine import Engine
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix as make_mix
from repro.workloads.multistream import MultiStreamSpec, build_stream_traces
from repro.workloads.synthetic import generate_trace


def small_system(epoch=None, pf_entries=4):
    traces = [generate_trace("gems", 600, seed=i, core_id=i) for i in range(2)]
    cfg = SystemConfig(
        hmc=HMCConfig(vaults=4, banks_per_vault=4, pf_buffer_entries=pf_entries),
        scheme="camps-mod",
        timeseries_epoch=epoch,
    )
    return System(traces, cfg, workload="ts-test")


class TestSeries:
    def test_append_and_unroll(self):
        s = Series("x", capacity=8)
        for i in range(5):
            s.append(i * 10, float(i))
        assert len(s) == 5
        assert not s.wrapped
        assert s.times.tolist() == [0, 10, 20, 30, 40]
        assert s.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_ring_overwrites_oldest(self):
        s = Series("x", capacity=4)
        for i in range(7):
            s.append(i, float(i))
        assert len(s) == 4
        assert s.wrapped
        assert s.times.tolist() == [3, 4, 5, 6]  # chronological, oldest first
        assert s.values.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_exact_wrap_boundary(self):
        s = Series("x", capacity=3)
        for i in range(6):  # lands exactly on a multiple of capacity
            s.append(i, float(i))
        assert s.times.tolist() == [3, 4, 5]
        assert not s.wrapped  # _idx back at 0: the buffer IS chronological

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Series("x", capacity=0)

    def test_payload_shape_and_rounding(self):
        s = Series("x", capacity=4)
        s.append(0, 1 / 3)
        p = s.to_payload()
        assert p["times"] == [0]
        assert p["values"] == [pytest.approx(1 / 3, abs=1e-9)]
        assert len(repr(p["values"][0])) <= 12  # rounded, not full float64
        assert p["wrapped"] is False


class TestSampler:
    def test_track_flavors(self):
        eng = Engine()
        ts = TimeseriesSampler(eng, epoch=10, capacity=16)
        state = {"raw": 0.0, "num": 0.0, "den": 0.0}
        ts.track("raw", lambda: state["raw"])
        ts.track_rate("rate", lambda: state["raw"])
        ts.track_ratio("ratio", lambda: state["num"], lambda: state["den"])
        ts.start()

        def bump():
            state["raw"] += 20.0
            state["num"] += 1.0
            state["den"] += 4.0

        for t in (5, 15, 25):
            eng.call_at(t, bump)
        eng.call_at(31, lambda: None)  # keep the run alive past 3 ticks
        eng.run()
        assert ts.samples_taken == 3
        assert ts.get("raw").values.tolist() == [20.0, 40.0, 60.0]
        assert ts.get("rate").values.tolist() == [2.0, 2.0, 2.0]
        assert ts.get("ratio").values.tolist() == [0.25, 0.25, 0.25]

    def test_ratio_zero_denominator(self):
        eng = Engine()
        ts = TimeseriesSampler(eng, epoch=5)
        ts.track_ratio("r", lambda: 3.0, lambda: 7.0)  # deltas are both 0
        ts.start()
        eng.call_at(12, lambda: None)
        eng.run()
        assert ts.get("r").values.tolist() == [0.0, 0.0]

    def test_duplicate_series_rejected(self):
        ts = TimeseriesSampler(Engine(), epoch=4)
        ts.track("x", lambda: 0.0)
        with pytest.raises(ValueError, match="duplicate series"):
            ts.track("x", lambda: 1.0)

    def test_epoch_validated(self):
        with pytest.raises(ValueError):
            TimeseriesSampler(Engine(), epoch=0)

    def test_weak_tick_never_extends_the_run(self):
        # The last strong event is at t=12; epoch ticks at 10, 20, 30...
        # must not keep the engine alive past 12 or advance now beyond it.
        eng = Engine()
        ts = TimeseriesSampler(eng, epoch=10)
        ts.track("n", lambda: 1.0)
        ts.start()
        eng.call_at(12, lambda: None)
        eng.run()
        assert eng.now == 12
        assert ts.samples_taken == 1  # only the t=10 tick fired

    def test_tick_is_invisible_to_events_fired(self):
        eng = Engine()
        ts = TimeseriesSampler(eng, epoch=5)
        ts.track("n", lambda: 1.0)
        ts.start()
        for t in (3, 9, 14):
            eng.call_at(t, lambda: None)
        eng.run()
        assert ts.samples_taken == 2  # ticks at 5 and 10
        assert eng.events_fired == 3  # the 3 real events only


class TestSystemWiring:
    @pytest.fixture(scope="class")
    def sampled_run(self):
        system = small_system(epoch=256)
        result = system.run()
        return system, result

    def test_standard_gauges_present(self, sampled_run):
        system, _ = sampled_run
        names = set(system.timeseries.series())
        assert {
            "buffer.hit_rate", "prefetch.row_accuracy", "queues.occupancy",
            "link.utilization", "tsv.utilization", "sched.drain_residency",
        } <= names
        assert {f"vault{v}.conflict_rate" for v in range(4)} <= names

    def test_gauge_values_sane(self, sampled_run):
        system, _ = sampled_run
        ts = system.timeseries
        assert ts.samples_taken > 0
        for name in ("buffer.hit_rate", "link.utilization", "tsv.utilization"):
            vals = ts.get(name).values
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0), name

    def test_payload_in_result_extra(self, sampled_run):
        _, result = sampled_run
        payload = result.extra["timeseries"]
        assert payload["epoch"] == 256
        assert payload["samples_taken"] > 0
        assert "buffer.hit_rate" in payload["series"]

    def test_sampling_leaves_results_identical(self):
        plain = small_system().run()
        sampled = small_system(epoch=256).run()
        # a caller's own gauge rides the same weak, self-cancelling tick
        custom = small_system(epoch=256)
        host = custom.host
        gauge = custom.timeseries.track(
            "host.outstanding", lambda: host.outstanding
        )
        custom_result = custom.run()
        assert len(gauge) == custom.timeseries.samples_taken > 0
        for run in (sampled, custom_result):
            assert run.cycles == plain.cycles
            assert run.extra["events_fired"] == plain.extra["events_fired"]
            assert run.summary() == plain.summary()
            assert run.core_ipc == plain.core_ipc
            assert run.row_conflicts == plain.row_conflicts
            assert run.energy_pj == plain.energy_pj

    def test_unsampled_system_has_no_sampler(self):
        assert small_system().timeseries is None


class TestRunReport:
    @pytest.fixture(scope="class")
    def report(self):
        system = small_system(epoch=256)
        result = system.run()
        return build_run_report(system, result, seed=1, refs=600)

    def test_fields(self, report):
        assert report.workload == "ts-test"
        assert report.scheme == "camps-mod"
        assert len(report.config_digest) == 12
        assert report.summary["cycles"] > 0
        assert "geomean_ipc" in report.summary
        assert any(".bank" in k for k in report.counters)
        assert report.series["series"]["buffer.hit_rate"]["values"]
        assert report.meta == {"seed": 1, "refs": 600}
        assert "ts-test/camps-mod@" in report.label

    def test_save_load_round_trip(self, report, tmp_path):
        p = report.save(tmp_path / "r.json")
        loaded = RunReport.load(p)
        assert loaded.to_dict() == report.to_dict()

    def test_future_version_rejected(self, tmp_path):
        p = tmp_path / "future.json"
        p.write_text(json.dumps({"version": RUN_REPORT_VERSION + 1}))
        with pytest.raises(ValueError, match="version"):
            RunReport.load(p)

    def test_config_digest_stable_and_sensitive(self):
        a = SystemConfig(hmc=HMCConfig(pf_buffer_entries=16))
        b = SystemConfig(hmc=HMCConfig(pf_buffer_entries=16))
        c = SystemConfig(hmc=HMCConfig(pf_buffer_entries=4))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)


def _cell_system(topology, tracer=None):
    """A small report-mode system: one cube, or one stream per cube of a
    routed fabric (the shapes ``execute_cell`` builds)."""
    if topology is None:
        return System(
            make_mix("LM1", 300, seed=1),
            SystemConfig(scheme="camps-mod", timeseries_epoch=DEFAULT_EPOCH),
            workload="LM1",
            tracer=tracer,
        )
    fabric = FabricConfig.from_spec(topology)
    spec = MultiStreamSpec.per_cube("MX1", fabric.cubes, 300, seed=1)
    return System(
        build_stream_traces(spec, fabric),
        SystemConfig(
            fabric=fabric, scheme="camps-mod", timeseries_epoch=DEFAULT_EPOCH
        ),
        workload=f"MX1@{topology}",
        tracer=tracer,
    )


class TestUntracedReports:
    """A RunReport reads its counters from the finished system: attaching a
    tracer only adds trace events, never a report byte."""

    #: (count, sha256 prefix) of the ordered counter names: a report's
    #: counter keys are part of its format (``repro diff`` aligns on them),
    #: so moving one must be deliberate.  One cube registers per bank; a
    #: fabric per cube, with router counters.
    NAMES = {
        None: (4214, "6a44a366dd79c5dc"),
        "chain:2": (43, "7f86a176a48fafb5"),
        "ring:4": (73, "7f8cf27b26991a3a"),
    }

    @pytest.mark.parametrize("topology", [None, "chain:2", "ring:4"])
    def test_untraced_report_equals_traced(self, topology):
        plain = _cell_system(topology)
        untraced = build_run_report(plain, plain.run(), cell="x").to_dict()
        tracer = Tracer()
        traced_sys = _cell_system(topology, tracer=tracer)
        traced = build_run_report(traced_sys, traced_sys.run(), cell="x").to_dict()
        assert tracer.events  # the traced run really recorded events
        assert json.dumps(untraced) == json.dumps(traced)  # same keys, same order
        names = list(untraced["counters"])
        assert names == list(tracer.counters.flatten())
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
        assert (len(names), digest) == self.NAMES[topology]

    def test_report_cell_constructs_no_tracer(self, tmp_path, monkeypatch):
        from repro.campaign.executor import cell_report_path, execute_cell
        from repro.campaign.spec import Cell
        from repro.experiments.runner import ExperimentConfig

        def refuse(self, *args, **kwargs):
            raise AssertionError("report-mode cell built a Tracer")

        monkeypatch.setattr(Tracer, "__init__", refuse)
        cell = Cell(
            workload="HM1",
            scheme="camps-mod",
            config=ExperimentConfig(refs_per_core=150, seed=1),
            topology="chain:2",
        )
        execute_cell(cell, report_dir=str(tmp_path))
        report = RunReport.load(cell_report_path(tmp_path, cell.cell_id))
        assert report.counters and has_series(report)


class TestPayloadPins:
    """The timeseries payload is an artifact (RunReport ``series``, the HTML
    dashboard, ``repro diff``): its bytes are pinned per wiring shape, so a
    refactor of the sampler cannot silently move a sample."""

    #: (topology, stats_warmup_cycles) -> sha256 prefix of the sorted-key
    #: JSON payload for MX1 / camps-mod, 800 refs/core, seed 1.  The warm-up
    #: reset zeroes the counters mid-run, so those epochs see negative deltas.
    PINS = {
        (None, None): "0407b101e6f3e5f5",
        ("chain:1", None): "c22418c0d1c7e74b",
        ("chain:2", None): "4ace9120d5862bb0",
        ("ring:4", None): "fbfe9b639440c667",
        (None, 20000): "c379d418d0a5a84e",
        ("chain:2", 20000): "e80a417a18e1423b",
    }

    @pytest.mark.parametrize("topology,warmup", sorted(PINS, key=str))
    def test_payload_digest(self, topology, warmup):
        fabric = FabricConfig.from_spec(topology) if topology else None
        if fabric is None:
            traces = make_mix("MX1", 800, seed=1)
        else:
            spec = MultiStreamSpec.per_cube("MX1", fabric.cubes, 800, seed=1)
            traces = build_stream_traces(spec, fabric)
        cfg = SystemConfig(
            fabric=fabric,
            scheme="camps-mod",
            timeseries_epoch=DEFAULT_EPOCH,
            stats_warmup_cycles=warmup,
        )
        payload = System(traces, cfg, workload="MX1").run().extra["timeseries"]
        blob = json.dumps(payload, sort_keys=True).encode()
        digest = hashlib.sha256(blob).hexdigest()[:16]
        assert digest == self.PINS[(topology, warmup)]


class TestSubsystemOf:
    @pytest.mark.parametrize("name,expected", [
        ("vault3.buffer_hits", "buffer/prefetch"),
        ("vault0.prefetch_lines", "buffer/prefetch"),
        ("vault1.dirty_row_writebacks", "buffer/prefetch"),
        ("vault2.ct_evictions", "buffer/prefetch"),
        ("vault5.bank11.conflicts", "bank"),
        ("vault0.sched_drains", "scheduler"),
        ("link2.tx_flits", "link"),
        ("vault4.tsv_busy", "tsv/bus"),
        ("host.queue_full_stalls", "host/queues"),
        ("device.cycles", "device"),
    ])
    def test_classification(self, name, expected):
        assert subsystem_of(name) == expected


class TestDiff:
    @pytest.fixture(scope="class")
    def buffer_size_pair(self):
        """Two MX1/camps runs differing ONLY in prefetch-buffer entries."""
        reports = []
        for entries in (16, 4):
            traces = make_mix("MX1", 800, seed=1)
            cfg = SystemConfig(
                hmc=HMCConfig(pf_buffer_entries=entries),
                scheme="camps",
                timeseries_epoch=DEFAULT_EPOCH,
            )
            system = System(traces, cfg, workload="MX1")
            result = system.run()
            reports.append(build_run_report(system, result, entries=entries))
        return reports

    def test_buffer_size_diff_blames_buffer_subsystem(self, buffer_size_pair):
        # The issue's acceptance check: shrinking only the prefetch buffer
        # must rank buffer/prefetch as the top contributing subsystem.
        a, b = buffer_size_pair
        diff = diff_reports(a, b)
        assert diff.top_subsystem() == "buffer/prefetch"

    def test_diff_structure(self, buffer_size_pair):
        a, b = buffer_size_pair
        diff = diff_reports(a, b)
        assert isinstance(diff, ReportDiff)
        metric_names = [m.name for m in diff.metrics]
        assert "cycles" in metric_names and "buffer_hits" in metric_names
        # counters sorted by relative delta, descending
        rels = [c.rel for c in diff.counters]
        assert rels == sorted(rels, reverse=True)
        # every subsystem entry aggregates at least one leaf
        assert all(n >= 1 for _, _, n in diff.subsystems)

    def test_series_divergence_found(self, buffer_size_pair):
        a, b = buffer_size_pair
        diff = diff_reports(a, b)
        hit_rate = [d for d in diff.divergences if d.name == "buffer.hit_rate"]
        assert hit_rate and hit_rate[0].first_cycle is not None
        assert hit_rate[0].max_gap > 0

    def test_to_text_readable(self, buffer_size_pair):
        a, b = buffer_size_pair
        text = diff_reports(a, b).to_text()
        assert "summary metrics" in text
        assert "subsystem attribution" in text
        assert "buffer/prefetch" in text

    def test_identical_reports_diff_clean(self, buffer_size_pair):
        a, _ = buffer_size_pair
        diff = diff_reports(a, a)
        assert diff.top_subsystem() is None
        assert all(m.delta == 0 for m in diff.metrics)
        assert all(d.first_cycle is None for d in diff.divergences)


class TestHtml:
    @pytest.fixture(scope="class")
    def report(self):
        system = small_system(epoch=256)
        result = system.run()
        return build_run_report(system, result, seed=1)

    def test_render_self_contained(self, report):
        html = render_html([report])
        assert html.startswith("<!doctype html>")
        assert "<polyline" in html  # sparklines
        assert "<rect" in html  # heatmap
        assert "buffer.hit_rate" in html
        assert "vault0.conflict_rate" in html
        # no external assets of any kind
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html and "<link" not in html

    def test_write_html_size_bound(self, report, tmp_path):
        p = write_html(tmp_path / "dash.html", [report, report])
        assert p.stat().st_size < 2 * 1024 * 1024

    def test_render_without_series_still_works(self, report):
        bare = RunReport(
            workload="w", scheme="s", config_digest="d",
            summary={"cycles": 10.0}, counters=dict(report.counters),
        )
        html = render_html([bare])
        assert "<rect" in html  # heatmap still renders from counters

    def test_manifest_rows_and_campaign_table(self, tmp_path):
        man = tmp_path / "m.jsonl"
        lines = [
            {"kind": "header", "version": 1},
            {"cell_id": "a", "workload": "HM1", "scheme": "base",
             "status": "ok", "summary": {"geomean_ipc": 1.0}},
            {"cell_id": "b", "workload": "HM1", "scheme": "camps",
             "status": "ok", "summary": {"geomean_ipc": 1.2}},
            {"cell_id": "c", "workload": "LM1", "scheme": "base",
             "status": "error", "error": "boom"},
            # duplicate cell id: the later record wins
            {"cell_id": "a", "workload": "HM1", "scheme": "base",
             "status": "ok", "summary": {"geomean_ipc": 1.1}},
        ]
        man.write_text("".join(json.dumps(l) + "\n" for l in lines))
        rows = [r for r in Manifest(man).records().values() if r.ok]
        assert {r.cell_id for r in rows} == {"a", "b"}  # errors excluded
        assert [r for r in rows if r.cell_id == "a"][0].summary == {
            "geomean_ipc": 1.1
        }
        html = render_html([], manifest_rows=rows)
        assert "campaign comparison" in html
        assert "camps" in html and "<td>1.1</td>" in html
        # write_html(manifest=...) reads the same records
        page = write_html(tmp_path / "d.html", [], manifest=man).read_text()
        assert "campaign comparison" in page and "<td>1.1</td>" in page


class TestCampaignReports:
    def test_report_dir_writes_and_links_artifacts(self, tmp_path):
        from repro.campaign import grid_cells, run_campaign
        from repro.campaign.manifest import Manifest
        from repro.experiments.runner import ExperimentConfig

        man = Manifest(tmp_path / "m.jsonl")
        rdir = tmp_path / "reports"
        cells = grid_cells(
            ["HM1"], ["base", "camps"], ExperimentConfig(refs_per_core=150, seed=1)
        )
        run_campaign(cells, manifest=man, report_dir=str(rdir))
        recs = man.records()
        assert len(recs) == 2
        for rec in recs.values():
            assert rec.ok and rec.report is not None
            loaded = RunReport.load(rec.report)
            assert loaded.scheme == rec.scheme
            assert loaded.counters  # read from the finished system

    def test_cached_cells_carry_no_report(self, tmp_path):
        from repro.campaign import grid_cells, run_campaign
        from repro.campaign.manifest import Manifest
        from repro.experiments.runner import ExperimentConfig

        cache = Manifest(tmp_path / "cache.jsonl")
        cells = grid_cells(
            ["HM1"], ["base"], ExperimentConfig(refs_per_core=150, seed=1)
        )
        run_campaign(cells, cache=cache)  # populate the cache
        man = Manifest(tmp_path / "m.jsonl")
        rdir = tmp_path / "reports"
        run_campaign(cells, cache=cache, manifest=man, report_dir=str(rdir))
        rec = next(iter(man.records().values()))
        assert rec.cached
        assert rec.report is None  # nothing was simulated


class TestReportCLI:
    def test_run_report_diff_dashboard_pipeline(self, tmp_path, capsys):
        ra, rb = tmp_path / "a.json", tmp_path / "b.json"
        for path, seed in ((ra, 1), (rb, 2)):
            rc = main([
                "run", "HM1", "--scheme", "camps-mod", "--refs", "300",
                "--seed", str(seed), "--report", str(path), "--epoch", "256",
            ])
            assert rc == 0
        capsys.readouterr()

        assert main(["diff", str(ra), str(rb)]) == 0
        out = capsys.readouterr().out
        assert "summary metrics" in out and "subsystem attribution" in out

        assert main(["diff", str(ra), str(rb), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] and payload["b"]

        dash = tmp_path / "dash.html"
        assert main(["report", str(ra), str(rb), "--out", str(dash)]) == 0
        html = dash.read_text()
        assert "<polyline" in html
        assert dash.stat().st_size < 2 * 1024 * 1024

    def test_run_report_default_epoch(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        rc = main([
            "run", "HM1", "--refs", "300", "--report", str(p),
        ])
        assert rc == 0
        report = RunReport.load(p)
        assert report.series["epoch"] == DEFAULT_EPOCH
        # no --trace: counters still come from the finished system, and no
        # trace-event tally is printed
        assert report.counters["device.cycles"] == report.summary["cycles"]
        assert "trace summary" not in capsys.readouterr().out


class TestDiffDegradedSeries:
    """`repro diff` with one-sided / null series payloads (graceful path)."""

    def _report(self, series, cycles=1000.0):
        return RunReport(
            workload="MX1", scheme="camps", config_digest="abcdef123456",
            summary={"cycles": cycles, "geomean_ipc": 1.0},
            counters={"vault0.buffer_hits": 10.0},
            series=series,
        )

    def test_has_series_detects_payloads(self):
        assert not has_series(self._report({}))
        assert not has_series(self._report({"epoch": 1024, "series": None}))
        assert not has_series(self._report(None))
        assert has_series(self._report(
            {"epoch": 1024,
             "series": {"buffer.hit_rate": {"times": [0], "values": [0.5]}}}
        ))

    def test_null_series_payload_does_not_crash_diff(self):
        # regression: {"series": null} raised TypeError mid-diff
        a = self._report({"epoch": 1024, "series": None})
        b = self._report(
            {"epoch": 1024,
             "series": {"buffer.hit_rate": {"times": [0], "values": [0.5]}}},
            cycles=1200.0,
        )
        diff = diff_reports(a, b)
        assert diff.divergences == []
        assert any(m.name == "cycles" for m in diff.metrics)

    def test_cli_one_sided_series_degrades_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        a = self._report({"epoch": 1024, "series": None}).save(tmp_path / "a.json")
        b = self._report(
            {"epoch": 1024,
             "series": {"buffer.hit_rate": {"times": [0], "values": [0.5]}}},
            cycles=1200.0,
        ).save(tmp_path / "b.json")
        rc = main(["diff", str(a), str(b)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "summary metrics" in captured.out  # metric diff still printed
        assert str(a) in captured.err and "no series payload" in captured.err

    def test_cli_one_sided_series_json_flags_incomparable(self, tmp_path, capsys):
        from repro.cli import main

        a = self._report({}).save(tmp_path / "a.json")
        b = self._report(
            {"epoch": 1024,
             "series": {"buffer.hit_rate": {"times": [0], "values": [0.5]}}},
        ).save(tmp_path / "b.json")
        assert main(["diff", str(a), str(b), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["series_comparable"] is False

    def test_cli_both_sides_without_series_still_ok(self, tmp_path, capsys):
        from repro.cli import main

        a = self._report({}).save(tmp_path / "a.json")
        b = self._report({}, cycles=1200.0).save(tmp_path / "b.json")
        assert main(["diff", str(a), str(b)]) == 0
        assert "no series payload" not in capsys.readouterr().err
