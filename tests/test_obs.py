"""Tests for the observability subsystem (repro.obs) and its CLI surface."""

import json

import pytest

from repro.cli import main
from repro.hmc.config import HMCConfig
from repro.obs import (
    ALL_KINDS,
    PROV_CONFLICT,
    PROV_UTILIZATION,
    CounterRegistry,
    Tracer,
    chrome_trace,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.events import PF_ISSUE, TraceEvent
from repro.obs.export import CONTROLLER_TID, DEVICE_PID
from repro.system import System, SystemConfig
from repro.workloads.synthetic import generate_trace


@pytest.fixture(scope="module")
def traced_run():
    """One small camps-mod run with a tracer attached (shared: read-only)."""
    traces = [generate_trace("gems", 700, seed=i, core_id=i) for i in range(2)]
    tracer = Tracer()
    cfg = SystemConfig(
        hmc=HMCConfig(vaults=4, banks_per_vault=4, pf_buffer_entries=4),
        scheme="camps-mod",
    )
    result = System(traces, cfg, workload="obs-test", tracer=tracer).run()
    return tracer, result


class TestTracer:
    def test_capacity_drops_not_grows(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.prefetch_issue(0, 0, i, "utilization", time=i)
        assert len(t.events) == 3
        assert t.dropped == 2
        assert t.summary()["events_dropped"] == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_event_counts_and_provenance(self):
        t = Tracer()
        t.prefetch_issue(0, 1, 10, PROV_UTILIZATION, time=5)
        t.prefetch_issue(0, 2, 11, PROV_CONFLICT, time=6)
        t.prefetch_issue(1, 0, 12, PROV_CONFLICT, time=7)
        t.bank_conflict(0, 1, open_row=3, new_row=4, time=8)
        assert t.event_counts() == {"bank.conflict": 1, "pf.issue": 3}
        assert t.provenance_counts() == {"utilization": 1, "conflict": 2}

    def test_span_events_carry_duration(self):
        t = Tracer()
        t.prefetch_fill(2, 3, 40, "conflict", start=100, finish=160)
        t.link_tx(1, "req", 80, start=10, finish=14)
        assert [e.dur for e in t.events] == [60, 4]
        # link events are device-level: no vault/bank placement
        assert t.events[1].vault == -1 and t.events[1].bank == -1

    def test_all_kinds_are_distinct(self):
        assert len(ALL_KINDS) == len(set(ALL_KINDS))

    def test_trace_event_to_dict_flat(self):
        e = TraceEvent(PF_ISSUE, 42, vault=1, bank=2, args={"row": 7, "provenance": "mmd"})
        assert e.to_dict() == {
            "kind": "pf.issue", "time": 42, "vault": 1, "bank": 2,
            "row": 7, "provenance": "mmd",
        }


class TestCounterRegistry:
    def test_nested_scopes_flatten(self):
        reg = CounterRegistry()
        vs = reg.scope("vault0")
        vs.register("acts", lambda: 5)
        vs.scope("bank1").register("reads", lambda: 9)
        reg.scope("device").register("cycles", 123)
        flat = reg.flatten()
        assert flat == {
            "device.cycles": 123,
            "vault0.acts": 5,
            "vault0.bank1.reads": 9,
        }
        assert len(reg) == 3

    def test_snapshot_nested(self):
        reg = CounterRegistry()
        reg.scope("vault1", "bank0").register("acts", lambda: 2)
        assert reg.snapshot() == {"vault1": {"bank0": {"acts": 2}}}

    def test_counter_object_source(self):
        class C:
            value = 17

        reg = CounterRegistry()
        reg.scope("x").register("c", C())
        assert reg.flatten() == {"x.c": 17}

    def test_gauges_read_lazily(self):
        state = {"v": 0}
        reg = CounterRegistry()
        reg.scope("s").register("g", lambda: state["v"])
        state["v"] = 99
        assert reg.flatten()["s.g"] == 99

    def test_duplicate_rejected(self):
        reg = CounterRegistry()
        reg.scope("a").register("n", lambda: 1)
        with pytest.raises(ValueError, match="duplicate counter"):
            reg.scope("a").register("n", lambda: 2)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CounterRegistry().scope("a").register("", lambda: 1)

    def test_scopes_prefix_filter(self):
        reg = CounterRegistry()
        reg.scope("vault0").register("a", 1)
        reg.scope("vault1").register("a", 1)
        reg.scope("host").register("a", 1)
        assert reg.scopes("vault") == ["vault0", "vault1"]

    def test_snapshot_name_as_both_counter_and_scope(self):
        # "links" is a counter at the root *and* a scope with children: the
        # counter value must survive under the scope dict's "" key whichever
        # order the two registrations land in.
        reg = CounterRegistry()
        reg.scope().register("links", 4)
        reg.scope("links").register("tx", 7)
        assert reg.snapshot() == {"links": {"": 4, "tx": 7}}

        reg2 = CounterRegistry()
        reg2.scope("a", "links").register("tx", 7)
        reg2.scope("a").register("links", 4)
        assert reg2.snapshot() == {"a": {"links": {"": 4, "tx": 7}}}

    def test_flatten_empty_path_root_counters(self):
        reg = CounterRegistry()
        reg.scope().register("cycles", 11)
        reg.scope("v").register("acts", 2)
        assert reg.flatten() == {"cycles": 11, "v.acts": 2}

    def test_raising_gauge_degrades_to_nan(self):
        def boom():
            raise RuntimeError("component torn down")

        reg = CounterRegistry()
        reg.scope("s").register("g", boom)
        reg.scope("s").register("ok", 3)
        flat = reg.flatten()
        assert flat["s.ok"] == 3
        assert flat["s.g"] != flat["s.g"]  # NaN


class TestWiredRun:
    def test_both_camps_provenances_observed(self, traced_run):
        tracer, _ = traced_run
        prov = tracer.provenance_counts()
        assert prov.get(PROV_UTILIZATION, 0) > 0
        assert prov.get(PROV_CONFLICT, 0) > 0

    def test_core_event_kinds_present(self, traced_run):
        tracer, _ = traced_run
        counts = tracer.event_counts()
        for kind in ("bank.act", "bank.conflict", "pf.issue", "pf.fill",
                     "pf.hit", "link.tx", "tsv.xfer"):
            assert counts.get(kind, 0) > 0, kind

    def test_counters_match_component_state(self, traced_run):
        tracer, result = traced_run
        flat = tracer.counters.flatten()
        issued = sum(
            v for k, v in flat.items()
            if k.startswith("vault") and k.endswith(".prefetches_issued")
        )
        assert issued == result.prefetches_issued
        assert flat["device.cycles"] == result.cycles

    def test_trace_summary_in_result_extra(self, traced_run):
        tracer, result = traced_run
        summary = result.extra["trace_summary"]
        assert summary["events_recorded"] == len(tracer.events)
        assert summary["scheme"] == "camps-mod"
        assert summary["workload"] == "obs-test"
        assert summary["engine_events_per_sec"] > 0

    def test_no_tracer_attribute_costs(self):
        # untraced components expose tracer=None (the no-op hook guard)
        traces = [generate_trace("gems", 100, seed=0)]
        sys_ = System(
            traces,
            SystemConfig(hmc=HMCConfig(vaults=4, banks_per_vault=4)),
        )
        assert sys_.engine.tracer is None
        assert sys_.host.tracer is None
        vc = sys_.device.vaults[0]
        assert vc.tracer is None and vc.scheduler.tracer is None
        assert vc.prefetcher.tracer is None and vc.banks[0].tracer is None


class TestExporters:
    def test_chrome_trace_structure(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        json.loads(json.dumps(doc))  # round-trips
        events = doc["traceEvents"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)
        body = [e for e in events if e.get("ph") != "M"]
        assert len(body) == len(tracer.events)
        for e in body:
            assert e["ph"] in ("X", "i")
            if e["ph"] == "X":
                assert e["dur"] > 0
        assert doc["otherData"]["clock"] == "cpu-cycles"

    def test_chrome_track_mapping(self):
        t = Tracer()
        t.prefetch_issue(3, 5, 9, "conflict", time=1)  # vault 3, bank 5
        t.sched_drain(2, True, 4, time=2)  # vault 2, controller
        t.link_tx(0, "req", 16, start=0, finish=2)  # device-level
        body = [e for e in chrome_trace(t)["traceEvents"] if e.get("ph") != "M"]
        assert (body[0]["pid"], body[0]["tid"]) == (3, 6)  # tid = bank + 1
        assert (body[1]["pid"], body[1]["tid"]) == (2, CONTROLLER_TID)
        assert body[2]["pid"] == DEVICE_PID

    def test_write_chrome_trace_loads(self, traced_run, tmp_path):
        tracer, _ = traced_run
        p = write_chrome_trace(tracer, tmp_path / "t.json")
        doc = json.loads(p.read_text())
        assert len(doc["traceEvents"]) > 0

    def test_write_jsonl_header_then_one_event_per_line(self, traced_run, tmp_path):
        tracer, _ = traced_run
        p = write_jsonl(tracer, tmp_path / "t.jsonl")
        lines = p.read_text().splitlines()
        assert len(lines) == 1 + len(tracer.events)
        header = json.loads(lines[0])
        assert header["meta"] == dict(tracer.meta)
        assert header["events_recorded"] == len(tracer.events)
        assert header["events_dropped"] == tracer.dropped
        first = json.loads(lines[1])
        assert "kind" in first and "time" in first

    def test_text_summary_contents(self, traced_run):
        tracer, _ = traced_run
        text = text_summary(tracer)
        assert "events recorded" in text
        assert "prefetch provenance" in text
        assert "conflict" in text and "utilization" in text
        assert "vault0" in text


class TestObsCLI:
    def test_run_with_trace_and_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        jsonl_path = tmp_path / "out.jsonl"
        rc = main([
            "run", "HM1", "--scheme", "camps-mod", "--refs", "300",
            "--trace", str(trace_path), "--log-json", str(jsonl_path),
        ])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        assert len(doc["traceEvents"]) > 0
        assert jsonl_path.exists()
        out = capsys.readouterr().out
        assert "trace summary" in out

    def test_run_json_flag_one_line(self, capsys):
        assert main(["run", "HM1", "--refs", "300", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        payload = json.loads(out)  # exactly one JSON document
        assert "\n" not in out
        assert payload["mix"] == "HM1"
        assert payload["scheme"] == "camps-mod"
        assert payload["cycles"] > 0

    def test_run_json_with_trace_includes_summary(self, tmp_path, capsys):
        rc = main([
            "run", "HM1", "--refs", "300", "--json",
            "--trace", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["trace_summary"]["events_recorded"] > 0

    def test_profile_command(self, capsys):
        assert main(["profile", "HM1", "--refs", "300"]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "events fired" in out
        # the host-time split names the paper's blocks plus the remainder
        for bucket in ("vault", "prefetcher", "core", "host", "engine"):
            assert f"\n  {bucket} " in out

    def test_profile_json_buckets_sum_to_engine_wall(self, capsys):
        assert main(["profile", "LM1", "--refs", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        total = sum(row["seconds"] for row in payload["subsystems"].values())
        assert total == pytest.approx(payload["wall_seconds"], abs=1e-9)
        assert payload["events_fired"] > 0 and payload["mix"] == "LM1"
