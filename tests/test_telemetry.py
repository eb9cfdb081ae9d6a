"""Tests for live campaign telemetry (repro.obs.telemetry and friends).

Covers the per-worker state-file writer (latest record only, atomic
replace, worker-side frozen-cycle counting), the manifest tail-follower
(torn trailing lines, mid-read appends, rotation — no duplicated or lost
lines), the aggregator that merges worker state files plus the manifest
into a CampaignView, the Prometheus text exposition, the /snapshot + /metrics
HTTP endpoint, the terminal board renderers, and an end-to-end run_campaign
with telemetry armed (exactly-once cell accounting, out-of-process monitor
convergence to the campaign's own stats).
"""

import io
import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.campaign import CampaignOptions, Manifest, grid_cells, run_campaign
from repro.campaign.manifest import MANIFEST_VERSION, JsonlTailer, parse_line
from repro.experiments.runner import ExperimentConfig
from repro.obs import telemetry
from repro.obs.promtext import parse_exposition, render_metrics
from repro.obs.telemetry import (
    FROZEN_SAMPLES,
    TELEMETRY_VERSION,
    CampaignView,
    TelemetryAggregator,
    WorkerTelemetry,
    WorkerView,
    publish_system,
    spool_dir_for,
    state_path,
)
from repro.obs.watch import (
    monitor_done,
    render_board,
    render_status_line,
    resolve_monitor_paths,
    run_monitor,
)
from repro.serve.server import HttpFront

TINY = ExperimentConfig(refs_per_core=150, seed=1)


def _summary(cell):
    return {"scheme": cell.scheme, "workload": cell.workload, "cycles": 1000,
            "core_ipc": [1.0], "core_instructions": [100],
            "conflict_rate": 0.1, "row_conflicts": 5, "demand_accesses": 50,
            "buffer_hits": 10, "prefetches_issued": 20, "row_accuracy": 0.5,
            "line_accuracy": 0.25, "mean_memory_latency": 100.0,
            "mean_read_latency": 90.0, "energy_pj": 1e6,
            "energy_breakdown": {"activate": 1.0}, "link_utilization": 0.2}


def ok_runner(cell, attempt):  # module-level: picklable for worker processes
    return _summary(cell)


def lm1_flaky_runner(cell, attempt):
    if cell.workload == "LM1" and attempt == 1:
        raise RuntimeError("transient glitch")
    return _summary(cell)


class _FakeCell:
    cell_id = "cell-TEST-base"
    workload = "TEST"
    scheme = "base"


def _state(path):
    return json.loads(path.read_text())


class _FakeEngine:
    def __init__(self, now=100):
        self.now = now  # a frozen sim-clock unless a test moves it
        self._seq = 0


class _FakeSystem:
    def __init__(self):
        self.engine = _FakeEngine()


def _write_state(spool_dir, worker, **rec):
    """A worker state file as WorkerTelemetry writes it."""
    rec = {"version": TELEMETRY_VERSION, "worker": worker, "pid": 1,
           "seq": 1, **rec}
    state_path(spool_dir, worker).write_text(json.dumps(rec))


# ----------------------------------------------------------------------
# Tail-following (satellite: torn line / mid-read append / rotation)
# ----------------------------------------------------------------------


def _poll(tailer):
    """The JSON objects of the lines a tailer poll yields, parsed the way
    every JSONL reader parses them."""
    return [r for r in map(parse_line, tailer.poll_lines()) if r is not None]


class TestJsonlTailer:
    def test_torn_trailing_line_buffered_until_complete(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"b":')  # second record torn mid-write
        tailer = JsonlTailer(path)
        assert _poll(tailer) == [{"a": 1}]
        assert _poll(tailer) == []  # torn tail stays buffered, not parsed
        with open(path, "a") as fh:
            fh.write(' 2}\n')  # writer completes the line
        assert _poll(tailer) == [{"b": 2}]
        assert _poll(tailer) == []  # and it is emitted exactly once

    def test_record_appended_mid_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n')
        tailer = JsonlTailer(path)
        assert _poll(tailer) == [{"a": 1}]
        with open(path, "a") as fh:
            fh.write('{"b": 2}\n{"c": 3}\n')
        assert _poll(tailer) == [{"b": 2}, {"c": 3}]
        assert _poll(tailer) == []

    def test_rotation_resets_to_new_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        tailer = JsonlTailer(path)
        assert len(_poll(tailer)) == 2
        # atomic rotation: new inode replaces the old file
        tmp = tmp_path / "t.jsonl.tmp"
        tmp.write_text('{"b": 1}\n')
        os.replace(tmp, path)
        assert _poll(tailer) == [{"b": 1}]  # reader restarted at offset 0

    def test_truncation_detected_as_reset(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n{"a": 3}\n')
        tailer = JsonlTailer(path)
        assert len(_poll(tailer)) == 3
        path.write_text('{"b": 1}\n')  # same inode, shrunk below offset
        assert _poll(tailer) == [{"b": 1}]

    def test_truncate_then_regrow_past_offset_resets(self, tmp_path):
        """Regression: truncation masked by regrowth (satellite fix).

        A writer truncates the file and then writes *more* bytes than the
        old read offset before the tailer polls again.  A size-only check
        (`size < offset`) cannot see that; the tailer must notice the
        replaced head via its anchor prefix and reread from zero instead of
        emitting a garbage mid-record suffix of the new content.
        """
        path = tmp_path / "t.jsonl"
        path.write_text('{"old": 1}\n{"old": 2}\n')
        tailer = JsonlTailer(path)
        assert len(_poll(tailer)) == 2
        # same inode: truncate + rewrite, ending *larger* than the old offset
        new = "".join(f'{{"new": {i}}}\n' for i in range(10))
        assert len(new) > path.stat().st_size
        path.write_text(new)
        assert _poll(tailer) == [{"new": i} for i in range(10)]
        assert _poll(tailer) == []  # exactly once

    def test_regrow_same_prefix_not_misreset(self, tmp_path):
        """An append-only writer never trips the anchor check."""
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n')
        tailer = JsonlTailer(path)
        assert _poll(tailer) == [{"a": 1}]
        with open(path, "a") as fh:
            for i in range(5):
                fh.write(f'{{"b": {i}}}\n')
        assert _poll(tailer) == [{"b": i} for i in range(5)]

    def test_garbage_complete_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n[1, 2]\n')
        assert _poll(JsonlTailer(path)) == [{"a": 1}, {"b": 2}]

    def test_missing_file_polls_empty(self, tmp_path):
        tailer = JsonlTailer(tmp_path / "absent.jsonl")
        assert _poll(tailer) == []

    @pytest.mark.parametrize("chunk", [1, 5, 7, 64])
    def test_lines_spanning_chunk_boundaries_come_back_whole(
        self, tmp_path, monkeypatch, chunk
    ):
        monkeypatch.setattr(JsonlTailer, "CHUNK_BYTES", chunk)
        path = tmp_path / "t.jsonl"
        recs = [{"i": i, "pad": "x" * (i * 9)} for i in range(12)]
        body = "".join(json.dumps(r) + "\n" for r in recs)
        path.write_text(body + '{"torn":')
        tailer = JsonlTailer(path)
        assert _poll(tailer) == recs
        with open(path, "a") as fh:
            fh.write(' 1}\n')
        assert _poll(tailer) == [{"torn": 1}]
        assert _poll(tailer) == []
        resets = tailer.resets
        # the head anchor spans chunks too: a same-size rewrite resets
        path.write_text(body.replace('"i"', '"j"') + '{"torn": 1}\n')
        assert _poll(tailer) == [
            {"j": r["i"], "pad": r["pad"]} for r in recs
        ] + [{"torn": 1}]
        assert tailer.resets == resets + 1


# ----------------------------------------------------------------------
# Worker-side sampler
# ----------------------------------------------------------------------


class TestWorkerTelemetry:
    def test_cell_lifecycle_records(self, tmp_path):
        wt = WorkerTelemetry(tmp_path, "w0", interval=60.0)  # no timer beats
        records = []

        def step(fn, *args):
            fn(*args)
            records.append(_state(wt.path))  # the file holds the latest only

        step(wt.start)
        step(wt.cell_start, _FakeCell(), 1)
        step(wt.cell_end, "ok", 1.25)
        step(wt.cell_start, _FakeCell(), 2)
        step(wt.cell_end, "error", 0.5)
        step(wt.stop)
        phases = [r["phase"] for r in records]
        assert phases == ["idle", "start", "end", "start", "end", "exit"]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5, 6]
        assert {(r["worker"], r["pid"], r["version"]) for r in records} == {
            ("w0", os.getpid(), TELEMETRY_VERSION)}
        ends = [r for r in records if r["phase"] == "end"]
        assert ends[0]["status"] == "ok" and ends[0]["elapsed"] == 1.25
        assert ends[1]["status"] == "error"
        # cumulative, not delta: the last record carries full totals
        assert records[-1]["cells"] == {"done": 2, "ok": 1, "failed": 1}
        starts = [r for r in records if r["phase"] == "start"]
        assert starts[1]["cell"]["attempt"] == 2
        assert all("rss" in r for r in records)
        # every write replaced the file: no tmp file is left beside it
        assert [p.name for p in tmp_path.iterdir()] == ["telemetry-w0.json"]

    def test_concurrent_writers_never_tear_the_state_file(self, tmp_path):
        """The sampler thread and cell-boundary writers share one lock:
        every read parses, ``seq`` never goes back, and no write is lost."""
        import threading

        wt = WorkerTelemetry(tmp_path, "w0", interval=0.001).start()
        beats_per_thread, threads = 150, 4
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def writer():
                for _ in range(beats_per_thread):
                    wt.cell_start(_FakeCell(), 1)
                    wt.cell_end("ok", 0.0)

            pool = [threading.Thread(target=writer) for _ in range(threads)]
            for t in pool:
                t.start()
            seen = []
            while any(t.is_alive() for t in pool):
                seen.append(_state(wt.path)["seq"])  # never torn
            for t in pool:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(old)
            wt.stop()
        assert seen == sorted(seen)
        final = _state(wt.path)
        assert final["phase"] == "exit"
        assert final["cells"]["done"] == beats_per_thread * threads
        assert final["seq"] == wt._seq
        assert [p.name for p in tmp_path.iterdir()] == ["telemetry-w0.json"]

    def test_publish_system_is_noop_when_disarmed(self):
        assert telemetry.current_worker() is None
        publish_system(object())  # must not raise, must not retain
        publish_system(None)
        assert telemetry.current_worker() is None

    def test_sample_reads_live_engine_state(self, tmp_path):
        from repro.system import System, SystemConfig
        from repro.workloads.mixes import mix as make_mix

        wt = WorkerTelemetry(tmp_path, "w0", interval=60.0)
        system = System(make_mix("MX1", 150, seed=1),
                        SystemConfig(scheme="camps"), workload="MX1")
        system.run()
        wt.cell_start(_FakeCell(), 1)
        wt.system = system
        rec = wt._record("running")
        assert rec["cycle"] == int(system.engine.now)
        assert rec["events"] > 0

    def test_activate_deactivate_roundtrip(self, tmp_path):
        wt = telemetry.activate_worker(tmp_path, "w9", interval=60.0)
        try:
            assert telemetry.current_worker() is wt
            publish_system(self)  # arbitrary object lands on the sampler
            assert wt.system is self
        finally:
            telemetry.deactivate_worker()
        assert telemetry.current_worker() is None
        assert state_path(tmp_path, "w9").exists()


# ----------------------------------------------------------------------
# Durable exit records (satellite: "terminated" vs "hung")
# ----------------------------------------------------------------------


class TestExitRecords:
    def _exits(self, path):
        rec = _state(path)
        return [rec] if rec.get("phase") == "exit" else []

    def test_clean_stop_writes_exit_reason(self, tmp_path):
        wt = telemetry.activate_worker(tmp_path, "w0", interval=60.0)
        telemetry.deactivate_worker()
        (rec,) = self._exits(wt.path)
        assert rec["reason"] == "clean"

    def test_write_exit_idempotent(self, tmp_path):
        wt = WorkerTelemetry(tmp_path, "w0", interval=60.0)
        wt.write_exit("sigterm")
        seq = _state(wt.path)["seq"]
        wt.write_exit("clean")  # late double-stop must not add a record
        wt.stop()
        exits = self._exits(wt.path)
        assert len(exits) == 1
        assert exits[0]["reason"] == "sigterm"
        assert exits[0]["seq"] == seq

    def test_sigterm_writes_exit_record_and_dies_by_signal(self, tmp_path):
        """A SIGTERMed worker leaves reason="sigterm" *and* still dies with
        the signal (exit status preserved for supervisors)."""
        import signal
        import subprocess
        import sys

        script = (
            "import os, signal, sys\n"
            "from repro.obs import telemetry\n"
            f"telemetry.activate_worker({str(tmp_path)!r}, 'w0', interval=60.0)\n"
            "os.kill(os.getpid(), signal.SIGTERM)\n"
            "sys.exit(99)  # unreachable: the re-raised signal kills us\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGTERM
        exits = self._exits(state_path(tmp_path, "w0"))
        assert len(exits) == 1
        assert exits[0]["reason"] == "sigterm"

    def test_sigkill_leaves_no_exit_record(self, tmp_path):
        """The contrast case: a SIGKILLed worker goes silent — no exit
        record — which is exactly what lets monitors tell the two apart."""
        import signal
        import subprocess
        import sys

        script = (
            "import os, signal\n"
            "from repro.obs import telemetry\n"
            f"telemetry.activate_worker({str(tmp_path)!r}, 'w0', interval=60.0)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        assert self._exits(state_path(tmp_path, "w0")) == []


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def _write_manifest(path, cells, records):
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "header", "version": MANIFEST_VERSION,
                             "cells": cells, "jobs": 2}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestAggregator:
    def test_merges_workers_and_manifest(self, tmp_path):
        for name in ("w0", "w1"):
            _write_state(tmp_path, name, phase="running", ts=0.0,
                         cells={"done": 1, "ok": 1, "failed": 0},
                         cell={"id": "c", "workload": "HM1",
                               "scheme": "base", "attempt": 1},
                         cycle=100, rss=1 << 20)
        _write_state(tmp_path, "w2", version=TELEMETRY_VERSION + 1)  # unknown
        manifest = tmp_path / "m.jsonl"
        _write_manifest(manifest, 4, [
            {"cell_id": "a", "workload": "HM1", "scheme": "base",
             "status": "ok", "attempts": 2, "elapsed": 3.0, "cached": False},
            {"cell_id": "b", "workload": "LM1", "scheme": "base",
             "status": "timeout", "elapsed": 5.0,
             "diagnosis": {"reason": "livelock", "stuck_component": "vault3"}},
        ])
        agg = TelemetryAggregator(tmp_path, manifest_path=manifest)
        snap = agg.refresh().to_snapshot()
        assert [w["worker"] for w in snap["workers"]] == ["w0", "w1"]
        # 2 cells left, 2 jobs, mean executed elapsed 4 s
        assert snap["campaign"] == {"total": 4, "done": 2, "ok": 1,
                                    "failed": 1, "cached": 0, "executed": 2,
                                    "retried": 1, "jobs": 2,
                                    "eta_seconds": 4.0}
        assert snap["manifest"] == {"done": 2, "ok": 1, "failed": 1,
                                    "cached": 0, "total": 4}
        (failure,) = snap["failures"]
        assert failure["status"] == "timeout"
        assert failure["diagnosis"]["reason"] == "livelock"

    def test_duplicate_manifest_record_counts_once(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        rec = {"cell_id": "a", "workload": "HM1", "scheme": "base",
               "status": "ok"}
        _write_manifest(manifest, 2, [rec, rec])  # resume rewrote the cell
        agg = TelemetryAggregator(tmp_path, manifest_path=manifest)
        assert agg.refresh().campaign()["done"] == 1

    def test_fresh_manifest_header_voids_prior_cells(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        _write_manifest(manifest, 2, [
            {"cell_id": "a", "status": "ok", "workload": "x", "scheme": "y"},
        ])
        agg = TelemetryAggregator(tmp_path, manifest_path=manifest)
        assert agg.refresh().campaign()["done"] == 1
        _write_manifest(manifest, 3, [])  # campaign restarted from scratch
        counts = agg.refresh().campaign()
        assert counts["done"] == 0 and counts["total"] == 3

    def test_serve_overlay_lines_are_not_cells(self, tmp_path):
        """Claim, tick and span lines carry a cell_id (or none) but are not
        terminal records: they must neither add cells nor overwrite one."""
        manifest = tmp_path / "m.jsonl"
        ok = {"workload": "HM1", "scheme": "base", "status": "ok"}
        claim = {"kind": "claim", "worker": "s0", "gen": 1, "clock": 1,
                 "lease": 9}
        _write_manifest(manifest, 3, [
            {**claim, "cell_id": "a"},
            {**claim, "cell_id": "b"},
            {**claim, "cell_id": "c"},  # claimed, still running
            {"kind": "tick", "worker": "s0", "clock": 2},
            {"cell_id": "a", **ok},
            {"kind": "span", "stage": "merge", "cell_id": "a"},
            {"cell_id": "b", **ok},
            {**claim, "cell_id": "b", "clock": 3},  # a late renewal
            {"kind": "span", "stage": "execute", "cell_id": "c"},
        ])
        agg = TelemetryAggregator(tmp_path, manifest_path=manifest)
        snap = agg.refresh().to_snapshot()
        assert snap["manifest"] == {"done": 2, "ok": 2, "failed": 0,
                                    "cached": 0, "total": 3}
        assert snap["failures"] == []

    def test_incremental_refresh_picks_up_appends(self, tmp_path):
        _write_state(tmp_path, "w0", seq=1, phase="idle", cells={"done": 0})
        agg = TelemetryAggregator(tmp_path)
        wv = agg.refresh().workers["w0"]
        assert wv.record["phase"] == "idle"
        updated = wv.updated
        agg.refresh()  # same (pid, seq): the record's age keeps growing
        assert wv.updated == updated
        _write_state(tmp_path, "w0", seq=2, phase="running", cells={"done": 0})
        assert agg.refresh().workers["w0"].record["phase"] == "running"
        assert wv.updated > updated


class TestWorkerViewStalls:
    def _running(self, cycle, cell="c1"):
        return {"phase": "running", "cycle": cycle,
                "cell": {"id": cell, "workload": "HM1", "scheme": "base"}}

    def _frozen_worker(self, tmp_path):
        wt = WorkerTelemetry(tmp_path, "w0", interval=60.0)  # beats by hand
        wt.cell_start(_FakeCell(), 1)
        wt.system = _FakeSystem()
        return wt

    def test_frozen_cycle_flagged_after_threshold(self, tmp_path):
        wt = self._frozen_worker(tmp_path)
        agg = TelemetryAggregator(tmp_path)
        wt._emit("running")  # the first beat at a cycle sets the baseline
        for _ in range(FROZEN_SAMPLES):
            wv = agg.refresh().workers["w0"]
            assert wv.stall_reason(wv.updated, stale_after=60.0) is None
            wt._emit("running")
        wv = agg.refresh().workers["w0"]
        reason = wv.stall_reason(wv.updated, stale_after=60.0)
        assert reason is not None and "frozen at 100" in reason

    def test_frozen_detection_independent_of_poll_rate(self, tmp_path):
        """A reader polling at a third of the heartbeat rate still sees the
        frozen cycle after FROZEN_SAMPLES heartbeats: the worker counts."""
        wt = self._frozen_worker(tmp_path)
        agg = TelemetryAggregator(tmp_path)
        polls = []
        for beat in range(1, 2 * FROZEN_SAMPLES + 1):
            wt._emit("running")
            if beat % 3 == 0:
                wv = agg.refresh().workers["w0"]
                stalled = wv.stall_reason(wv.updated, stale_after=60.0)
                polls.append((beat, stalled is not None))
        # beat 1 is the baseline; FROZEN_SAMPLES beats later it is frozen
        assert polls == [(b, b > FROZEN_SAMPLES) for b, _ in polls]
        assert polls[-1][1]

    def test_advancing_cycle_resets_frozen_count(self, tmp_path):
        wt = self._frozen_worker(tmp_path)
        for i in range(FROZEN_SAMPLES * 2):
            wt.system.engine.now = 100 + i
            wt._emit("running")
            assert _state(wt.path)["frozen"] == 0
        wt._emit("running")  # the cycle stops moving
        assert _state(wt.path)["frozen"] == 1
        wt.cell_end("ok", 1.0)
        wt.cell_start(_FakeCell(), 2)
        wt.system = _FakeSystem()
        wt._emit("running")  # a new cell restarts the count
        assert _state(wt.path)["frozen"] == 0

    def test_stale_heartbeat_flagged(self):
        wv = WorkerView("w0")
        wv.update(self._running(100), now=0.0)
        assert wv.stall_reason(1.0, stale_after=5.0) is None
        reason = wv.stall_reason(10.0, stale_after=5.0)
        assert reason is not None and "no heartbeat" in reason

    def test_watchdog_stall_polls_flagged(self):
        wv = WorkerView("w0")
        rec = self._running(100)
        rec["counters"] = {"integrity.stall_polls": 2}
        wv.update(rec, now=0.0)
        reason = wv.stall_reason(0.1, stale_after=60.0)
        assert reason is not None and "watchdog" in reason

    def test_exited_worker_never_stalled(self):
        wv = WorkerView("w0")
        wv.update({"phase": "exit"}, now=0.0)
        assert wv.stall_reason(100.0, stale_after=5.0) is None


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _snapshot():
    return {
        "version": TELEMETRY_VERSION,
        "ts": 0.0,
        "campaign": {"total": 4, "done": 2, "ok": 2, "failed": 0,
                     "cached": 1, "executed": 1, "retried": 0,
                     "eta_seconds": 12.5, "jobs": 2},
        "manifest": {"done": 2, "ok": 2, "failed": 0, "cached": 1, "total": 4},
        "workers": [
            {"worker": "w0", "phase": "running", "age_seconds": 0.2,
             "cells": {"done": 1, "ok": 1, "failed": 0}, "rss": 1 << 20,
             "cycle": 51200, "events": 90000, "eps": 1234.5,
             "cell": {"id": "x", "workload": 'HM"1\\', "scheme": "base"},
             "counters": {"integrity.stall_polls": 0, "faults.replays": 3},
             "gauges": {"buffer.hit_rate": 0.5}, "stalled": False},
            {"worker": "w1", "phase": "idle", "age_seconds": 0.1,
             "cells": {"done": 1, "ok": 1, "failed": 0}, "rss": 2 << 20,
             "stalled": True, "stall_reason": "no heartbeat for 9s"},
        ],
        "failures": [],
    }


class TestPromtext:
    def test_render_parse_round_trip(self):
        text = render_metrics(_snapshot())
        families = parse_exposition(text)
        assert families["repro_campaign_cells_total"]["type"] == "gauge"
        ((labels, value),) = families["repro_campaign_cells_done"]["samples"]
        assert value == 2.0
        workers = dict()
        for labels, value in families["repro_worker_stalled"]["samples"]:
            workers[labels["worker"]] = value
        assert workers == {"w0": 0.0, "w1": 1.0}

    def test_label_escaping_survives_round_trip(self):
        text = render_metrics(_snapshot())
        families = parse_exposition(text)
        cells = families["repro_worker_info"]["samples"]
        (labels, _) = [s for s in cells if s[0]["worker"] == "w0"][0]
        assert labels["workload"] == 'HM"1\\'
        assert labels["phase"] == "running"

    def test_counter_and_gauge_families_present(self):
        families = parse_exposition(render_metrics(_snapshot()))
        counter_samples = families["repro_worker_counter"]["samples"]
        assert any(lbl["counter"] == "faults_replays" and v == 3.0
                   for lbl, v in counter_samples)
        gauge_samples = families["repro_worker_gauge"]["samples"]
        assert any(lbl["gauge"] == "buffer_hit_rate" and v == 0.5
                   for lbl, v in gauge_samples)

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not { exposition\n")

    def test_parse_rejects_sample_before_type(self):
        with pytest.raises(ValueError):
            parse_exposition('mystery_metric 1.0\n')


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------


class TestHttpFront:
    def test_snapshot_and_metrics_endpoints(self):
        server = HttpFront(_snapshot).start_thread()
        try:
            assert server.port > 0
            with urllib.request.urlopen(f"{server.url}/snapshot") as resp:
                assert resp.headers["Content-Type"] == "application/json"
                snap = json.loads(resp.read())
            assert snap["campaign"]["total"] == 4
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                assert "version=0.0.4" in resp.headers["Content-Type"]
                families = parse_exposition(resp.read().decode())
            assert "repro_campaign_cells_done" in families
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope")
            err.value.close()  # the error carries the open response
            assert err.value.code == 404
        finally:
            server.stop_thread()


# ----------------------------------------------------------------------
# Terminal renderers and monitor plumbing
# ----------------------------------------------------------------------


class TestRenderers:
    def test_board_header_workers_and_stall(self):
        lines = render_board(_snapshot())
        assert lines[0].startswith("campaign: 2/4 cells")
        assert "eta 0m12s" in lines[0]
        joined = "\n".join(lines)
        assert 'HM"1\\/base' in joined
        assert "STALLED: no heartbeat for 9s" in joined

    def test_board_shows_failures_with_diagnosis(self):
        snap = _snapshot()
        snap["failures"] = [{"workload": "HM1", "scheme": "base",
                             "status": "timeout",
                             "diagnosis": {"reason": "livelock",
                                           "stuck_component": "vault3"}}]
        joined = "\n".join(render_board(snap))
        assert "failed: HM1/base (timeout)" in joined
        assert "livelock" in joined and "vault3" in joined

    def test_board_empty_snapshot_renders(self):
        lines = render_board({"campaign": {}, "manifest": {}, "workers": []})
        assert "no worker heartbeats yet" in "\n".join(lines)

    def test_status_line_compact(self):
        line = render_status_line(_snapshot())
        assert line.startswith("watch: 2/4 done")
        assert "1 STALLED" in line

    def test_resolve_manifest_file(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{}\n")
        spool_dir, mpath = resolve_monitor_paths(manifest)
        assert spool_dir == spool_dir_for(manifest) and mpath == manifest

    def test_resolve_spool_dir(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{}\n")
        sdir = spool_dir_for(manifest)
        sdir.mkdir()
        assert resolve_monitor_paths(sdir) == (sdir, manifest)

    def test_resolve_containing_dir(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{}\n")
        spool_dir_for(manifest).mkdir()
        spool_dir, mpath = resolve_monitor_paths(tmp_path)
        assert spool_dir == spool_dir_for(manifest) and mpath == manifest

    def test_resolve_rejects_unidentifiable(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_monitor_paths(tmp_path / "missing.jsonl")
        with pytest.raises(FileNotFoundError):
            resolve_monitor_paths(tmp_path)  # empty dir: nothing to monitor

    def test_monitor_done_requires_known_total(self):
        assert not monitor_done({"campaign": {"done": 3, "total": None}})
        assert not monitor_done({"campaign": {"done": 3, "total": 4}})
        assert monitor_done({"campaign": {"done": 4, "total": 4}})


# ----------------------------------------------------------------------
# End to end: run_campaign with telemetry armed
# ----------------------------------------------------------------------


class TestCampaignTelemetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spools_written_and_counts_converge(self, tmp_path, jobs):
        cells = grid_cells(["HM1", "LM1"], ["base", "camps"], TINY)
        manifest = tmp_path / "m.jsonl"
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, telemetry=True,
                            telemetry_interval=0.05),
            runner=ok_runner,
            manifest=Manifest(manifest),
        )
        assert res.stats["ok"] == 4
        sdir = spool_dir_for(manifest)
        names = sorted(p.name for p in sdir.iterdir())
        assert names == [f"telemetry-w{i}.json" for i in range(jobs)]
        # the merged view converges to the manifest's exactly-once record
        agg = TelemetryAggregator(sdir, manifest_path=manifest)
        view = agg.refresh()
        assert view.to_snapshot()["manifest"] == {
            "done": 4, "ok": 4, "failed": 0, "cached": 0, "total": 4}
        # worker end-records sum to the cells each worker executed
        done = sum((wv.record.get("cells") or {}).get("done", 0)
                   for wv in view.workers.values())
        assert done == 4

    def test_manifest_header_carries_campaign_meta(self, tmp_path, capsys):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        manifest = tmp_path / "m.jsonl"
        run_campaign(cells[:1], CampaignOptions(jobs=1), runner=ok_runner,
                     manifest=Manifest(manifest))
        header = Manifest(manifest).header()
        assert header["cells"] == 1 and header["jobs"] == 1
        # a resume with a larger grid and more jobs (or with no manifest
        # file yet) states them in a header the live view reads
        for path in (manifest, tmp_path / "fresh.jsonl"):
            run_campaign(cells, CampaignOptions(jobs=2, resume=True, watch=True,
                                                telemetry_interval=0.05),
                         runner=ok_runner, manifest=Manifest(path))
            assert "campaign: 2/2 cells" in capsys.readouterr().out
            snap = TelemetryAggregator(spool_dir_for(path), manifest_path=path)
            campaign = snap.snapshot()["campaign"]
            assert (campaign["total"], campaign["jobs"]) == (2, 2)

    def test_resumed_smaller_grid_counts_only_its_cells(self, tmp_path):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        manifest = tmp_path / "m.jsonl"
        run_campaign(cells, CampaignOptions(jobs=1), runner=lm1_flaky_runner,
                     manifest=Manifest(manifest))  # LM1 fails, no retry
        run_campaign(cells[:1], CampaignOptions(jobs=1, resume=True),
                     runner=ok_runner, manifest=Manifest(manifest))
        snap = TelemetryAggregator(None, manifest_path=manifest).snapshot()
        campaign = snap["campaign"]
        assert (campaign["total"], campaign["done"], campaign["ok"]) == (1, 1, 1)
        assert snap["failures"] == []  # LM1 is outside the resumed grid
        assert monitor_done(snap)
        assert Manifest(manifest).scan().meta["cell_ids"] == [cells[0].cell_id]

    def test_telemetry_port_binds_and_reports(self, tmp_path):
        cells = grid_cells(["HM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=1, telemetry_port=0,
                            telemetry_interval=0.05),
            runner=ok_runner,
            manifest=Manifest(tmp_path / "m.jsonl"),
        )
        assert res.stats["telemetry_port"] > 0

    def test_watch_campaign_completes(self, tmp_path, capsys):
        # --watch arms telemetry implicitly and must not disturb results
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=1, watch=True, telemetry_interval=0.05),
            runner=ok_runner,
            manifest=Manifest(tmp_path / "m.jsonl"),
        )
        assert res.stats["ok"] == 2
        assert telemetry.current_worker() is None  # serial path cleaned up

    def test_disabled_telemetry_leaves_no_spools(self, tmp_path):
        cells = grid_cells(["HM1"], ["base"], TINY)
        manifest = tmp_path / "m.jsonl"
        run_campaign(cells, CampaignOptions(jobs=1), runner=ok_runner,
                     manifest=Manifest(manifest))
        assert not spool_dir_for(manifest).exists()
        assert telemetry.current_worker() is None

    def test_run_monitor_once_converges_to_manifest(self, tmp_path):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        manifest = tmp_path / "m.jsonl"
        run_campaign(
            cells,
            CampaignOptions(jobs=2, telemetry=True, telemetry_interval=0.05),
            runner=ok_runner,
            manifest=Manifest(manifest),
        )
        stream = io.StringIO()
        snap = run_monitor(manifest, once=True, as_json=True, stream=stream)
        assert snap["manifest"]["done"] == 2 and snap["manifest"]["total"] == 2
        assert monitor_done(snap)
        assert json.loads(stream.getvalue())["manifest"]["done"] == 2

    def test_run_monitor_exits_on_finished_campaign(self, tmp_path):
        cells = grid_cells(["HM1"], ["base"], TINY)
        manifest = tmp_path / "m.jsonl"
        run_campaign(cells,
                     CampaignOptions(jobs=1, telemetry=True,
                                     telemetry_interval=0.05),
                     runner=ok_runner, manifest=Manifest(manifest))
        stream = io.StringIO()
        snap = run_monitor(manifest, interval=0.05, stream=stream,
                           max_seconds=10.0)
        assert monitor_done(snap)
        assert "campaign: 1/1 cells" in stream.getvalue()

    def test_bad_telemetry_interval_rejected(self):
        with pytest.raises(ValueError):
            CampaignOptions(telemetry_interval=0.0)


class TestMonitorCLI:
    def test_missing_target_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["monitor", str(tmp_path / "nope.jsonl"), "--once"])
        assert rc == 1
        assert "monitor:" in capsys.readouterr().err

    def test_once_json_over_finished_campaign(self, tmp_path):
        # one cached and one retried cell; the monitor runs in its own
        # process, so its campaign block comes from the manifest alone
        src = str(Path(__file__).resolve().parents[1] / "src")
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        for jobs in (1, 2):
            cache = Manifest(tmp_path / f"cache{jobs}.jsonl")
            run_campaign(cells[:1], cache=cache, runner=ok_runner)  # HM1
            manifest = tmp_path / f"m{jobs}.jsonl"
            res = run_campaign(
                cells, CampaignOptions(jobs=jobs, retries=1, backoff=0.01),
                cache=cache, manifest=Manifest(manifest),
                runner=lm1_flaky_runner)
            assert res.stats["cached"] == 1 and res.stats["retried"] == 1
            out = subprocess.run(
                [sys.executable, "-m", "repro", "monitor", str(manifest),
                 "--once", "--json"], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": src}).stdout
            block = json.loads(out)["campaign"]
            stats = {k: v for k, v in res.stats.items() if k != "resumed"}
            assert {k: block[k] for k in stats} == stats

    def test_campaign_parser_telemetry_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["campaign", "--watch", "--telemetry-port", "0",
             "--telemetry-interval", "0.25"]
        )
        assert args.watch and args.telemetry_port == 0
        assert args.telemetry_interval == 0.25
        args = build_parser().parse_args(["campaign"])
        assert not args.watch and args.telemetry_port is None
        assert not args.telemetry
