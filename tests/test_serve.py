"""Tests for the campaign service: admission, lifecycle, protocol, faults.

Fast fake runners stand in for the simulator (the digest-parity contract
against real simulations lives in tests/test_serve_chaos.py); these tests
pin the service semantics: 429 + retry_after under saturation, quick-lane
priority, dedupe across jobs, drain -> released claims -> resume (and the
hand-off of a draining node's queue to a live peer), quarantine of
diagnosed failures, crash/flake requeue, ENOSPC retry of terminal records,
both wire protocols, and the degradation of health endpoints.
"""

import asyncio
import json
import os
import queue
import statistics
import time
from pathlib import Path

import pytest

from repro.obs.promtext import parse_exposition, render_metrics
from repro.obs.spans import read_spans
from repro.serve import (
    LANE_BULK,
    LANE_QUICK,
    AdmissionController,
    DrainingError,
    LatencyTracker,
    ServeClient,
    ServeConfig,
    ServeScheduler,
    ServeService,
    Shed,
    SpecError,
    cell_from_spec,
    cell_to_spec,
    infer_lane,
)
from repro.serve.chaos import drop_connection, enospc_manifest
from repro.serve.client import ServeError
from repro.campaign.pool import CellPool
from repro.serve.jobs import Job
from repro.serve.server import _expand_cells


def _summary(cell):
    return {"scheme": cell.scheme, "workload": cell.workload, "cycles": 1000}


def ok_runner(cell, attempt):  # module-level: picklable for worker processes
    return _summary(cell)


def full_runner(cell, attempt):
    """A summary with every persisted field: one the result log can serve."""
    from repro.experiments.runner import _CACHED_FIELDS

    return {**dict.fromkeys(_CACHED_FIELDS, 0), **_summary(cell)}


def slow_runner(cell, attempt):
    time.sleep(0.6)
    return _summary(cell)


def pump_runner(cell, attempt):
    if cell.workload == "LM1":
        time.sleep(1.0)
    return _summary(cell)


def flaky_runner(cell, attempt):
    if attempt == 1:
        raise RuntimeError("transient flake (attempt 1)")
    return _summary(cell)


def crash_once_runner(cell, attempt):
    if attempt == 1:
        os._exit(17)  # kill the worker process abruptly, mid-cell
    return _summary(cell)


class _DiagnosedError(RuntimeError):
    report = {"reason": "deadlock", "component": "vault3", "violations": 2}


def diagnosed_runner(cell, attempt):
    raise _DiagnosedError("integrity check failed")


def _spec(workload="HM1", scheme="base", refs=100, seed=1, **extra):
    spec = {"workload": workload, "scheme": scheme, "refs": refs, "seed": seed}
    spec.update(extra)
    return spec


def _cfg(tmp_path, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("use_cache", False)
    kw.setdefault("telemetry", False)
    kw.setdefault("tick_interval", 0.1)
    return ServeConfig(manifest=str(tmp_path / "serve.jsonl"), **kw)


async def _call(fn, *args, **kw):
    """Run a blocking client call off the event loop thread."""
    return await asyncio.get_running_loop().run_in_executor(
        None, lambda: fn(*args, **kw)
    )


def _with_service(cfg, runner, body):
    """Start a service, run the async body, always tear down."""

    async def _main():
        service = ServeService(cfg, runner=runner)
        await service.start()
        try:
            return await body(service)
        finally:
            await service.stop()

    return asyncio.run(_main())


def _with_node(cfg, runner, body):
    """Scheduler-only variant (no HTTP listener)."""

    async def _main():
        node = ServeScheduler(cfg, runner=runner)
        await node.start()
        try:
            return await body(node)
        finally:
            await node.aclose()

    return asyncio.run(_main())


async def _wait_job(node, job_id, timeout=30.0):
    event = node._job_events.get(job_id)  # a finished job has none
    if event is not None:
        await asyncio.wait_for(event.wait(), timeout)
    return node.registry.jobs[job_id]


# ----------------------------------------------------------------------
# Admission control (unit)
# ----------------------------------------------------------------------


class TestAdmission:
    def test_infer_lane_thresholds(self):
        assert infer_lane(_spec(refs=100)) == LANE_QUICK
        assert infer_lane(_spec(refs=50_000)) == LANE_BULK
        assert infer_lane(_spec(topology="chain:4")) == LANE_BULK
        assert infer_lane(_spec(ber=1e-6)) == LANE_BULK

    def test_caps_enforced_per_lane(self):
        adm = AdmissionController(quick_cap=2, bulk_cap=4, jobs=1)
        assert adm.try_admit(LANE_QUICK, 2) is None
        verdict = adm.try_admit(LANE_QUICK, 1)
        assert verdict is not None and verdict > 0
        assert adm.try_admit(LANE_BULK, 4) is None  # independent budget
        assert adm.shed_total == 1

    def test_release_reopens_lane(self):
        adm = AdmissionController(quick_cap=1, bulk_cap=1, jobs=1)
        assert adm.try_admit(LANE_QUICK, 1) is None
        assert adm.try_admit(LANE_QUICK, 1) is not None
        adm.release(LANE_QUICK)
        assert adm.try_admit(LANE_QUICK, 1) is None

    def test_zero_cell_submission_always_admitted(self):
        adm = AdmissionController(quick_cap=1, bulk_cap=1, jobs=1)
        adm.try_admit(LANE_QUICK, 1)
        assert adm.try_admit(LANE_QUICK, 0) is None  # fully-deduped job

    def test_retry_after_scales_with_backlog_and_bounded(self):
        adm = AdmissionController(quick_cap=10**6, bulk_cap=10**6, jobs=2)
        adm.observe_cell_seconds(2.0)
        small = adm.retry_after()
        adm.try_admit(LANE_BULK, 100)
        assert adm.retry_after() > small
        assert 0.5 <= adm.retry_after() <= 60.0
        adm.try_admit(LANE_BULK, 10**5)
        assert adm.retry_after() == 60.0  # clamped


# ----------------------------------------------------------------------
# Cell specs (wire round-trip)
# ----------------------------------------------------------------------


class TestSpecs:
    def test_roundtrip_preserves_cell_id(self):
        cell = cell_from_spec(_spec(scheme="camps", refs=321, seed=9))
        assert cell_from_spec(cell_to_spec(cell)).cell_id == cell.cell_id

    def test_unknown_names_rejected(self):
        with pytest.raises(SpecError):
            cell_from_spec(_spec(workload="NOPE"))
        with pytest.raises(SpecError):
            cell_from_spec(_spec(scheme="NOPE"))
        with pytest.raises(SpecError):
            cell_from_spec(_spec(topology="ring-of-doom"))
        with pytest.raises(SpecError):
            cell_from_spec(_spec(refs=-5))
        with pytest.raises(SpecError):
            cell_from_spec("not an object")

    def test_grid_shorthand_expands_workload_major(self):
        specs = _expand_cells(
            {"grid": {"mixes": ["HM1", "LM1"], "schemes": ["base", "camps"],
                      "refs": 128, "seed": 3}}
        )
        assert [(s["workload"], s["scheme"]) for s in specs] == [
            ("HM1", "base"), ("HM1", "camps"),
            ("LM1", "base"), ("LM1", "camps"),
        ]
        assert all(s["refs"] == 128 and s["seed"] == 3 for s in specs)

    def test_grid_topologies_axis(self):
        specs = _expand_cells(
            {"grid": {"mixes": ["HM1"], "schemes": ["base"],
                      "topologies": ["chain:2", "star:3"]}}
        )
        assert [s["topology"] for s in specs] == ["chain:2", "star:3"]

    def test_empty_submission_rejected(self):
        with pytest.raises(SpecError):
            _expand_cells({})

    def test_submit_digests_each_cell_once(self, tmp_path, monkeypatch):
        """A cell's id (a sha256 over its full state) is computed once per
        Cell, however often submit, dispatch and the merge read it."""
        from repro.campaign import spec as spec_mod

        calls = []
        real = spec_mod._digest
        monkeypatch.setattr(
            spec_mod, "_digest", lambda payload: calls.append(1) or real(payload)
        )

        async def body(node):
            out = node.submit([_spec(), _spec(scheme="none")])
            await _wait_job(node, out["job"])

        _with_node(_cfg(tmp_path), ok_runner, body)
        assert len(calls) == 2


# ----------------------------------------------------------------------
# Service lifecycle over HTTP
# ----------------------------------------------------------------------


class TestServiceHTTP:
    def test_submit_completes_and_records(self, tmp_path):
        cfg = _cfg(tmp_path, jobs=2)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(
                client.submit, cells=[_spec(seed=1), _spec(seed=2)]
            )
            assert out["job"]
            info = await _call(client.wait, out["job"], 30.0)
            assert info["status"] == "done"
            assert info["done"] == 2
            assert all(c["status"] == "ok" for c in info["cells"].values())
            status, _ = await _call(client.healthz)
            assert status == 200
            return service.node

        node = _with_service(cfg, ok_runner, body)
        records = __import__(
            "repro.campaign.manifest", fromlist=["Manifest"]
        ).Manifest(cfg.manifest).records()
        assert len(records) == 2
        assert all(r.ok for r in records.values())
        assert node.completed_cells == 2

    def test_shared_cell_deduped_across_jobs(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            a = await _call(client.submit, cells=[_spec(seed=5)])
            b = await _call(client.submit, cells=[_spec(seed=5)])
            for job in (a["job"], b["job"]):
                info = await _call(client.wait, job, 30.0)
                assert info["status"] == "done"
            return service.node.completed_cells

        assert _with_service(cfg, ok_runner, body) == 1  # one execution

    def test_saturation_sheds_429_with_retry_after(self, tmp_path):
        cfg = _cfg(tmp_path, quick_cap=1, bulk_cap=1)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            # jobs=1 and slow cells: the first dispatches, the second fills
            # the one-slot quick lane, the third must be shed
            await _call(client.submit, cells=[_spec(seed=1)])
            await _call(client.submit, cells=[_spec(seed=2)])
            with pytest.raises(Shed) as exc:
                await _call(client.submit, cells=[_spec(seed=3)])
            assert exc.value.retry_after > 0
            snap = await _call(client.snapshot)
            assert snap["serve"]["admission"]["shed_total"] >= 1

        _with_service(cfg, slow_runner, body)

    def test_quick_lane_overtakes_bulk_backlog(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            node = service.node
            bulk = node.submit(
                [_spec(seed=s) for s in range(1, 5)], lane="bulk"
            )
            quick = node.submit([_spec(seed=99)], lane="quick")
            info = await _wait_job(node, quick["job"])
            assert info.status == "done"
            bulk_job = node.registry.jobs[bulk["job"]]
            # the quick probe finished while bulk cells still queued
            assert len(bulk_job.done) < 4

        _with_service(cfg, slow_runner, body)

    def test_drain_flips_health_and_refuses_submits(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            await _call(client.submit, cells=[_spec(seed=1)])
            status, _ = await _call(client.readyz)
            assert status == 200
            await _call(client.drain)
            status, data = await _call(client.healthz)
            assert status == 503 and data["status"] == "draining"
            status, data = await _call(client.readyz)
            assert status == 503 and data["ready"] is False
            with pytest.raises(DrainingError):
                await _call(client.submit, cells=[_spec(seed=2)])
            await asyncio.wait_for(service.node.stopped.wait(), 30.0)
            # the in-flight cell was allowed to finish and was recorded
            assert len(service.node.manifest.records()) == 1

        _with_service(cfg, slow_runner, body)

    def test_metrics_exposition_parses_with_serve_families(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(client.submit, cells=[_spec(seed=1)])
            await _call(client.wait, out["job"], 30.0)
            return await _call(client.metrics_text)

        text = _with_service(cfg, ok_runner, body)
        families = parse_exposition(text)  # raises on malformed exposition
        assert "repro_serve_inflight_cells" in families
        assert "repro_serve_queued_cells" in families
        assert "repro_serve_jobs" in families
        done = [
            v
            for labels, v in families["repro_serve_jobs"]["samples"]
            if labels.get("state") == "done"
        ]
        assert done == [1.0]
        (sample,) = families["repro_serve_completed_cells_total"]["samples"]
        assert sample[1] == 1.0

    def test_http_error_paths(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            status, _ = await _call(
                client._request, "POST", "/submit", {"cells": "not-a-list"}
            )
            assert status == 400
            status, _ = await _call(client._request, "GET", "/jobs/j999")
            assert status == 404
            status, _ = await _call(client._request, "GET", "/no/such/route")
            assert status == 404

        _with_service(cfg, ok_runner, body)

    def test_dropped_connections_leave_service_healthy(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            for _ in range(5):
                await _call(drop_connection, "127.0.0.1", service.port)
            client = ServeClient("127.0.0.1", service.port)
            status, _ = await _call(client.healthz)
            assert status == 200
            out = await _call(client.submit, cells=[_spec(seed=1)])
            info = await _call(client.wait, out["job"], 30.0)
            assert info["status"] == "done"

        _with_service(cfg, ok_runner, body)


# ----------------------------------------------------------------------
# JSONL protocol
# ----------------------------------------------------------------------


class TestJsonlProtocol:
    def test_ping_submit_wait_over_one_connection(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )

            async def op(req):
                writer.write(json.dumps(req).encode() + b"\n")
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 30))

            pong = await op({"op": "ping"})
            assert pong["ok"] and pong["pong"] and not pong["draining"]
            sub = await op({"op": "submit", "cells": [_spec(seed=1)]})
            assert sub["ok"]
            done = await op({"op": "wait", "job": sub["job"], "timeout": 30})
            assert done["ok"] and done["status"] == "done"
            status = await op({"op": "status", "job": sub["job"]})
            assert status["ok"] and status["done"] == 1
            bad = await op({"op": "frobnicate"})
            assert not bad["ok"]
            garbage = await op({"op": "status", "job": "j999"})
            assert not garbage["ok"]
            writer.close()
            await writer.wait_closed()

        _with_service(cfg, ok_runner, body)


# ----------------------------------------------------------------------
# Event-driven hot path: pool pump and client wait
# ----------------------------------------------------------------------


class TestEventDriven:
    def test_idle_slot_takes_cell_while_other_slot_is_busy(self):
        """A cell submitted while one worker runs a slow cell goes straight
        to the idle worker: the pump wakes on submit, not on a timeout."""
        results = queue.Queue()
        pool = CellPool(2, pump_runner)
        pool.start(lambda res: results.put((time.monotonic(), res)))
        try:
            for seed in (1, 2):  # fork both workers before timing anything
                pool.submit(cell_from_spec(_spec(seed=seed)), 1)
            for _ in range(2):
                results.get(timeout=30)
            lags = []
            for n in range(5):
                pool.submit(cell_from_spec(_spec(workload="LM1", seed=n)), 1)
                deadline = time.monotonic() + 5
                while pool.busy_count() < 1 and time.monotonic() < deadline:
                    time.sleep(0.002)
                t0 = time.monotonic()
                pool.submit(cell_from_spec(_spec(seed=100 + n)), 1)
                t_fast, fast = results.get(timeout=30)
                assert fast.cell.workload == "HM1"
                lags.append(t_fast - t0)
                _, slow = results.get(timeout=30)
                assert slow.cell.workload == "LM1"
        finally:
            pool.stop(drain=False, timeout=1.0)
        assert statistics.median(lags) < 0.1, lags

    def test_cli_submit_wait_returns_on_completion(self, tmp_path, capsys):
        from repro.cli import main

        cfg = _cfg(tmp_path)

        async def body(service):
            node = service.node
            finished = []
            finish = node._finish

            def _finish(*args, **kw):
                finish(*args, **kw)
                finished.append(time.monotonic())

            node._finish = _finish
            code = await _call(
                main,
                ["submit", "--url", f"127.0.0.1:{service.port}", "--mixes",
                 "HM1", "--schemes", "base", "--refs", "100", "--wait"],
            )
            return code, time.monotonic() - finished[-1]

        code, lag = _with_service(cfg, slow_runner, body)
        assert code == 0
        assert "done (1/1 cells, 0 failed)" in capsys.readouterr().out
        assert lag < 0.05

    def test_wait_timeout_raises(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(client.submit, cells=[_spec(seed=1)])
            with pytest.raises(ServeError, match="still"):
                await _call(client.wait, out["job"], 0.1)
            with pytest.raises(ServeError):
                await _call(client.wait, "j999", 1.0)
            info = await _call(client.wait, out["job"], 30.0)
            assert info["status"] == "done" and "ok" not in info

        _with_service(cfg, slow_runner, body)


# ----------------------------------------------------------------------
# Failure handling (scheduler level)
# ----------------------------------------------------------------------


class TestFailureHandling:
    def test_transient_error_retried_to_success(self, tmp_path):
        cfg = _cfg(tmp_path, retries=1)

        async def body(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"])
            (rec,) = node.manifest.records().values()
            assert rec.ok and rec.attempts == 2

        _with_node(cfg, flaky_runner, body)

    def test_error_exhausts_retries_terminal(self, tmp_path):
        cfg = _cfg(tmp_path, retries=0)

        async def body(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"])
            (rec,) = node.manifest.records().values()
            assert rec.status == "error" and "flake" in rec.error

        _with_node(cfg, flaky_runner, body)

    def test_worker_crash_requeued_not_terminal(self, tmp_path):
        cfg = _cfg(tmp_path, retries=0)  # crashes do not consume retries

        async def body(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"], timeout=60.0)
            (rec,) = node.manifest.records().values()
            assert rec.ok
            (state,) = node.cells.values()
            assert state.crashes >= 1

        _with_node(cfg, crash_once_runner, body)

    def test_diagnosed_error_quarantined_no_retry(self, tmp_path):
        cfg = _cfg(tmp_path, retries=5)

        async def body(node):
            out = node.submit([_spec(seed=1)])
            job = await _wait_job(node, out["job"])
            (rec,) = node.manifest.records().values()
            assert rec.status == "error"
            assert rec.diagnosis["reason"] == "deadlock"
            assert rec.attempts == 1  # deterministic failure: never retried
            assert node.quarantined_total == 1
            info = job.to_dict(node.cells)
            (cell,) = info["cells"].values()
            assert cell["diagnosis"]["component"] == "vault3"

        _with_node(cfg, diagnosed_runner, body)

    def test_job_deadline_expires_queued_cells(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(node):
            node.submit([_spec(seed=1)])  # occupies the single worker
            out = node.submit([_spec(seed=2)], deadline_s=0.2)
            job = node.registry.jobs[out["job"]]
            await asyncio.wait_for(
                node._job_events[out["job"]].wait(), 30.0
            )
            assert job.status == "expired"

        _with_node(cfg, slow_runner, body)

    def test_finished_jobs_keep_no_event_and_leave_the_deadline_walk(
        self, tmp_path
    ):
        cfg = _cfg(tmp_path)

        async def body(node):
            for seed in range(1, 21):
                out = node.submit([_spec(seed=seed)], deadline_s=600.0)
                assert (await _wait_job(node, out["job"])).status == "done"
            assert node._job_events == {}
            now = time.monotonic()
            late = Job(job_id="late", cell_ids=["never-run"], lane=LANE_BULK,
                       submitted=now, deadline=now - 1.0)
            node.registry.add(late)
            assert node.registry.expire_due() == [late]
            assert late.status == "expired"
            assert node.registry._deadlined == {}  # the done jobs left it too

        _with_node(cfg, ok_runner, body)

    def test_enospc_terminal_record_retried_until_landed(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(node):
            with enospc_manifest(node.manifest, failures=10**6) as fired:
                out = node.submit([_spec(seed=1)])
                await _wait_job(node, out["job"])
                # the job completed for its client even with a full disk...
                assert len(node._unrecorded) == 1
                assert fired[0] > 0
                assert node.manifest.records() == {}
            # ...and the record lands once space returns (next tick flush)
            for _ in range(100):
                if node.manifest.records():
                    break
                await asyncio.sleep(0.1)
            (rec,) = node.manifest.records().values()
            assert rec.ok
            assert node._unrecorded == []

        _with_node(cfg, ok_runner, body)


# ----------------------------------------------------------------------
# Drain -> released claims -> resume
# ----------------------------------------------------------------------


def _released_claims(manifest_path):
    """The manifest's winning claims on cells it holds no record for, each
    already expired: what a drain hands back."""
    from repro.campaign.manifest import Manifest

    scan = Manifest(manifest_path).scan()
    open_claims = {
        cid: c for cid, c in scan.claims.items() if cid not in scan.records
    }
    assert all(c.lease < scan.clock for c in open_claims.values())
    return open_claims


class TestCheckpointResume:
    def test_drain_checkpoints_pending_and_resume_finishes(self, tmp_path):
        cfg = _cfg(tmp_path)
        specs = [_spec(seed=s) for s in (1, 2, 3)]

        async def first(node):
            node.submit(specs)
            await asyncio.sleep(0.2)  # one cell in flight, two queued
            node.begin_drain()
            await asyncio.wait_for(node.stopped.wait(), 30.0)

        _with_node(cfg, slow_runner, first)
        from repro.campaign.manifest import Manifest

        assert not list(tmp_path.glob("*.checkpoint.jsonl"))
        done_before = set(Manifest(cfg.manifest).records())
        released = _released_claims(cfg.manifest)
        assert set(released) == {
            cell_from_spec(s).cell_id for s in specs
        } - done_before
        assert released  # the drain really did leave work behind
        assert all(c.spec is not None for c in released.values())

        cfg2 = _cfg(tmp_path, resume=True, exit_when_complete=True)

        async def second(node):
            await asyncio.wait_for(node.stopped.wait(), 60.0)
            # resumed cells arrive through the steal path
            assert node.queue.stolen_total == len(released)

        _with_node(cfg2, ok_runner, second)
        assert _released_claims(cfg.manifest) == {}  # all settled
        records = Manifest(cfg.manifest).records()
        assert set(records) == {cell_from_spec(s).cell_id for s in specs}
        assert all(r.ok for r in records.values())

    def test_drain_hands_queued_cells_to_a_live_peer(self, tmp_path):
        """A peer already running on the shared manifest finishes what a
        draining node leaves queued, instead of taking the manifest for
        complete once the draining node's in-flight cell lands."""
        cfg_a = _cfg(tmp_path, worker_name="a")
        cfg_b = _cfg(tmp_path, worker_name="b", resume=True,
                     exit_when_complete=True)
        specs = [_spec(seed=s) for s in (1, 2, 3)]

        async def main():
            a = ServeScheduler(cfg_a, runner=slow_runner)
            b = ServeScheduler(cfg_b, runner=ok_runner)
            await a.start()
            try:
                a.submit(specs)
                await asyncio.sleep(0.2)  # one cell in flight, two queued
                await b.start()
                await asyncio.sleep(0.3)  # b is ticking on the manifest
                a.begin_drain()
                await asyncio.wait_for(a.stopped.wait(), 30.0)
                await asyncio.wait_for(b.stopped.wait(), 60.0)
                assert b.queue.stolen_total == 2
            finally:
                await a.aclose()
                await b.aclose()

        asyncio.run(main())
        from repro.campaign.manifest import Manifest

        records = Manifest(cfg_a.manifest).records()
        assert set(records) == {cell_from_spec(s).cell_id for s in specs}
        assert all(r.ok for r in records.values())
        assert _released_claims(cfg_a.manifest) == {}

    def test_resumed_cell_in_the_result_log_is_not_rerun(
        self, tmp_path, monkeypatch
    ):
        from repro.campaign.manifest import Manifest

        log = tmp_path / "results.jsonl"
        monkeypatch.setenv("REPRO_CACHE", str(log))
        spec = _spec(seed=1)
        cid = cell_from_spec(spec).cell_id

        async def warm(node):
            out = node.submit([spec])
            await _wait_job(node, out["job"])

        # the result log learns the cell from another manifest
        _with_node(ServeConfig(manifest=str(tmp_path / "other.jsonl"), jobs=1,
                               telemetry=False, tick_interval=0.1),
                   full_runner, warm)
        cfg = _cfg(tmp_path)

        async def first(node):
            node.queue.seed([(cid, spec)])  # as a drain leaves it

        _with_node(cfg, full_runner, first)
        cfg2 = _cfg(tmp_path, use_cache=True, resume=True,
                    exit_when_complete=True)

        async def second(node):
            await asyncio.wait_for(node.stopped.wait(), 30.0)
            assert node.completed_cells == 0

        _with_node(cfg2, full_runner, second)
        (rec,) = Manifest(cfg.manifest).records().values()
        assert rec.cell_id == cid and rec.cached

    def test_resume_skips_already_terminal_cells(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def first(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"])

        _with_node(cfg, ok_runner, first)

        cfg2 = _cfg(tmp_path, resume=True)

        async def second(node):
            out = node.submit([_spec(seed=1)])
            job = node.registry.jobs[out["job"]]
            assert job.status == "done"  # satisfied from the manifest
            assert node.completed_cells == 0  # nothing re-executed
            (state,) = node.cells.values()
            assert state.record is not None and state.record.ok

        _with_node(cfg2, ok_runner, second)

    def test_resume_reruns_an_errored_cell_and_records_it(self, tmp_path):
        cfg = _cfg(tmp_path, retries=0)

        async def first(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"])

        _with_node(cfg, flaky_runner, first)
        from repro.campaign.manifest import Manifest

        (rec,) = Manifest(cfg.manifest).records().values()
        assert rec.status == "error" and rec.diagnosis is None

        cfg2 = _cfg(tmp_path, resume=True)

        async def second(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"])
            assert node.completed_cells == 1  # undiagnosed: re-executed

        _with_node(cfg2, ok_runner, second)
        (rec,) = Manifest(cfg.manifest).records().values()
        assert rec.ok

    def test_result_log_serves_a_later_node(self, tmp_path, monkeypatch):
        from repro.campaign.manifest import Manifest

        log = tmp_path / "results.jsonl"
        monkeypatch.setenv("REPRO_CACHE", str(log))
        cfg = _cfg(tmp_path, use_cache=True)

        async def first(node):
            out = node.submit([_spec(seed=1)])
            await _wait_job(node, out["job"])
            assert node.completed_cells == 1

        async def second(node):
            out = node.submit([_spec(seed=1)])
            job = node.registry.jobs[out["job"]]
            assert job.status == "done"  # served from the result log
            assert node.completed_cells == 0
            (state,) = node.cells.values()
            assert state.record.cached and state.record.attempts == 0

        _with_node(cfg, full_runner, first)
        _with_node(cfg, full_runner, second)  # fresh manifest, no resume
        lines = [json.loads(line) for line in Path(log).read_text().splitlines()]
        assert [r.get("kind") for r in lines] == ["header", None]
        assert set(Manifest(log).records()) == {
            cell_from_spec(_spec(seed=1)).cell_id
        }


# ----------------------------------------------------------------------
# Admission latency window (LatencyTracker)
# ----------------------------------------------------------------------


class TestLatencyTracker:
    def test_window_slides_instead_of_silently_dropping(self):
        # regression: observe() used to drop every sample past the first
        # 10k, freezing the p99 on warm-up traffic forever
        tracker = LatencyTracker(max_samples=100)
        for _ in range(100):
            tracker.observe(0.001)
        for _ in range(100):
            tracker.observe(1.0)
        assert len(tracker.samples) == 100  # bounded, but still absorbing
        assert tracker.quantile(0.5) == 1.0  # reflects *recent* traffic
        assert tracker.quantile(0.99) == 1.0

    def test_quantiles_use_nearest_rank(self):
        tracker = LatencyTracker()
        tracker.observe(2.0)
        tracker.observe(1.0)
        assert tracker.quantile(0.0) == 1.0
        assert tracker.quantile(0.5) == 1.0  # rank 1 of 2, not the max
        assert tracker.quantile(1.0) == 2.0
        assert LatencyTracker().quantile(0.99) is None


# ----------------------------------------------------------------------
# Causal tracing through the service path
# ----------------------------------------------------------------------


class TestTracing:
    def test_submit_mints_trace_and_attributes_critical_path(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(client.submit, cells=[_spec(seed=1)])
            assert len(out["trace"]) == 32
            info = await _call(client.wait, out["job"], 30.0)
            assert info["trace"] == out["trace"]
            (cell,) = info["cells"].values()
            assert {"queue", "execute", "merge"} <= set(cell["stages"])
            assert sum(info["critical_path"].values()) == pytest.approx(
                1.0, abs=0.01
            )
            assert "%" in info["critical_path_text"]
            return out["trace"]

        trace = _with_service(cfg, ok_runner, body)
        spans = read_spans(cfg.manifest, trace_id=trace)
        assert {"admit", "queue", "claim", "execute", "merge"} <= {
            s.name for s in spans
        }
        # one submission, one trace: nothing leaked onto another id
        assert {s.trace_id for s in read_spans(cfg.manifest)} == {trace}

    def test_client_traceparent_header_honored(self, tmp_path):
        cfg = _cfg(tmp_path)
        trace = "4bf92f3577b34da6a3ce929d0e0e4736"

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(
                client.submit,
                [_spec(seed=1)],
                None,
                None,
                None,
                f"00-{trace}-00f067aa0ba902b7-01",
            )
            assert out["trace"] == trace
            await _call(client.wait, out["job"], 30.0)

        _with_service(cfg, ok_runner, body)
        assert {s.trace_id for s in read_spans(cfg.manifest)} == {trace}

    def test_spans_disabled_degrades_cleanly(self, tmp_path):
        cfg = _cfg(tmp_path, spans=False)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(client.submit, cells=[_spec(seed=1)])
            assert "trace" not in out
            info = await _call(client.wait, out["job"], 30.0)
            assert info["status"] == "done"
            assert "critical_path" not in info
            (cell,) = info["cells"].values()
            assert "stages" not in cell
            snap = await _call(client.snapshot)
            assert snap["serve"]["spans"] == {
                "enabled": False, "recorded": 0, "dropped": 0, "cells": 0,
            }

        _with_service(cfg, ok_runner, body)
        assert read_spans(cfg.manifest) == []

    def test_trace_survives_drain_checkpoint_resume(self, tmp_path):
        cfg = _cfg(tmp_path)
        trace = "feed" * 8

        async def first(node):
            node.submit([_spec(seed=s) for s in (1, 2, 3)], trace_id=trace)
            await asyncio.sleep(0.2)
            node.begin_drain()
            await asyncio.wait_for(node.stopped.wait(), 30.0)

        _with_node(cfg, slow_runner, first)
        released = _released_claims(cfg.manifest)
        assert released and all(c.trace == trace for c in released.values())

        cfg2 = _cfg(tmp_path, resume=True, exit_when_complete=True)

        async def second(node):
            await asyncio.wait_for(node.stopped.wait(), 60.0)

        _with_node(cfg2, ok_runner, second)
        # the resumed node's steal/execute/merge spans carry the original trace
        resumed = [
            s for s in read_spans(cfg.manifest, trace_id=trace)
            if s.name in ("execute", "merge")
        ]
        assert len(resumed) >= 2
        steals = [
            s for s in read_spans(cfg.manifest, trace_id=trace)
            if s.name == "steal"
        ]
        assert {s.cell_id for s in steals} == set(released)


# ----------------------------------------------------------------------
# Report + dashboard streaming (real simulations)
# ----------------------------------------------------------------------


class TestReportEndpoints:
    def test_job_report_and_dash_streamed(self, tmp_path):
        from repro.campaign.executor import execute_cell

        cfg = _cfg(
            tmp_path, use_cache=False, report_dir=str(tmp_path / "reports")
        )

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(client.submit, cells=[_spec(refs=60, seed=1)])
            info = await _call(client.wait, out["job"], 60.0)
            assert info["status"] == "done"
            payload = await _call(client.job_report, out["job"])
            assert payload["job"] == out["job"]
            (report,) = payload["reports"].values()
            assert report["workload"] == "HM1"
            html = await _call(client.job_dash, out["job"])
            assert "<html" in html.lower() and out["job"] in html
            # unknown job ids still 404 on the suffixed routes
            status, _ = await _call(
                client._request, "GET", "/jobs/j999/report"
            )
            assert status == 404

        _with_service(cfg, execute_cell, body)
        reports = list((tmp_path / "reports").glob("*.json"))
        assert len(reports) == 1

    def test_report_endpoint_without_report_dir(self, tmp_path):
        cfg = _cfg(tmp_path)

        async def body(service):
            client = ServeClient("127.0.0.1", service.port)
            out = await _call(client.submit, cells=[_spec(seed=1)])
            await _call(client.wait, out["job"], 30.0)
            payload = await _call(client.job_report, out["job"])
            assert payload["reports"] == {}  # degrades, not 500s

        _with_service(cfg, ok_runner, body)


# ----------------------------------------------------------------------
# Prometheus histogram exposition
# ----------------------------------------------------------------------


class TestPromHistograms:
    def _snapshot(self):
        adm = AdmissionController(jobs=2)
        for age in (0.002, 0.04, 0.04, 1.7):
            adm.observe_queue_age(LANE_QUICK, age)
        adm.observe_cell_seconds(0.3, lane=LANE_QUICK)
        return {
            "campaign": {},
            "manifest": {},
            "workers": [],
            "serve": {"admission": adm.snapshot(), "pending": {}, "jobs": {}},
        }

    def test_render_and_parse_round_trip(self):
        text = render_metrics(self._snapshot())
        families = parse_exposition(text)
        fam = families["repro_serve_queue_age_seconds"]
        assert fam["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for labels, value in fam["series"]["_bucket"]
            if labels.get("lane") == "quick"
        ]
        assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 4.0
        values = [v for _, v in buckets]
        assert values == sorted(values)  # cumulative
        (sum_sample,) = [
            v for labels, v in fam["series"]["_sum"]
            if labels.get("lane") == "quick"
        ]
        assert sum_sample == pytest.approx(1.782)
        assert "repro_serve_service_time_seconds" in families
        retry = families["repro_serve_retry_after_seconds"]
        assert {labels["lane"] for labels, _ in retry["samples"]} == {
            "quick", "bulk",
        }

    def _base(self):
        return (
            "# TYPE x_seconds histogram\n"
        )

    def test_parser_rejects_non_cumulative_buckets(self):
        text = (
            self._base()
            + 'x_seconds_bucket{le="0.1"} 5\n'
            + 'x_seconds_bucket{le="+Inf"} 3\n'
            + "x_seconds_sum 1\nx_seconds_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            parse_exposition(text)

    def test_parser_requires_inf_bucket(self):
        text = (
            self._base()
            + 'x_seconds_bucket{le="0.1"} 5\n'
            + "x_seconds_sum 1\nx_seconds_count 5\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_exposition(text)

    def test_parser_requires_count_matching_inf(self):
        text = (
            self._base()
            + 'x_seconds_bucket{le="+Inf"} 5\n'
            + "x_seconds_sum 1\nx_seconds_count 4\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_exposition(text)

    def test_parser_requires_sum(self):
        text = (
            self._base()
            + 'x_seconds_bucket{le="+Inf"} 5\n'
            + "x_seconds_count 5\n"
        )
        with pytest.raises(ValueError, match="_sum"):
            parse_exposition(text)

    def test_parser_requires_le_label(self):
        text = self._base() + "x_seconds_bucket 5\n"
        with pytest.raises(ValueError, match="le"):
            parse_exposition(text)

    def test_suffixes_only_bind_to_declared_histograms(self):
        # a _bucket sample with no histogram TYPE is an undeclared sample
        with pytest.raises(ValueError, match="before TYPE"):
            parse_exposition('y_seconds_bucket{le="+Inf"} 1\n')
