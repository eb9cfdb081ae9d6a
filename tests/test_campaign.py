"""Unit tests for the parallel campaign subsystem (repro.campaign).

The executor tests drive run_campaign with fault-injecting fake cell
runners (module-level so worker processes can resolve them); the
determinism tests use the real simulator at tiny scale and compare the
in-process and pooled paths byte-for-byte via matrix_digest.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignError,
    CampaignOptions,
    Cell,
    Manifest,
    grid_cells,
    matrix_digest,
    resolved_record,
    run_campaign,
    summarize,
)
from repro.campaign.manifest import MANIFEST_VERSION, STATUS_OK, CellRecord
from repro.experiments.runner import (
    _CACHED_FIELDS,
    ExperimentConfig,
    default_cache,
    run_matrix,
)
from repro.hmc.config import HMCConfig
from repro.obs.telemetry import campaign_status

TINY = ExperimentConfig(refs_per_core=150, seed=1)


# ----------------------------------------------------------------------
# Fault-injecting fake runners (module-level: picklable for workers)
# ----------------------------------------------------------------------


def _summary(cell, cycles=1000):
    return {
        "scheme": cell.scheme,
        "workload": cell.workload,
        "cycles": cycles,
        "core_ipc": [1.0, 0.5],
        "core_instructions": [100, 100],
        "conflict_rate": 0.1,
        "row_conflicts": 5,
        "demand_accesses": 50,
        "buffer_hits": 10,
        "prefetches_issued": 20,
        "row_accuracy": 0.5,
        "line_accuracy": 0.25,
        "mean_memory_latency": 100.0,
        "mean_read_latency": 90.0,
        "energy_pj": 1e6,
        "energy_breakdown": {"activate": 1.0},
        "link_utilization": 0.2,
    }


def ok_runner(cell, attempt):
    return _summary(cell)


def flaky_runner(cell, attempt):
    if attempt == 1:
        raise RuntimeError("transient glitch")
    return _summary(cell)


def always_fail_runner(cell, attempt):
    raise RuntimeError("boom")


def fail_hm1_runner(cell, attempt):
    if cell.workload == "HM1":
        raise RuntimeError("hm1 breaks")
    return _summary(cell)


def hang_hm1_runner(cell, attempt):
    if cell.workload == "HM1":
        time.sleep(60)
    return _summary(cell)


def crash_hm1_runner(cell, attempt):
    if cell.workload == "HM1":
        os._exit(13)
    return _summary(cell)


def ok_record(cell, summary=None):
    """An executed ok record, as run_campaign appends it to the result log."""
    return CellRecord(
        cell_id=cell.cell_id, workload=cell.workload, scheme=cell.scheme,
        status=STATUS_OK, attempts=1, elapsed=1.0,
        summary=_summary(cell) if summary is None else summary,
    )


# ----------------------------------------------------------------------
# Cell spec
# ----------------------------------------------------------------------


class TestCell:
    def test_cell_id_deterministic_and_prefixed(self):
        c = Cell("HM1", "base", TINY)
        assert c.cell_id == Cell("HM1", "base", TINY).cell_id
        assert c.cell_id.startswith(TINY.cache_key("HM1", "base"))

    def test_cell_id_covers_fields_outside_cache_key(self):
        # `links` is not part of ExperimentConfig.cache_key; the cell id
        # must still distinguish configs that differ only there.
        cfg_a = ExperimentConfig(refs_per_core=150, seed=1, hmc=HMCConfig(links=4))
        cfg_b = ExperimentConfig(refs_per_core=150, seed=1, hmc=HMCConfig(links=2))
        assert cfg_a.cache_key("HM1", "base") == cfg_b.cache_key("HM1", "base")
        assert Cell("HM1", "base", cfg_a).cell_id != Cell("HM1", "base", cfg_b).cell_id

    def test_cell_id_covers_scheme_kwargs_and_trace_config(self):
        plain = Cell("HM1", "camps-mod", TINY)
        kw = Cell("HM1", "camps-mod", TINY, scheme_kwargs={"params": None})
        tc = Cell("HM1", "camps-mod", TINY, trace_config=HMCConfig(vaults=16))
        assert len({plain.cell_id, kw.cell_id, tc.cell_id}) == 3

    def test_grid_cells_workload_major_order(self):
        cells = grid_cells(["HM1", "LM1"], ["base", "mmd"], TINY)
        assert [(c.workload, c.scheme) for c in cells] == [
            ("HM1", "base"), ("HM1", "mmd"), ("LM1", "base"), ("LM1", "mmd"),
        ]


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


class TestManifest:
    def test_round_trip(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(cells, manifest=man, runner=ok_runner)
        recs = man.records()
        assert set(recs) == {c.cell_id for c in cells}
        assert all(r.ok and r.summary["cycles"] == 1000 for r in recs.values())
        assert res.stats["executed"] == 2

    def test_exactly_one_record_per_cell(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1"], ["base", "mmd"], TINY)
        run_campaign(cells, CampaignOptions(jobs=2), manifest=man, runner=ok_runner)
        lines = [json.loads(l) for l in man.path.read_text().splitlines()]
        assert lines[0] == {"kind": "header", "version": MANIFEST_VERSION,
                            "cells": 4, "jobs": 2,
                            "cell_ids": [c.cell_id for c in cells]}
        ids = [l["cell_id"] for l in lines[1:]]
        assert sorted(ids) == sorted(c.cell_id for c in cells)

    def test_fresh_campaign_resets_stale_manifest(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1"], ["base"], TINY)
        run_campaign(cells, manifest=man, runner=ok_runner)
        run_campaign(cells, manifest=man, runner=ok_runner)  # no resume
        ids = [
            json.loads(l)["cell_id"]
            for l in man.path.read_text().splitlines()
            if json.loads(l).get("kind") != "header"
        ]
        assert len(ids) == 1  # rewritten, not appended twice

    def test_version_mismatch_invalidates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n'
                        '{"cell_id": "x", "workload": "HM1", "scheme": "base",'
                        ' "status": "ok", "attempts": 1, "elapsed": 1.0}\n')
        assert Manifest(path).records() == {}

    def test_headerless_file_invalidates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"cell_id": "x", "workload": "HM1", "scheme": "base",'
                        ' "status": "ok", "attempts": 1, "elapsed": 1.0}\n')
        assert Manifest(path).records() == {}


# ----------------------------------------------------------------------
# Executor: failure isolation, retry, timeout, resume
# ----------------------------------------------------------------------


class TestExecutor:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_recovers_transient_failure(self, jobs):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, retries=1, backoff=0.01),
            runner=flaky_runner,
        )
        assert res.stats["failed"] == 0
        assert res.stats["retried"] == 2
        assert all(r.attempts == 2 for r in res.records.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_record_error(self, jobs):
        cells = grid_cells(["HM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, retries=1, backoff=0.01),
            runner=always_fail_runner,
        )
        rec = res.records[cells[0].cell_id]
        assert rec.status == "error" and rec.attempts == 2
        assert "boom" in rec.error
        with pytest.raises(CampaignError):
            res.raise_on_failure()

    def test_one_bad_cell_does_not_kill_campaign(self):
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2), runner=fail_hm1_runner)
        assert res.stats["ok"] == 2 and res.stats["failed"] == 1
        assert [r.workload for r in res.failures] == ["HM1"]

    def test_timeout_recorded_and_others_finish(self):
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=2, timeout=0.5),
            runner=hang_hm1_runner,
        )
        rec = res.records[cells[0].cell_id]
        assert rec.status == "timeout"
        assert "exceeded" in rec.error
        assert res.stats["ok"] == 2

    def test_worker_crash_isolated(self):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2), runner=crash_hm1_runner)
        hm1, lm1 = cells
        assert res.records[hm1.cell_id].status == "error"
        assert "died" in res.records[hm1.cell_id].error
        assert res.records[lm1.cell_id].ok

    def test_resume_reexecutes_only_unfinished_cells(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        first = run_campaign(cells, CampaignOptions(jobs=2), manifest=man,
                             runner=fail_hm1_runner)
        assert first.stats["failed"] == 1
        second = run_campaign(cells, CampaignOptions(jobs=2, resume=True),
                              manifest=man, runner=ok_runner)
        assert second.stats == {
            "total": 3, "ok": 3, "failed": 0, "executed": 1,
            "cached": 0, "resumed": 2, "retried": 0,
        }
        # the manifest now records the re-run cell as ok (last record wins)
        assert all(r.ok for r in man.records().values())

    def test_resumed_header_states_the_current_grid(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        run_campaign(cells, CampaignOptions(jobs=2), manifest=man,
                     runner=ok_runner)
        run_campaign(cells[:1], CampaignOptions(jobs=1, resume=True),
                     manifest=man, runner=ok_runner)
        header = man.header()
        assert header["cell_ids"] == [cells[0].cell_id]
        assert (header["cells"], header["jobs"]) == (1, 1)
        assert header == {"kind": "header", **man.scan().meta}

    def test_duplicate_cells_deduplicated(self):
        cells = grid_cells(["HM1"], ["base"], TINY) * 3
        res = run_campaign(cells, runner=ok_runner)
        assert res.stats["total"] == 1 and len(res.cells) == 1

    def test_cache_hits_skip_execution(self, tmp_path):
        log = Manifest(tmp_path / "c.jsonl")
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        log.append(ok_record(cells[0]))
        res = run_campaign(cells, cache=log, runner=ok_runner)
        assert res.stats["cached"] == 1 and res.stats["executed"] == 1
        hit = res.records[cells[0].cell_id]
        assert (hit.attempts, hit.elapsed, hit.cached) == (0, 0.0, True)
        # the executed result was appended to the log; the hit was not
        assert list(log.records()) == [cells[0].cell_id, cells[1].cell_id]
        assert len(Path(log.path).read_text().splitlines()) == 3  # header + two records

    def test_matrix_ordered_by_cell_id(self):
        cells = grid_cells(["MX1", "HM1"], ["mmd", "base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2), runner=ok_runner)
        matrix = res.matrix()
        ordered = sorted(c.cell_id for c in cells)
        got = [
            Cell(r.workload, r.scheme, TINY).cell_id
            for r in matrix.results.values()
        ]
        assert got == ordered

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            CampaignOptions(jobs=0)
        with pytest.raises(ValueError):
            CampaignOptions(retries=-1)
        with pytest.raises(ValueError):
            CampaignOptions(timeout=0)


# ----------------------------------------------------------------------
# Determinism: pooled execution must match the in-process (jobs=1) run exactly
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_parallel_matrix_identical_to_serial(self, tmp_path):
        serial = run_matrix(["LM4"], ["base", "camps-mod"], TINY,
                            cache=Manifest(tmp_path / "a.jsonl"))
        parallel = run_matrix(["LM4"], ["base", "camps-mod"], TINY,
                              cache=Manifest(tmp_path / "b.jsonl"), jobs=4)
        assert matrix_digest(serial) == matrix_digest(parallel)
        assert serial.workloads() == parallel.workloads()
        assert serial.schemes() == parallel.schemes()

    def test_spawn_start_method_supported(self, tmp_path):
        # Workers must be spawn-safe (fresh interpreter, pickled tasks).
        cells = grid_cells(["LM4"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=2, start_method="spawn"),
            cache=Manifest(tmp_path / "c.jsonl"),
        )
        res.raise_on_failure()
        assert summarize(res.result_for(cells[0].cell_id))["cycles"] > 0

    def test_forkserver_start_method_supported(self, tmp_path):
        # A forkserver worker's parent is the fork server, not the owner;
        # the worker must not take that for its owner's death.
        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("no forkserver start method here")
        cells = grid_cells(["LM4"], ["base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2, start_method="forkserver"))
        res.raise_on_failure()
        assert res.stats["ok"] == 1

    def test_run_seeded_jobs_matches_serial(self, tmp_path):
        from repro.experiments.seeds import run_seeded

        kwargs = dict(
            workloads=["LM4"], schemes=["base", "camps-mod"],
            base_config=TINY, seeds=(1, 2),
        )
        serial = run_seeded(cache=Manifest(tmp_path / "a.jsonl"), **kwargs)
        sharded = run_seeded(cache=Manifest(tmp_path / "b.jsonl"), jobs=2,
                             **kwargs)
        assert serial.per_workload == sharded.per_workload

    def test_sweep_jobs_matches_serial(self):
        from repro.experiments.sweep import Sweep

        kwargs = dict(refs_per_core=150, seed=1)
        serial = Sweep("pf_buffer_entries", [4, 8]).run("LM4", **kwargs)
        sharded = Sweep("pf_buffer_entries", [4, 8]).run("LM4", jobs=2, **kwargs)
        for a, b in zip(serial.points, sharded.points):
            assert a.result.cycles == b.result.cycles
            assert a.speedup_vs_base == pytest.approx(b.speedup_vs_base)


def fresh_traces_runner(cell, attempt):
    """execute_cell with the trace memo cleared first (no reuse)."""
    from repro.campaign import executor

    executor._last_traces = None
    return executor.execute_cell(cell, attempt)


class TestTraceMemo:
    """build_cell_system makes a mix's traces once for consecutive cells."""

    @pytest.fixture
    def mix_calls(self, monkeypatch):
        import repro.workloads.mixes as mixes
        from repro.campaign import executor

        monkeypatch.setattr(executor, "_last_traces", None)
        calls = []
        real = mixes.mix

        def counting_mix(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(mixes, "mix", counting_mix)
        return calls

    def test_one_mix_grid_makes_traces_once(self, mix_calls):
        cells = grid_cells(["LM4"], ["none", "base", "camps-mod"], TINY)
        shared = run_campaign(cells)
        assert mix_calls == ["LM4"]
        fresh = run_campaign(cells, runner=fresh_traces_runner)
        assert mix_calls == ["LM4"] * 4
        for cell in cells:
            a = json.dumps(shared.records[cell.cell_id].summary, sort_keys=True)
            b = json.dumps(fresh.records[cell.cell_id].summary, sort_keys=True)
            assert a == b

    def test_one_cube_and_fabric_cells_do_not_share(self, mix_calls):
        from repro.campaign import executor
        from repro.campaign.executor import build_cell_system

        one = Cell("HM1", "base", TINY)
        chain = Cell("HM1", "base", TINY, topology="chain:2")
        build_cell_system(one)
        one_traces = executor._last_traces[1]
        build_cell_system(chain)
        assert executor._last_traces[1] is not one_traces
        assert len(executor._last_traces[1]) != len(one_traces)
        build_cell_system(one)
        assert mix_calls == ["HM1", "HM1"]  # the chain:2 cell evicted it


# ----------------------------------------------------------------------
# The result log (REPRO_CACHE): concurrent writers, foreign files, misses
# ----------------------------------------------------------------------


def _log_hit(log, cell):
    """run_campaign's view of one cell: its cached record, or None."""
    return resolved_record(cell, {}, log.records())


class TestResultCache:
    def test_concurrent_writers_merge_not_clobber(self, tmp_path):
        import threading

        path = tmp_path / "c.jsonl"
        Manifest(path).reset()
        grids = [
            [Cell("HM1", "base", ExperimentConfig(100 + i, seed)) for i in range(10)]
            for seed in (1, 2)
        ]
        writers = [
            threading.Thread(
                target=run_campaign, args=(cells,),
                kwargs={"cache": Manifest(path), "runner": ok_runner},
            )
            for cells in grids
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        fresh = Manifest(path)
        assert all(_log_hit(fresh, c) is not None for g in grids for c in g)

    def test_legacy_flat_format_invalidated(self, tmp_path):
        # The JSON cache that predates the log (and, before it, a flat
        # {key: fields} dict) reads as empty, then is reset on first append.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema": 2, "fields": _CACHED_FIELDS,
            "entries": {"k": {f: 0 for f in _CACHED_FIELDS}},
        }))
        log, cell = Manifest(path), Cell("HM1", "base", TINY)
        assert log.records() == {} and _log_hit(log, cell) is None
        res = run_campaign([cell], cache=log, runner=ok_runner)
        assert res.stats["executed"] == 1
        assert log.header()["version"] == MANIFEST_VERSION
        assert _log_hit(log, cell) is not None

    def test_stale_field_list_invalidated(self, tmp_path):
        log, cell = Manifest(tmp_path / "c.jsonl"), Cell("HM1", "base", TINY)
        # written before a field was added
        stale = {f: 0 for f in _CACHED_FIELDS[:-1]}
        log.append(ok_record(cell, summary=stale))
        assert _log_hit(log, cell) is None
        log.append(ok_record(cell, summary={**_summary(cell), "extra": 1}))
        assert _log_hit(log, cell) is None

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff{not json")  # not JSON, not even UTF-8
        log, cell = Manifest(path), Cell("HM1", "base", TINY)
        assert _log_hit(log, cell) is None
        run_campaign([cell], cache=log, runner=ok_runner)
        assert _log_hit(Manifest(path), cell) is not None

    def test_malformed_entry_is_a_miss(self, tmp_path):
        log, cell = Manifest(tmp_path / "c.jsonl"), Cell("HM1", "base", TINY)
        log.append(ok_record(cell, summary={"cycles": 1}))  # torn entry
        assert _log_hit(log, cell) is None
        failed = ok_record(cell)
        failed.status = "error"
        log.append(failed)  # a failed cell is never a hit
        assert _log_hit(log, cell) is None

    def test_disabled_cache_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert default_cache() is None
        run_matrix(["HM1"], ["base"], TINY)
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_log_is_ignored(self, tmp_path):
        # appends are best effort: a log that cannot be written costs the
        # entry, not the campaign
        log = Manifest(tmp_path / "no-such-dir" / "c.jsonl")
        (tmp_path / "no-such-dir").write_text("a file, not a directory")
        res = run_campaign(grid_cells(["HM1"], ["base"], TINY), cache=log,
                           runner=ok_runner)
        assert res.stats["ok"] == 1

    def test_second_run_is_all_hits(self, tmp_path):
        log = Manifest(tmp_path / "c.jsonl")
        cells = grid_cells(["LM4"], ["base", "camps-mod"], TINY)
        first = run_campaign(cells, cache=log)
        second = run_campaign(cells, cache=log)
        assert second.stats["cached"] == len(cells)
        assert second.stats["executed"] == 0
        assert matrix_digest(second.matrix()) == matrix_digest(first.matrix())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign"])
        assert args.jobs >= 1 and args.retries == 0
        assert args.manifest == ".repro_campaign.jsonl"
        assert not args.resume

    def test_unknown_scheme_rejected(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "off")
        with pytest.raises(SystemExit):
            main(["campaign", "--schemes", "magic"])

    def test_campaign_command_end_to_end(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        manifest = tmp_path / "m.jsonl"
        argv = [
            "campaign", "--mixes", "LM4", "--schemes", "base,camps-mod",
            "--refs", "150", "--jobs", "2", "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2/2 ok" in out and "geomean IPC" in out
        # resume over a finished manifest simulates nothing
        assert main(argv + ["--resume", "--quiet"]) == 0
        assert "0 simulated" in capsys.readouterr().out


class TestProgressEta:
    """ETA estimation: executed cells only, effective-parallelism divisor."""

    @staticmethod
    def _eta(total, jobs, *records):
        return campaign_status(records, total, jobs)["eta_seconds"]

    @staticmethod
    def _rec(elapsed=2.0, cached=False):
        return CellRecord("c", "HM1", "base", STATUS_OK, 1, elapsed,
                          cached=cached)

    def test_no_estimate_until_one_cell_executed(self):
        assert self._eta(4, 2) is None
        # cache hits carry no signal
        assert self._eta(4, 2, self._rec(0.0, cached=True)) is None

    def test_mean_over_executed_cells(self):
        assert self._eta(10, 1, self._rec(2.0), self._rec(4.0)) == \
            pytest.approx(8 * 3.0)

    def test_cached_cells_excluded_from_rate(self):
        # 50 instant cache hits must not drag an honest 2 s/cell mean down
        hits = [self._rec(0.0, cached=True)] * 50
        eta = self._eta(100, 1, *hits, self._rec(2.0), self._rec(2.0))
        assert eta == pytest.approx((100 - 52) * 2.0)

    def test_cached_flag_honoured_regardless_of_source(self):
        # the record's cached flag, not its elapsed, keeps it out of the mean
        assert self._eta(4, 1, self._rec(9.0, cached=True)) is None
        eta = self._eta(4, 1, self._rec(9.0, cached=True), self._rec(3.0))
        assert eta == pytest.approx(2 * 3.0)

    def test_effective_parallelism_caps_divisor(self):
        # 8 workers with 3 cells left run at most 3 of them: dividing by 8
        # would promise a 3x-too-fast tail
        assert self._eta(4, 8, self._rec(6.0)) == pytest.approx(3 * 6.0 / 3)

    def test_full_pool_divides_by_jobs(self):
        assert self._eta(100, 4, self._rec(4.0)) == pytest.approx(99 * 4.0 / 4)

    def test_eta_zero_when_finished(self):
        assert self._eta(1, 2, self._rec(5.0)) == 0.0

    def test_status_is_json_ready(self):
        st = campaign_status([self._rec(1.0)], 2, 2)
        assert st["total"] == 2 and st["done"] == 1 and st["executed"] == 1
        assert st["eta_seconds"] == pytest.approx(1.0)
        json.dumps(st)  # served as-is at /snapshot
