"""Simulation integrity layer: watchdog, invariants, crash dumps, the
command-log timing checker, and the campaign's handling of diagnosed
failures (terminal, resumable, narrated)."""

import functools
import json
import math
import os
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignOptions,
    Cell,
    Manifest,
    run_campaign,
)
from repro.experiments.runner import ExperimentConfig
from repro.fabric import FabricConfig
from repro.hmc.config import HMCConfig
from repro.sim.engine import Engine
from repro.sim.integrity import (
    CRASH_DIR_ENV,
    DDR3_TCCD,
    DDR3_TWTR,
    ForwardProgressError,
    IntegrityConfig,
    IntegrityError,
    InvariantChecker,
    InvariantViolation,
    Watchdog,
    command_timing_violations,
    crash_report,
    write_crash_dump,
)
from repro.dram.commands import Command, CommandKind
from repro.system import System, SystemConfig, run_system
from repro.workloads.mixes import mix as make_mix
from repro.workloads.multistream import MultiStreamSpec, build_stream_traces


def _traces(refs=200, workload="HM1"):
    return make_mix(workload, refs, seed=1)


def _system(refs=200, integrity=True, crash_dump_dir=None, scheme="base"):
    return System(
        _traces(refs),
        SystemConfig(scheme=scheme, integrity=integrity, crash_dump_dir=crash_dump_dir),
        workload="HM1",
    )


class TestIntegrityConfig:
    @pytest.mark.parametrize("kwargs", [
        {"check_interval": 0}, {"stall_polls": 0}, {"last_events": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegrityConfig(**kwargs)


class TestWatchdog:
    def test_advancing_time_never_fires(self):
        wd = Watchdog(Engine(), IntegrityConfig(check_interval=1, stall_polls=2))
        for t in range(100):
            wd.poll(t)

    def test_wedge_raises_after_stall_polls(self):
        eng = Engine()
        wd = Watchdog(eng, IntegrityConfig(check_interval=1, stall_polls=3))
        wd.poll(5)
        wd.poll(5)
        wd.poll(5)
        with pytest.raises(ForwardProgressError) as exc_info:
            wd.poll(5)
        report = exc_info.value.report
        assert report["reason"] == "forward_progress_stall"
        assert report["now"] == 0  # diagnose reads the engine clock

    def test_progress_resets_stall_count(self):
        wd = Watchdog(Engine(), IntegrityConfig(check_interval=1, stall_polls=2))
        for _ in range(10):
            wd.poll(7)  # 1 stuck poll
            wd.poll(8)  # resets

    def test_diagnose_names_dominant_same_cycle_callback(self):
        eng = Engine()

        def spinner():
            pass

        def bystander():
            pass

        for _ in range(5):
            eng.schedule(0, spinner)
        eng.schedule(0, bystander)
        eng.schedule(10, spinner)  # future event: not part of the wedge
        cancelled = eng.schedule(0, spinner)
        eng.cancel(cancelled)
        diagnosis = Watchdog(eng).diagnose()
        assert "spinner" in diagnosis["stuck_component"]
        assert diagnosis["same_cycle_callbacks"][diagnosis["stuck_component"]] == 5

    def test_on_poll_hook_runs_each_poll(self):
        polled = []
        wd = Watchdog(Engine(), IntegrityConfig(check_interval=1))
        wd.on_poll = polled.append
        wd.poll(1)
        wd.poll(2)
        assert polled == [1, 2]


class TestInvariantChecker:
    def test_clean_system_has_no_violations(self):
        sys_ = _system(integrity=False)
        checker = InvariantChecker(sys_)
        assert checker.check_bounds() == []
        sys_.run()
        assert checker.check_bounds() == []
        assert checker.check_conservation() == []

    def test_overstuffed_read_queue_detected(self):
        sys_ = _system(integrity=False)
        vc = sys_.device.vaults[0]
        vc.queues.reads.extend(object() for _ in range(vc.queues.read_depth + 1))
        violations = InvariantChecker(sys_).check_bounds()
        assert any("read queue" in v for v in violations)

    def test_illegal_bank_state_detected(self):
        sys_ = _system(integrity=False)
        sys_.device.vaults[0].banks[0].acts += 1  # ACT without matching row
        violations = InvariantChecker(sys_).check_bounds()
        assert any("illegal state" in v for v in violations)

    def test_bank_legality_skippable(self):
        sys_ = _system(integrity=False)
        sys_.device.vaults[0].banks[0].acts += 1
        checker = InvariantChecker(sys_, check_bank_legality=False)
        assert checker.check_bounds() == []

    def test_unretired_requests_detected(self):
        sys_ = _system(integrity=False)
        sys_.host.stats.counters["reads_sent"].value += 3  # issued, never retired
        violations = InvariantChecker(sys_).check_conservation()
        assert any("never retired" in v for v in violations)


class TestCommandTiming:
    """The independent timing checker over ``record_commands`` logs."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _quick(scheme):
        # the hot-path quick config: MX1, 800 refs/core, seed 1
        system = System(make_mix("MX1", 800, seed=1),
                        SystemConfig(scheme=scheme, record_commands=True),
                        workload="MX1")
        system.run()
        return command_timing_violations(system)

    def test_counts_each_rule_on_a_scripted_log(self):
        t = HMCConfig().timings
        act, pre, wr = CommandKind.ACTIVATE, CommandKind.PRECHARGE, CommandKind.WRITE
        system = _system(integrity=False)  # built, not run: empty logs
        bank0, bank1 = system.device.vaults[0].banks[:2]
        bank0.command_log[:] = [
            Command(act, 0, 1, 0), Command(wr, 0, 1, t.trcd_cpu - 1),
            Command(pre, 0, 1, t.tras_cpu - 1), Command(act, 0, 2, t.tras_cpu)]
        bank1.command_log[:] = [Command(act, 1, 3, t.tras_cpu + 1)]
        assert command_timing_violations(system) == {
            "tRCD": 1, "tRP": 1, "tRAS": 1, "tWR": 1, "tRRD": 1, "tFAW": 0,
            "cmd_bus": 1, "tCCD": 0, "tWTR": 0}

    @staticmethod
    def _vault_rule(rule, *commands):
        """Count ``rule`` over one vault whose banks logged ``commands``
        (``(kind, bank, cycle)``; row 1)."""
        system = _system(integrity=False)  # built, not run: empty logs
        banks = system.device.vaults[0].banks
        for kind, bank, cycle in commands:
            banks[bank].command_log.append(Command(kind, bank, 1, cycle))
        return command_timing_violations(system)[rule]

    def test_one_command_per_dram_clock(self):
        act = CommandKind.ACTIVATE
        next_clock = math.ceil(HMCConfig().timings.ratio)  # in CPU cycles
        assert self._vault_rule("cmd_bus", (act, 0, 0), (act, 1, 1)) == 1
        assert self._vault_rule("cmd_bus", (act, 0, 0), (act, 1, next_clock)) == 0

    def test_tccd_between_column_commands(self):
        rd, wr = CommandKind.READ, CommandKind.WRITE
        tccd = math.ceil(DDR3_TCCD * HMCConfig().timings.ratio)
        assert self._vault_rule("tCCD", (rd, 0, 100), (wr, 1, 100 + tccd - 1)) == 1
        assert self._vault_rule("tCCD", (rd, 0, 100), (rd, 1, 100 + tccd)) == 0

    def test_twtr_from_write_data_end_to_read(self):
        rd, wr = CommandKind.READ, CommandKind.WRITE
        t = HMCConfig().timings
        twtr = math.ceil(DDR3_TWTR * t.ratio)
        data_end = 100 + t.tcl_cpu + t.tburst_cpu
        assert self._vault_rule("tWTR", (wr, 0, 100), (rd, 1, data_end + twtr - 1)) == 1
        assert self._vault_rule("tWTR", (wr, 0, 100), (rd, 1, data_end + twtr)) == 0
        # a READ before the WRITE is not after its data end
        assert self._vault_rule("tWTR", (rd, 1, 99), (wr, 0, 100)) == 0

    @pytest.mark.parametrize("scheme", ["none", "camps"])
    @pytest.mark.parametrize("rule", ["tRCD", "tRP", "tRAS", pytest.param(
        "tWR", marks=pytest.mark.xfail(strict=True, reason="only restore_row "
                                       "waits tWR before a precharge"))])
    def test_quick_config_obeys(self, rule, scheme):
        assert self._quick(scheme)[rule] == 0


class TestCrashDumps:
    def test_report_shape(self):
        sys_ = _system(integrity=False)
        sys_.run()
        report = crash_report(sys_, error=RuntimeError("boom"), violations=["v1"])
        assert report["kind"] == "repro.crash_dump"
        assert report["workload"] == "HM1" and report["scheme"] == "base"
        assert report["engine"]["events_fired"] > 0
        assert report["error"] == {"type": "RuntimeError", "message": "boom"}
        assert report["violations"] == ["v1"]
        assert len(report["vaults"]) == len(sys_.device.vaults)
        assert report["host"]["reads_sent"] > 0
        json.dumps(report)  # must be JSON-safe

    def test_write_dump_and_collision_suffix(self, tmp_path):
        report = {"workload": "HM1", "scheme": "base", "engine": {"now": 42}}
        first = write_crash_dump(report, str(tmp_path))
        second = write_crash_dump(report, str(tmp_path))
        assert first.endswith("crash_HM1_base_cycle42.json")
        assert second.endswith("crash_HM1_base_cycle42_1.json")
        assert json.loads((tmp_path / "crash_HM1_base_cycle42.json").read_text())

    def test_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_DIR_ENV, str(tmp_path / "dumps"))
        path = write_crash_dump({"workload": "w", "scheme": "s", "engine": {}})
        assert path.startswith(str(tmp_path / "dumps"))


class TestSystemIntegration:
    def test_clean_run_identical_with_and_without_integrity(self):
        off = run_system(_traces(), scheme="base", workload="HM1")
        on = run_system(_traces(), scheme="base", workload="HM1", integrity=True)
        assert on.cycles == off.cycles
        assert on.core_ipc == off.core_ipc
        assert on.energy_pj == off.energy_pj

    def test_livelock_raises_with_dump_naming_stuck_component(self, tmp_path):
        sys_ = _system(crash_dump_dir=str(tmp_path))

        def spin():
            sys_.engine.schedule(0, spin)

        sys_.engine.schedule(0, spin)
        with pytest.raises(ForwardProgressError) as exc_info:
            sys_.run()
        err = exc_info.value
        assert "spin" in str(err)
        assert err.report["reason"] == "forward_progress_stall"
        assert "spin" in err.report["stuck_component"]
        assert err.dump_path is not None
        dump = json.loads(Path(err.dump_path).read_text())
        assert dump["diagnosis"]["stuck_component"] == err.report["stuck_component"]
        assert dump["engine"]["now"] == 0

    def test_callback_exception_wrapped_with_dump(self, tmp_path):
        sys_ = _system(crash_dump_dir=str(tmp_path))

        def explode():
            raise ValueError("component blew up")

        sys_.engine.schedule(1, explode)
        with pytest.raises(IntegrityError) as exc_info:
            sys_.run()
        err = exc_info.value
        assert err.report["reason"] == "engine_exception"
        assert err.report["error_type"] == "ValueError"
        assert err.dump_path and json.loads(Path(err.dump_path).read_text())

    def test_runtime_invariant_violation_dumped(self, tmp_path):
        sys_ = _system(crash_dump_dir=str(tmp_path))
        # A stats-only corruption: the bank never did this ACT, so execution
        # proceeds normally but the legality check trips at the next poll
        # (or at check_final, whichever comes first).
        sys_.device.vaults[0].banks[0].acts += 1
        with pytest.raises(InvariantViolation) as exc_info:
            sys_.run()
        assert exc_info.value.report["reason"] == "invariant_violation"
        assert any("illegal state" in v for v in exc_info.value.report["violations"])
        assert exc_info.value.dump_path is not None

    def test_integrity_off_exception_passes_through_raw(self):
        sys_ = _system(integrity=False)

        def explode():
            raise ValueError("unmonitored")

        sys_.engine.schedule(1, explode)
        with pytest.raises(ValueError):
            sys_.run()


class TestFabricIntegration:
    def test_violation_in_cube1_raises(self, tmp_path):
        """The monitor walks every cube, not just cube 0."""
        fabric = FabricConfig.from_spec(
            "chain:2", hmc=HMCConfig(vaults=4, banks_per_vault=4)
        )
        streams = MultiStreamSpec.per_cube("HM1", fabric.cubes, 100, seed=1)
        sys_ = System(
            build_stream_traces(streams, fabric),
            SystemConfig(
                fabric=fabric,
                scheme="base",
                integrity=True,
                crash_dump_dir=str(tmp_path),
            ),
            workload="HM1",
        )
        sys_.devices[1].vaults[0].banks[0].acts += 1
        with pytest.raises(IntegrityError) as exc_info:
            sys_.run()
        err = exc_info.value
        assert isinstance(err, InvariantViolation)
        assert any(
            v.startswith("cube1.vault0.bank0: illegal state")
            for v in err.report["violations"]
        )
        dump = json.loads(Path(err.dump_path).read_text())
        assert {v["cube"] for v in dump["vaults"]} == {0, 1}


class TestReportModeCrashDump:
    def test_report_cell_violation_dump_has_every_section(
        self, tmp_path, monkeypatch
    ):
        """A report-mode cell runs untraced: its dump carries no trace tail
        but keeps every other section."""
        from repro.campaign import executor

        def corrupt(system):
            # executor hands the built system to telemetry before the run;
            # inject the stats-only bank corruption there
            if system is not None:
                system.device.vaults[0].banks[0].acts += 1

        monkeypatch.setattr(executor, "publish_system", corrupt)
        monkeypatch.setenv(CRASH_DIR_ENV, str(tmp_path / "dumps"))
        cell = Cell(
            workload="HM1",
            scheme="base",
            config=ExperimentConfig(refs_per_core=100, seed=1, integrity=True),
        )
        with pytest.raises(InvariantViolation) as exc_info:
            executor.execute_cell(cell, report_dir=str(tmp_path / "reports"))
        dump = json.loads(Path(exc_info.value.dump_path).read_text())
        assert set(dump) == {
            "kind", "version", "workload", "scheme", "engine", "error",
            "diagnosis", "violations", "host", "vaults",
        }
        assert any("illegal state" in v for v in dump["violations"])
        assert dump["engine"]["next_events"] is not None
        assert dump["host"]["reads_sent"] > 0 and dump["vaults"]


# ----------------------------------------------------------------------
# Campaign handling of diagnosed failures.  The wedge runner must live at
# module level so the jobs>=2 worker pool can pickle it.
# ----------------------------------------------------------------------


def _wedge_runner(cell, attempt=1):
    """Cell runner that injects a livelock into an integrity-monitored run."""
    from repro.campaign.executor import summarize

    cfg = cell.config
    traces = make_mix(cell.workload, cfg.refs_per_core, seed=cfg.seed)
    sys_ = System(
        traces,
        SystemConfig(hmc=cfg.hmc, scheme=cell.scheme, integrity=True),
        workload=cell.workload,
    )

    def spin():
        sys_.engine.schedule(0, spin)

    sys_.engine.schedule(0, spin)
    return summarize(sys_.run())


#: file the transient runner appends its attempt numbers to (an env var
#: reaches pool workers under every start method)
_CALLS_ENV = "REPRO_TEST_CALLS_FILE"


def _transient_runner(cell, attempt=1):
    """Cell runner that always fails without a diagnosis."""
    with open(os.environ[_CALLS_ENV], "a") as fh:
        fh.write(f"{attempt}\n")
    raise RuntimeError("transient")


class TestCampaignDiagnosis:
    def _cells(self):
        cfg = ExperimentConfig(refs_per_core=100, seed=1)
        return [Cell(workload="HM1", scheme="base", config=cfg)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diagnosed_failure_is_terminal_despite_retries(
        self, tmp_path, monkeypatch, jobs
    ):
        monkeypatch.setenv(CRASH_DIR_ENV, str(tmp_path / "dumps"))
        manifest = Manifest(tmp_path / "manifest.jsonl")
        result = run_campaign(
            self._cells(),
            CampaignOptions(jobs=jobs, retries=2),
            manifest=manifest,
            runner=_wedge_runner,
        )
        rec = next(iter(result.records.values()))
        assert not rec.ok
        assert rec.attempts == 1  # deterministic wedge: no retry burned
        assert rec.diagnosis["reason"] == "forward_progress_stall"
        assert "spin" in rec.diagnosis["stuck_component"]
        assert rec.diagnosis["crash_dump"].startswith(str(tmp_path / "dumps"))
        with pytest.raises(Exception) as exc_info:
            result.raise_on_failure()
        assert "diagnosed: forward_progress_stall" in str(exc_info.value)

    def test_diagnosis_round_trips_through_manifest_and_resume(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CRASH_DIR_ENV, str(tmp_path / "dumps"))
        path = tmp_path / "manifest.jsonl"
        run_campaign(
            self._cells(), CampaignOptions(), manifest=Manifest(path),
            runner=_wedge_runner,
        )
        reloaded = Manifest(path).records()
        rec = next(iter(reloaded.values()))
        assert rec.diagnosis["reason"] == "forward_progress_stall"
        # --resume must skip the diagnosed cell instead of re-wedging it
        resumed = run_campaign(
            self._cells(), CampaignOptions(resume=True),
            manifest=Manifest(path), runner=_wedge_runner,
        )
        assert resumed.stats["resumed"] == 1
        assert resumed.stats["executed"] == 0

    def test_pool_worker_ships_diagnosis(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_DIR_ENV, str(tmp_path / "dumps"))
        result = run_campaign(
            self._cells(),
            CampaignOptions(jobs=2, retries=1),
            manifest=Manifest(tmp_path / "manifest.jsonl"),
            runner=_wedge_runner,
        )
        rec = next(iter(result.records.values()))
        assert not rec.ok and rec.attempts == 1
        assert rec.diagnosis["reason"] == "forward_progress_stall"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_undiagnosed_failure_still_retries(self, tmp_path, monkeypatch, jobs):
        calls = tmp_path / "calls"
        monkeypatch.setenv(_CALLS_ENV, str(calls))
        result = run_campaign(
            self._cells(), CampaignOptions(jobs=jobs, retries=2, backoff=0.0),
            manifest=Manifest(tmp_path / "manifest.jsonl"),
            runner=_transient_runner,
        )
        rec = next(iter(result.records.values()))
        assert not rec.ok and rec.attempts == 3
        assert rec.diagnosis is None
        assert calls.read_text().split() == ["1", "2", "3"]
