"""The ``Tracer(engine_spans=True)`` host-time split of an engine run.

The split charges each callback's host time to its owner subsystem and
times the prefetch engine's hooks as ``prefetcher``.  These tests hold its
two promises: it changes no result (the hot-path quick pin and the fabric
chain:2 pin reproduce with it on), and its buckets account for the engine's
whole wall time.
"""

import pytest

from repro.campaign import Cell, build_cell_system
from repro.experiments.runner import ExperimentConfig
from repro.obs import Tracer
from repro.obs.tracer import _subsystem, profile_run
from repro.sim.engine import Engine
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix as make_mix
from tests import pins


class TestResultsUnchanged:
    def test_hotpath_quick_pin_with_split_on(self):
        pin = pins.PINS["quick"]
        result, payload = profile_run(pins.build_system(pin["refs"]))
        assert pins.result_digest(result) == pin["digest"]
        assert payload["events_fired"] == pin["events_fired"] == 33495
        assert sum(row["events"] for name, row in payload["subsystems"].items()
                   if name != "prefetcher") == pin["events_fired"]

    def test_chain2_summary_with_split_on_equals_untraced(self):
        refs, digest = pins.FABRIC_PINS["chain:2"]
        plain = pins.build_fabric("chain:2", refs).run()
        traced, payload = profile_run(pins.build_fabric("chain:2", refs))
        assert traced.summary() == plain.summary()
        assert pins.result_digest(traced, 2) == digest
        assert {"vault", "core", "host"} <= set(payload["subsystems"])


def _cell_split(scheme: str):
    cfg = ExperimentConfig(refs_per_core=4000, seed=1)
    _result, payload = profile_run(build_cell_system(Cell("MX1", scheme, cfg)))
    return payload


class TestSplitCoversTheRun:
    def test_buckets_sum_to_engine_wall(self):
        payload = _cell_split("camps-mod")
        split = payload["subsystems"]
        wall = payload["wall_seconds"]
        assert sum(row["seconds"] for row in split.values()) == pytest.approx(
            wall, abs=1e-9)
        charged = wall - split["engine"]["seconds"]
        assert charged >= 0.85 * wall
        assert split["engine"]["seconds"] >= 0.0
        assert split["prefetcher"]["seconds"] > 0.0
        assert split["prefetcher"]["events"] > 0
        assert payload["events_fired"] == 166_854

    def test_no_prefetcher_bucket_without_prefetching(self):
        split = _cell_split("none")["subsystems"]
        assert split.get("prefetcher", {"seconds": 0.0})["seconds"] == 0.0
        assert {"vault", "core", "host", "engine"} <= set(split)


class TestAttribution:
    def test_subsystem_from_owner_module(self):
        from repro.cpu.core import Core
        from repro.fabric.host import FabricHost
        from repro.vault.controller import VaultController

        assert _subsystem(VaultController.receive) == "vault"
        assert _subsystem(Core._run) == "core"
        assert _subsystem(FabricHost._deliver) == "host"
        assert _subsystem(System.run) == "repro.system"
        assert _subsystem(_cell_split) == __name__

    def test_timed_wrappers_nest_and_leave_the_caller_its_own_time(self):
        tracer = Tracer(engine_spans=True)
        eng = Engine()
        eng.tracer = tracer
        inner = tracer.timed("inner", lambda: None)
        outer = tracer.timed("outer", lambda: inner())

        def callback():
            outer()

        eng.schedule(1, callback)
        eng.schedule(2, callback)
        eng.run()
        split = tracer.host_time()
        assert split["outer"]["events"] == split["inner"]["events"] == 2
        assert split[__name__]["events"] == 2
        assert "engine" not in split  # no system wired: the rest is unknown
        assert all(row["seconds"] >= 0 for row in split.values())

    def test_a_lone_callback_still_counts(self):
        tracer = Tracer(engine_spans=True)
        eng = Engine()
        eng.tracer = tracer
        eng.schedule(1, lambda: None)  # its time is never charged
        eng.run()
        assert tracer.host_time() == {__name__: {"seconds": 0.0, "events": 1}}

    def test_split_off_leaves_the_vault_untimed(self):
        system = pins.build_system(50)
        vc = system.device.vaults[0]
        decide = vc._done_ctx[1]
        vc.tracer = Tracer()
        assert vc._done_ctx[1] == decide
        assert "_execute_prefetch" not in vars(vc)
        vc.tracer = Tracer(engine_spans=True)
        assert vc._done_ctx[1] != decide
        assert "_execute_prefetch" in vars(vc)
        vc.tracer = None
        assert vc._done_ctx[1] == decide
        assert "_execute_prefetch" not in vars(vc)

    def test_summary_reports_the_split(self):
        tracer = Tracer(engine_spans=True)
        system = System(make_mix("MX1", 100, seed=1),
                        SystemConfig(scheme="camps"), tracer=tracer)
        result = system.run()
        host_time = result.extra["trace_summary"]["host_time"]
        assert sum(row["seconds"] for row in host_time.values()) == (
            pytest.approx(system.engine.wall_seconds, abs=1e-9))
        assert "host_time" not in Tracer().summary()
