"""Link fault injection: config, injector, retry buffer, link integration,
and the acceptance guarantees (zero-fault parity, seeded determinism)."""

import dataclasses

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.faults import (
    ERROR_CRC,
    ERROR_DROP,
    LinkFaultConfig,
    LinkFaultInjector,
    RetryBuffer,
    derive_seed,
)
from repro.hmc.config import HMCConfig
from repro.interconnect.link import LinkDirection, SerialLink
from repro.system import run_system
from repro.workloads.mixes import mix as make_mix


class ScriptedInjector:
    """Deterministic injector stand-in: plays back a fixed outcome list."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def packet_error(self, nbytes):
        return self.outcomes.pop(0) if self.outcomes else None


class TestLinkFaultConfig:
    def test_defaults_disabled(self):
        cfg = LinkFaultConfig()
        assert not cfg.enabled

    def test_enabled_with_ber_or_drop(self):
        assert LinkFaultConfig(ber=1e-9).enabled
        assert LinkFaultConfig(drop_prob=0.1).enabled

    @pytest.mark.parametrize("kwargs", [
        {"ber": -0.1}, {"ber": 1.0}, {"drop_prob": -0.1}, {"drop_prob": 1.5},
        {"max_retries": 0}, {"retry_latency": -1}, {"retrain_latency": -1},
        {"retry_buffer_flits": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkFaultConfig(**kwargs)


class TestInjector:
    def test_derive_seed_deterministic_and_distinct(self):
        a = derive_seed(1, 0, "req")
        assert a == derive_seed(1, 0, "req")
        assert a != derive_seed(1, 0, "resp")
        assert a != derive_seed(1, 1, "req")
        assert a != derive_seed(2, 0, "req")

    def test_healthy_config_never_errors(self):
        inj = LinkFaultInjector(LinkFaultConfig(), 0, "req")
        assert all(inj.packet_error(64) is None for _ in range(1000))

    def test_high_drop_prob_drops(self):
        inj = LinkFaultInjector(LinkFaultConfig(drop_prob=0.99), 0, "req")
        outcomes = [inj.packet_error(64) for _ in range(100)]
        assert outcomes.count(ERROR_DROP) > 90

    def test_high_ber_corrupts(self):
        # 1 - (1 - 1e-3)^(8*64) ~ 0.40 per packet
        inj = LinkFaultInjector(LinkFaultConfig(ber=1e-3), 0, "req")
        outcomes = [inj.packet_error(64) for _ in range(500)]
        assert outcomes.count(ERROR_CRC) > 100

    def test_same_seed_same_stream(self):
        cfg = LinkFaultConfig(ber=1e-4, drop_prob=0.01, seed=42)
        a = LinkFaultInjector(cfg, 2, "resp")
        b = LinkFaultInjector(cfg, 2, "resp")
        assert [a.packet_error(96) for _ in range(200)] == [
            b.packet_error(96) for _ in range(200)
        ]


class TestRetryBuffer:
    def _buf(self, outcomes, **cfg_kwargs):
        cfg = LinkFaultConfig(ber=1e-6, **cfg_kwargs)
        return RetryBuffer(cfg, ScriptedInjector(outcomes))

    def test_clean_packet_no_replays(self):
        buf = self._buf([None])
        assert buf.transmit(64, 4) == (0, False)
        assert buf.counters()["replays"] == 0

    def test_single_crc_one_replay(self):
        buf = self._buf([ERROR_CRC, None])
        assert buf.transmit(64, 4) == (1, False)
        assert buf.crc_errors == 1
        assert buf.replays == 1
        assert buf.replayed_flits == 4

    def test_drop_counted_separately(self):
        buf = self._buf([ERROR_DROP, None])
        buf.transmit(64, 4)
        assert buf.drops == 1 and buf.crc_errors == 0

    def test_retrain_after_max_retries(self):
        buf = self._buf([ERROR_CRC] * 10, max_retries=3)
        replays, retrained = buf.transmit(64, 4)
        assert replays == 3 and retrained
        assert buf.retrains == 1
        assert buf.max_episode_replays == 3

    def test_reset_counters(self):
        buf = self._buf([ERROR_CRC, None])
        buf.transmit(64, 4)
        buf.reset_counters()
        assert all(v == 0 for v in buf.counters().values())


class TestLinkDirectionRetry:
    def _direction(self, outcomes, **cfg_kwargs):
        cfg = LinkFaultConfig(ber=1e-6, **cfg_kwargs)
        d = LinkDirection("link0.req", bytes_per_cycle=16.0, serdes_latency=10,
                         flit_bytes=16)
        d.retry = RetryBuffer(cfg, ScriptedInjector(outcomes))
        return d

    def test_clean_send_matches_fault_free(self):
        plain = LinkDirection("link0.req", 16.0, 10, 16)
        faulty = self._direction([None])
        assert plain.send(0, 80) == faulty.send(0, 80)
        assert plain.busy_until == faulty.busy_until

    def test_replay_extends_occupancy_and_flits(self):
        d = self._direction([ERROR_CRC, None], retry_latency=24)
        arrival, flits = d.send(0, 80)  # ser = 5 cycles, 5 flits
        # one replay: 5 + (5 + 24) = 34 busy cycles, then +10 serdes
        assert d.busy_until == 34
        assert arrival == 44
        assert flits == 10  # replayed flits cross the wire again
        assert d.flits_sent == 10
        assert d.packets == 1

    def test_retrain_adds_penalty(self):
        d = self._direction([ERROR_CRC] * 5, max_retries=2,
                            retry_latency=24, retrain_latency=2000)
        d.send(0, 80)
        # 5 + 2*(5+24) + 2000
        assert d.busy_until == 5 + 58 + 2000

    def test_reset_statistics_zeroes_retry_counters(self):
        d = self._direction([ERROR_CRC, None])
        d.send(0, 80)
        d.reset_statistics()
        assert d.flits_sent == 0
        assert d.retry.replays == 0


class TestUtilizationClamp:
    """Regression: busy_cycles can extend past the measurement window, so
    raw utilization could exceed 1.0."""

    def test_serialization_past_window_clamps_to_one(self):
        d = LinkDirection("link0.req", bytes_per_cycle=1.0, serdes_latency=0,
                          flit_bytes=16)
        d.send(0, 1000)  # occupies cycles 0..1000
        assert d.utilization(10) == 1.0

    def test_zero_window(self):
        d = LinkDirection("link0.req", 1.0, 0, 16)
        assert d.utilization(0) == 0.0

    def test_partial_utilization_unchanged(self):
        d = LinkDirection("link0.req", 1.0, 0, 16)
        d.send(0, 50)
        assert d.utilization(100) == 0.5

    def test_retry_occupancy_also_clamped(self):
        cfg = LinkFaultConfig(ber=1e-6, retrain_latency=5000, max_retries=1)
        d = LinkDirection("link0.req", 16.0, 0, 16)
        d.retry = RetryBuffer(cfg, ScriptedInjector(["crc"]))
        d.send(0, 64)
        assert d.utilization(10) == 1.0


class TestSerialLinkFaults:
    def test_attach_disabled_is_noop(self):
        link = SerialLink(0, 16.0, 10, 16)
        link.attach_faults(LinkFaultConfig())
        assert link.request.retry is None
        assert link.fault_counters() is None

    def test_ctor_enables_per_direction_streams(self):
        link = SerialLink(0, 16.0, 10, 16, LinkFaultConfig(ber=1e-6, seed=3))
        assert link.request.retry is not None
        assert link.response.retry is not None
        a = link.request.retry.injector
        b = link.response.retry.injector
        assert a.direction == "req" and b.direction == "resp"
        assert a._rng.getstate() != b._rng.getstate()

    def test_fault_counters_aggregate(self):
        link = SerialLink(0, 16.0, 10, 16)
        cfg = LinkFaultConfig(ber=1e-6)
        link.request.retry = RetryBuffer(cfg, ScriptedInjector(["crc", None]))
        link.response.retry = RetryBuffer(cfg, ScriptedInjector(["drop", None]))
        link.request.send(0, 64)
        link.response.send(0, 64)
        agg = link.fault_counters()
        assert agg["replays"] == 2
        assert agg["crc_errors"] == 1 and agg["drops"] == 1


class TestConfigPlumbing:
    def test_hmc_round_trip_with_faults(self):
        hmc = HMCConfig(faults=LinkFaultConfig(ber=1e-6, drop_prob=0.01, seed=9))
        rebuilt = HMCConfig.from_dict(hmc.to_dict())
        assert rebuilt.faults == hmc.faults
        assert isinstance(rebuilt.faults, LinkFaultConfig)

    def test_cache_key_unchanged_when_disabled(self):
        cfg = ExperimentConfig(refs_per_core=100, seed=1)
        key = cfg.cache_key("HM1", "base")
        assert "faults" not in key

    def test_cache_key_distinguishes_fault_configs(self):
        base = ExperimentConfig(refs_per_core=100, seed=1)
        faulty = dataclasses.replace(
            base, hmc=HMCConfig(faults=LinkFaultConfig(ber=1e-6))
        )
        faulty2 = dataclasses.replace(
            base, hmc=HMCConfig(faults=LinkFaultConfig(ber=1e-6, seed=5))
        )
        keys = {c.cache_key("HM1", "base") for c in (base, faulty, faulty2)}
        assert len(keys) == 3

    def test_integrity_flag_does_not_change_cache_key(self):
        a = ExperimentConfig(refs_per_core=100, seed=1)
        b = dataclasses.replace(a, integrity=True)
        assert a.cache_key("HM1", "base") == b.cache_key("HM1", "base")


class TestSystemLevel:
    def _traces(self):
        return make_mix("HM1", 300, seed=1)

    def test_zero_fault_config_byte_identical(self):
        r0 = run_system(self._traces(), scheme="base", workload="HM1")
        r1 = run_system(self._traces(), scheme="base", workload="HM1",
                        hmc=HMCConfig(faults=LinkFaultConfig()))
        assert r0.cycles == r1.cycles
        assert r0.core_ipc == r1.core_ipc
        assert r0.energy_pj == r1.energy_pj
        assert r0.link_utilization == r1.link_utilization
        assert "link_faults" not in r1.extra

    def test_fixed_seed_identical_retry_counts_and_results(self):
        hmc = HMCConfig(faults=LinkFaultConfig(ber=2e-5, seed=7))
        a = run_system(self._traces(), scheme="base", workload="HM1", hmc=hmc)
        b = run_system(self._traces(), scheme="base", workload="HM1", hmc=hmc)
        assert a.extra["link_faults"] == b.extra["link_faults"]
        assert a.extra["link_faults"]["replays"] > 0
        assert a.cycles == b.cycles
        assert a.core_ipc == b.core_ipc
        assert a.energy_pj == b.energy_pj

    def test_faults_cost_cycles_and_energy(self):
        clean = run_system(self._traces(), scheme="base", workload="HM1")
        hmc = HMCConfig(faults=LinkFaultConfig(ber=5e-5, seed=7))
        faulty = run_system(self._traces(), scheme="base", workload="HM1", hmc=hmc)
        assert faulty.extra["link_faults"]["replays"] > 0
        assert faulty.cycles >= clean.cycles
        # replayed flits are charged by the energy model
        assert faulty.energy_breakdown["link"] > clean.energy_breakdown["link"]

    def test_different_fault_seed_different_episodes(self):
        r = [
            run_system(self._traces(), scheme="base", workload="HM1",
                       hmc=HMCConfig(faults=LinkFaultConfig(ber=2e-5, seed=s)))
            for s in (1, 2)
        ]
        assert r[0].extra["link_faults"] != r[1].extra["link_faults"]

    def test_tracer_records_retry_events(self):
        from repro.obs import Tracer
        from repro.system import System, SystemConfig

        hmc = HMCConfig(faults=LinkFaultConfig(ber=5e-5, seed=7))
        tracer = Tracer()
        System(self._traces(), SystemConfig(hmc=hmc, scheme="base"),
               workload="HM1", tracer=tracer).run()
        counts = tracer.event_counts()
        assert counts.get("link.retry", 0) > 0
        snap = tracer.counters.snapshot()
        link0 = snap["host"]["link0"]
        assert "req_replays" in link0 and "req_retrains" in link0


class TestDigestParity:
    """Acceptance gate: with faults disabled and integrity off, the grid's
    ResultMatrix must stay byte-identical to the pre-fault-injection tree.
    The digest below was pinned before the faults/integrity plumbing landed;
    any drift means the disabled path is no longer free."""

    PINNED = "e041b6721f31e396091e03c0742377f93922b5fe2814c9550da5df1da0591691"

    def test_small_grid_matrix_digest_unchanged(self, tmp_path):
        from repro.campaign import Manifest, matrix_digest
        from repro.experiments.runner import run_matrix

        cfg = ExperimentConfig(refs_per_core=500, seed=1)
        matrix = run_matrix(
            ["HM1", "LM1"],
            ["base", "camps-mod"],
            cfg,
            cache=Manifest(tmp_path / "cache.jsonl"),
        )
        assert matrix_digest(matrix) == self.PINNED
