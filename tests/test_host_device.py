"""Integration tests for the host controller + HMC device pair (a one-cube
:class:`FabricHost`)."""

import pytest

from repro.fabric import FabricConfig, FabricHost
from repro.hmc.address import AddressMapping
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.request import MemoryRequest
from repro.sim.engine import Engine


@pytest.fixture
def rig():
    cfg = HMCConfig(vaults=4, banks_per_vault=4)
    eng = Engine()
    dev = HMCDevice(cfg, eng, scheme="camps-mod")
    host = FabricHost(FabricConfig(hmc=cfg), eng, [dev])
    return cfg, eng, dev, host


def send(host, eng, addr, write=False, at=0):
    req = MemoryRequest(addr, write, issue_cycle=at)
    eng.call_at(max(at, eng.now), host.send, req)
    return req


class TestRoundTrip:
    def test_read_completes_with_decode(self, rig):
        cfg, eng, dev, host = rig
        m = AddressMapping(cfg)
        addr = m.encode(2, 1, 77, 5)
        req = send(host, eng, addr)
        eng.run()
        assert req.is_complete
        assert (req.vault, req.bank, req.row, req.column) == (2, 1, 77, 5)
        assert req.latency > 0

    def test_latency_includes_links_and_crossbar(self, rig):
        cfg, eng, dev, host = rig
        req = send(host, eng, 0)
        eng.run()
        floor = (
            2 * cfg.serdes_latency
            + 2 * cfg.crossbar_latency
            + cfg.timings.row_empty_read
        )
        assert req.latency >= floor

    def test_write_round_trip(self, rig):
        cfg, eng, dev, host = rig
        req = send(host, eng, 0, write=True)
        eng.run()
        assert req.is_complete
        assert host.stats.counter("writes_sent").value == 1

    def test_callback_invoked(self, rig):
        cfg, eng, dev, host = rig
        done = []
        req = MemoryRequest(0, False, callback=done.append)
        eng.schedule(0, host.send, req)
        eng.run()
        assert done == [req]

    def test_outstanding_tracks_in_flight(self, rig):
        cfg, eng, dev, host = rig
        send(host, eng, 0)
        assert host.outstanding == 0  # not sent yet
        eng.run(max_events=1)
        assert host.outstanding == 1
        eng.run()
        assert host.outstanding == 0

    def test_many_requests_complete(self, rig):
        cfg, eng, dev, host = rig
        m = AddressMapping(cfg)
        reqs = [
            send(host, eng, m.encode(i % 4, i % 4, i, i % 16), write=i % 3 == 0, at=i * 2)
            for i in range(100)
        ]
        eng.run()
        assert all(r.is_complete for r in reqs)
        assert host.stats.counter("completions").value == 100


class TestDeviceAggregation:
    def test_finalize_idempotent(self, rig):
        cfg, eng, dev, host = rig
        send(host, eng, 0)
        eng.run()
        dev.finalize()
        e1 = dev.energy.total_pj()
        dev.finalize()
        assert dev.energy.total_pj() == e1

    def test_energy_accumulates_all_sources(self, rig):
        cfg, eng, dev, host = rig
        send(host, eng, 0)
        eng.run()
        dev.finalize()
        assert dev.energy.acts >= 1
        assert dev.energy.link_flits >= 2  # request + response
        assert dev.energy.cycles == eng.now

    def test_stats_summary_keys(self, rig):
        cfg, eng, dev, host = rig
        send(host, eng, 0)
        eng.run()
        dev.finalize()
        s = dev.stats_summary()
        for key in (
            "demand_accesses",
            "conflict_rate",
            "row_accuracy",
            "energy_pj",
            "prefetches_issued",
        ):
            assert key in s

    def test_requires_host_attached(self):
        cfg = HMCConfig(vaults=4, banks_per_vault=4)
        eng = Engine()
        dev = HMCDevice(cfg, eng, scheme="none")
        req = MemoryRequest(0, False)
        req.vault, req.bank, req.row, req.column = 0, 0, 0, 0
        with pytest.raises(RuntimeError):
            dev._on_vault_response(req, 0)

    def test_per_vault_controllers_created(self, rig):
        cfg, eng, dev, host = rig
        assert len(dev.vaults) == cfg.vaults
        assert all(vc.prefetcher.name == "camps-mod" for vc in dev.vaults)


class TestLinkAssignment:
    def test_vault_interleaved_static_assignment(self, rig):
        cfg, eng, dev, host = rig
        m = AddressMapping(cfg)

        def link_for(vault):
            before = [link.request.packets for link in host.links]
            send(host, eng, m.encode(vault, 0, 0, 0))
            eng.run()
            after = [link.request.packets for link in host.links]
            (used,) = [l for l, a, b in zip(host.links, after, before) if a > b]
            return used

        assert link_for(0) is host.links[0]
        assert link_for(1) is host.links[1 % len(host.links)]

    def test_link_utilization_reported(self, rig):
        cfg, eng, dev, host = rig
        for i in range(20):
            send(host, eng, i * 64, at=i)
        eng.run()
        assert 0.0 < host.link_utilization() < 1.0

    def test_mean_latency_reported(self, rig):
        cfg, eng, dev, host = rig
        send(host, eng, 0)
        eng.run()
        assert host.mean_memory_latency() > 0
        assert host.mean_read_latency() > 0
