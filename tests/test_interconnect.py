"""Unit tests for packets, serial links and the crossbar (driven through
``HMCDevice.inject``, its only user)."""

import pytest

from repro.fabric import FabricConfig, FabricHost
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.link import LinkDirection, SerialLink
from repro.interconnect.packet import Packet, PacketKind, packet_bytes
from repro.request import MemoryRequest
from repro.sim.engine import Engine


class TestPacket:
    def test_sizes(self):
        assert packet_bytes(PacketKind.READ_REQUEST, 64, 16) == 16
        assert packet_bytes(PacketKind.WRITE_REQUEST, 64, 16) == 80
        assert packet_bytes(PacketKind.READ_RESPONSE, 64, 16) == 80
        assert packet_bytes(PacketKind.WRITE_RESPONSE, 64, 16) == 16

    def test_flit_count(self):
        p = Packet(PacketKind.READ_RESPONSE, 1, 0, 80)
        assert p.flits(16) == 5
        assert Packet(PacketKind.READ_REQUEST, 1, 0, 16).flits(16) == 1
        assert Packet(PacketKind.READ_REQUEST, 1, 0, 17).flits(16) == 2

    def test_str(self):
        assert "rd_req" in str(Packet(PacketKind.READ_REQUEST, 9, 3, 16))


class TestLinkDirection:
    def test_serialization_time(self):
        d = LinkDirection("d", bytes_per_cycle=8.0, serdes_latency=10, flit_bytes=16)
        arrival, flits = d.send(0, 80)
        assert arrival == 10 + 10  # 80/8 cycles + serdes
        assert flits == 5

    def test_back_to_back_serializes(self):
        d = LinkDirection("d", 8.0, 0, 16)
        a1, _ = d.send(0, 80)
        a2, _ = d.send(0, 80)
        assert a2 == a1 + 10

    def test_idle_gap_no_penalty(self):
        d = LinkDirection("d", 8.0, 0, 16)
        d.send(0, 80)
        a, _ = d.send(100, 80)
        assert a == 110

    def test_minimum_one_cycle(self):
        d = LinkDirection("d", 100.0, 0, 16)
        a, _ = d.send(0, 1)
        assert a == 1

    def test_counters_and_utilization(self):
        d = LinkDirection("d", 8.0, 0, 16)
        d.send(0, 80)
        d.send(0, 16)
        assert d.packets == 2
        assert d.bytes_sent == 96
        assert d.flits_sent == 6
        assert d.busy_cycles == 10 + 2
        assert d.utilization(24) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkDirection("d", 0, 0, 16)
        with pytest.raises(ValueError):
            LinkDirection("d", 8, -1, 16)
        d = LinkDirection("d", 8, 0, 16)
        with pytest.raises(ValueError):
            d.send(0, 0)


class TestSerialLink:
    def test_directions_independent(self):
        l = SerialLink(0, 8.0, 0, 16)
        l.request.send(0, 80)
        a, _ = l.response.send(0, 80)
        assert a == 10  # no interference from the request direction

    def test_total_flits(self):
        l = SerialLink(0, 8.0, 0, 16)
        l.request.send(0, 16)
        l.response.send(0, 80)
        assert l.total_flits == 6

    def test_config_derived_bandwidth(self):
        cfg = HMCConfig()
        # Table I: 16 lanes x 12.5 Gbps at 3 GHz -> ~8.33 B/cycle
        assert cfg.link_bytes_per_cycle == pytest.approx(8.333, rel=1e-3)

    def test_reset_statistics_zeroes_traffic(self):
        l = SerialLink(0, 8.0, 0, 16)
        l.request.send(0, 80)
        l.response.send(0, 80)
        l.reset_statistics()
        assert l.total_flits == 0
        assert l.total_busy_cycles == 0
        assert l.request.packets == 0 and l.request.bytes_sent == 0

    def test_reset_statistics_zeroes_retry_counters(self):
        """Warmup-boundary regression: a reset must also clear the attached
        fault/retry counters, or replays folded into pre-warmup summaries
        get double-counted in the post-warmup ones."""
        from repro.faults import LinkFaultConfig

        l = SerialLink(0, 8.0, 0, 16, LinkFaultConfig(drop_prob=0.9, seed=7))
        for _ in range(50):
            l.request.send(0, 80)
        before = l.fault_counters()
        assert before["replays"] > 0
        l.reset_statistics()
        after = l.fault_counters()
        assert after["replays"] == 0
        assert after["crc_errors"] == 0
        assert after["drops"] == 0
        assert after["retrains"] == 0
        assert after["replayed_flits"] == 0
        # the injector RNG stream is simulation state, not a statistic:
        # traffic after the reset still draws the continuing error sequence
        for _ in range(50):
            l.request.send(0, 80)
        assert l.fault_counters()["replays"] > 0


def _inject(dev, eng, vault, at):
    """Send one request through ``HMCDevice.inject`` (the crossbar's only
    path) and return the cycle it reaches its vault controller."""
    req = MemoryRequest(0, False)
    req.vault = vault
    before = set(eng.live_events())
    dev.inject(req, at)
    (entry,) = set(eng.live_events()) - before
    assert entry[3] == dev.vaults[vault].receive and entry[4] == (req,)
    return entry[0]


@pytest.fixture
def cube():
    eng = Engine()
    return HMCDevice(HMCConfig(vaults=4, crossbar_latency=4), eng), eng


class TestCrossbar:
    def test_fixed_latency(self, cube):
        dev, eng = cube
        assert _inject(dev, eng, 2, 10) == 14
        assert dev.crossbar.traversals == 1

    def test_port_occupancy(self, cube):
        dev, eng = cube
        dev.crossbar.port_cycle = 2
        a = _inject(dev, eng, 1, 0)
        b = _inject(dev, eng, 1, 0)  # same port, same cycle -> pushed back
        assert b == a + 2
        assert dev.crossbar.port_conflicts == 1

    def test_different_ports_no_conflict(self, cube):
        dev, eng = cube
        assert _inject(dev, eng, 0, 0) == _inject(dev, eng, 1, 0)
        assert dev.crossbar.port_conflicts == 0

    def test_vault_range_checked(self, cube):
        """inject trusts the host decode to bound the vault: the decode
        masks any address into the cube's vault range."""
        dev, eng = cube
        with pytest.raises(IndexError):
            _inject(dev, eng, 4, 0)
        host = FabricHost(FabricConfig(hmc=dev.config), eng, [dev])
        req = MemoryRequest((1 << 40) - 64, False)
        host.send(req)
        assert 0 <= req.vault < 4
        assert dev.crossbar.traversals == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Crossbar(0, 4)
        with pytest.raises(ValueError):
            Crossbar(4, -1)
        with pytest.raises(ValueError):
            Crossbar(4, 4, port_cycle=0)
