"""Integration tests for the routed multi-cube fabric system."""

import dataclasses
import hashlib
import json

import pytest

from repro.faults import LinkFaultConfig
from repro.fabric import (
    FABRIC_LINK_ID_BASE,
    FabricConfig,
    FabricSystem,
    FabricSystemConfig,
)
from repro.hmc.config import HMCConfig
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix
from repro.workloads.multistream import MultiStreamSpec, build_stream_traces

SMALL = HMCConfig(vaults=4, banks_per_vault=4, pf_buffer_entries=4)
REFS = 200


def _fabric(spec, scheme="camps-mod", refs=REFS, seed=3, mix_name="HM1", **kw):
    fabric = FabricConfig.from_spec(spec, hmc=SMALL, **kw)
    streams = MultiStreamSpec.per_cube(mix_name, fabric.cubes, refs, seed=seed)
    return FabricSystem(
        build_stream_traces(streams, fabric),
        FabricSystemConfig(fabric=fabric, scheme=scheme),
        workload=mix_name,
    )


class TestSingleCubeParity:
    def test_matches_system_field_for_field(self):
        """``SystemConfig(hmc=X)`` and a ``chain:1`` fabric build the same
        machine: every result field, the event count, and the exact energy
        breakdown must agree."""
        traces = mix("HM1", REFS, seed=3)
        r_sys = System(
            traces, SystemConfig(hmc=SMALL, scheme="camps-mod"), workload="HM1"
        ).run()
        r_fab = _fabric("chain:1").run()

        for f in dataclasses.fields(r_sys):
            if f.name == "extra":
                continue
            assert getattr(r_fab, f.name) == getattr(r_sys, f.name), f.name
        assert r_fab.extra["events_fired"] == r_sys.extra["events_fired"]
        assert r_fab.extra["bank_outcomes"] == r_sys.extra["bank_outcomes"]
        assert r_fab.energy_breakdown == r_sys.energy_breakdown

    def test_one_cube_has_no_fabric_links(self):
        fsys = _fabric("chain:1")
        assert fsys.host.fabric_links == []
        r = fsys.run()
        fx = r.extra["fabric"]
        assert fx["cubes"] == 1
        assert fx["hop_histogram"] == {1: r.demand_accesses + r.buffer_hits}
        assert fx["mean_hops"] == 1.0
        assert "fabric_hops" not in r.energy_breakdown


class TestMultiCube:
    def test_deterministic(self):
        a = _fabric("chain:2").run()
        b = _fabric("chain:2").run()
        assert a.cycles == b.cycles
        assert a.core_ipc == b.core_ipc
        assert a.energy_pj == b.energy_pj
        assert a.extra["events_fired"] == b.extra["events_fired"]
        assert a.extra["fabric"]["hop_histogram"] == b.extra["fabric"]["hop_histogram"]

    def test_all_schemes_complete(self):
        for scheme in ("none", "base", "mmd", "camps", "camps-mod"):
            r = _fabric("chain:2", scheme=scheme, refs=80).run()
            assert r.cycles > 0
            assert len(r.core_ipc) == 16  # 8 cores per stream, one per cube

    def test_chain_hop_histogram(self):
        """Home placement: cube-0 accesses take 1 hop, cube-1 accesses 2."""
        r = _fabric("chain:2").run()
        fx = r.extra["fabric"]
        hist = fx["hop_histogram"]
        assert set(hist) == {1, 2}
        assert sum(hist.values()) == r.demand_accesses + r.buffer_hits
        # streams are symmetric (same mix, same refs), so the split is even
        assert hist[1] == hist[2]
        assert fx["mean_hops"] == pytest.approx(1.5)

    def test_star_is_always_one_hop(self):
        r = _fabric("star:3", refs=80).run()
        fx = r.extra["fabric"]
        assert set(fx["hop_histogram"]) == {1}
        assert fx["mean_hops"] == 1.0
        assert fx["hop_flits"] == 0  # no inter-cube forwarding at all

    def test_chain_charges_hop_energy(self):
        r = _fabric("chain:2").run()
        fx = r.extra["fabric"]
        assert fx["hop_flits"] > 0
        expected = fx["hop_flits"] * 48.0
        assert r.energy_breakdown["fabric_hops"] == pytest.approx(expected)
        assert r.energy_pj == pytest.approx(sum(r.energy_breakdown.values()))

    def test_fabric_links_carry_traffic(self):
        fsys = _fabric("chain:4", refs=80)
        r = fsys.run()
        assert len(fsys.host.fabric_links) == 3
        for link in fsys.host.fabric_links:
            assert link.link_id >= FABRIC_LINK_ID_BASE
            assert link.total_flits > 0
        assert 0.0 < r.extra["fabric"]["fabric_link_utilization"] <= 1.0

    def test_hop_latency_slows_the_fabric(self):
        fast = _fabric("chain:2", hop_latency=0).run()
        slow = _fabric("chain:2", hop_latency=40).run()
        assert slow.cycles > fast.cycles
        assert slow.mean_memory_latency > fast.mean_memory_latency

    def test_per_cube_counters_sum_to_totals(self):
        r = _fabric("chain:2").run()
        per_cube = r.extra["fabric"]["per_cube"]
        assert len(per_cube) == 2
        assert sum(c["demand_accesses"] for c in per_cube) == r.demand_accesses
        assert sum(c["row_conflicts"] for c in per_cube) == r.row_conflicts
        # cube 0 is the host attach point: its own traffic injects directly
        # and never touches the router, while cube 1's arrives via forwarding
        r0, r1 = per_cube[0]["router"], per_cube[1]["router"]
        assert r0["local_requests"] == 0
        assert r0["forwarded_requests"] > 0
        assert r1["local_requests"] > 0
        assert r1["local_requests"] == r0["forwarded_requests"]

    def test_run_once_only(self):
        fsys = _fabric("chain:2", refs=40)
        fsys.run()
        with pytest.raises(RuntimeError):
            fsys.run()

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            FabricSystem([])


#: hop accounting pinned from a per-request hop histogram (MX1, 100
#: refs/core, seed 5, SMALL cubes, camps-mod; warmup at 3000 cycles or
#: none): hop histogram, mean hops, and the sha256[:16] of the
#: ``fabric.mean_hops`` series payload at a 1000-cycle epoch
HOP_PINS = {
    ("chain:4", None): (
        {1: 800, 2: 800, 3: 800, 4: 800}, 2.499999999999996, "859852132e2e1c05"
    ),
    ("chain:4", 3000): (
        {1: 631, 2: 625, 3: 669, 4: 647}, 2.5178849144634516, "3d11338a5552bd00"
    ),
    ("ring:4", None): ({1: 800, 2: 1600, 3: 800}, 2.0000000000000013, "4e0293cd25e69304"),
    ("ring:4", 3000): ({1: 631, 2: 1221, 3: 666}, 2.013899920571882, "b294b10c2017099d"),
    ("star:4", None): ({1: 3200}, 1.0, "53871f0fe7e37408"),
    ("star:4", 3000): ({1: 2510}, 1.0, "469c8d438327a4e5"),
}


class TestHopAccounting:
    @pytest.mark.parametrize("spec,warmup", sorted(HOP_PINS, key=str))
    def test_matches_recorded_values(self, spec, warmup):
        """Per-cube request counts reproduce the pinned hop histogram, mean
        hops and mean-hops series, across a warmup reset too.  The pinned
        means came from a running (Welford) mean that carries ~1e-15 of
        rounding a ratio of sums does not, so they compare approximately;
        the series payload rounds to 9 decimals and compares exactly."""
        hist, mean, series_digest = HOP_PINS[(spec, warmup)]
        fabric = FabricConfig.from_spec(spec, hmc=SMALL)
        streams = MultiStreamSpec.per_cube("MX1", fabric.cubes, 100, seed=5)
        r = FabricSystem(
            build_stream_traces(streams, fabric),
            FabricSystemConfig(
                fabric=fabric,
                scheme="camps-mod",
                stats_warmup_cycles=warmup,
                timeseries_epoch=1000,
            ),
            workload="MX1",
        ).run()
        fx = r.extra["fabric"]
        assert fx["hop_histogram"] == hist
        assert fx["mean_hops"] == pytest.approx(mean, rel=1e-12)
        values = r.extra["timeseries"]["series"]["fabric.mean_hops"]["values"]
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]
        assert digest == series_digest


class TestFabricFaults:
    def _faulty(self, ber=2e-6, seed=42):
        fabric = FabricConfig.from_spec("chain:3", hmc=SMALL)
        streams = MultiStreamSpec.per_cube("HM1", 3, 120, seed=1)
        fsys = FabricSystem(
            build_stream_traces(streams, fabric),
            FabricSystemConfig(fabric=fabric, scheme="camps-mod"),
            workload="HM1",
        )
        cfg = LinkFaultConfig(ber=ber, seed=seed)
        for link in (*fsys.host.links, *fsys.host.fabric_links):
            link.attach_faults(cfg)
        return fsys

    def test_per_hop_faults_are_injected(self):
        fsys = self._faulty()
        r = fsys.run()
        summary = r.extra["link_faults"]
        per_link = summary["per_link"]
        fabric_keys = [
            k for k in per_link if int(k.replace("link", "")) >= FABRIC_LINK_ID_BASE
        ]
        assert len(fabric_keys) == 2  # chain:3 has two inter-cube links
        assert summary["replays"] > 0

    def test_fault_runs_are_deterministic(self):
        a = self._faulty().run()
        b = self._faulty().run()
        assert a.cycles == b.cycles
        assert a.extra["link_faults"] == b.extra["link_faults"]

    def test_fabric_link_rng_independent_of_host(self):
        """Fabric link ids live above FABRIC_LINK_ID_BASE, so their error
        streams differ from the host links' (and from each other)."""
        r = self._faulty(ber=5e-6).run()
        per_link = r.extra["link_faults"]["per_link"]
        replays = [v["replays"] for v in per_link.values()]
        assert any(x != replays[0] for x in replays[1:])
