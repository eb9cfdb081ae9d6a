"""Coverage for statistics resets, result extras, and the report CLI."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.hmc.config import HMCConfig
from repro.system import System, SystemConfig
from repro.workloads.spec import BenchmarkProfile
from repro.workloads.synthetic import TraceGenerator, generate_trace


@pytest.fixture
def traces():
    return [generate_trace("gems", 400, seed=i, core_id=i) for i in range(2)]


class TestResets:
    def test_device_reset_zeroes_everything(self, traces):
        sysm = System(traces, SystemConfig(scheme="camps-mod"))
        sysm.run()
        sysm.device.reset_statistics()
        assert sysm.device.demand_accesses == 0
        assert sysm.device.row_conflicts == 0
        assert sysm.device.buffer_hits == 0
        assert sysm.device.prefetches_issued() == 0
        e = sysm.device.energy
        assert e.acts == e.pres == e.link_flits == 0

    def test_host_reset_keeps_outstanding_tracking(self, traces):
        sysm = System(traces, SystemConfig(scheme="base"))
        sysm.run()
        before = sysm.host.outstanding
        sysm.host.reset_statistics()
        assert sysm.host.outstanding == before  # counters preserved
        assert sysm.host.latency_hist.n == 0  # histograms cleared

    def test_controller_reset_preserves_buffer_contents(self, traces):
        sysm = System(traces, SystemConfig(scheme="base"))
        sysm.run()
        vc = next(v for v in sysm.device.vaults if v.buffer and len(v.buffer))
        resident = len(vc.buffer)
        vc.reset_statistics()
        assert len(vc.buffer) == resident  # rows stay
        assert vc.buffer.hits == 0
        assert vc.buffer.check_recency_invariant()

    def test_bank_reset_preserves_state(self):
        from repro.dram.bank import AccessKind, Bank
        from repro.dram.timing import DRAMTimings

        b = Bank(0, DRAMTimings(), record_commands=True)
        b.access(AccessKind.READ, 5, 0)
        open_row, busy = b.open_row, b.busy_until
        b.reset_counters()
        assert (b.open_row, b.busy_until) == (open_row, busy)
        assert b.acts == 0 and b.command_log == []


class TestResultExtras:
    def test_camps_decision_breakdown(self, traces):
        r = System(traces, SystemConfig(scheme="camps-mod")).run()
        assert "utilization_prefetches" in r.extra
        assert "conflict_prefetches" in r.extra
        assert (
            r.extra["utilization_prefetches"] + r.extra["conflict_prefetches"]
            == r.prefetches_issued
        )

    def test_mmd_degree_exposed(self, traces):
        r = System(traces, SystemConfig(scheme="mmd")).run()
        degrees = r.extra["mmd_final_degrees"]
        assert len(degrees) == HMCConfig().vaults
        assert all(1 <= d <= 15 for d in degrees)

    def test_base_has_no_camps_extras(self, traces):
        r = System(traces, SystemConfig(scheme="base")).run()
        assert "utilization_prefetches" not in r.extra


class TestReportCLI:
    def test_report_to_stdout(self, capsys):
        rc = main(["report", "--mixes", "LM4", "--refs", "200", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# CAMPS reproduction report" in out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        rc = main([
            "report", "--mixes", "LM4", "--refs", "200",
            "--out", str(out_file), "--quiet",
        ])
        assert rc == 0
        assert "## Headline comparison" in out_file.read_text()


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        mpki=st.floats(min_value=1.0, max_value=60.0),
        wf=st.floats(min_value=0.0, max_value=0.6),
        streams=st.integers(1, 8),
        burst=st.integers(1, 4),
        lpv=st.integers(1, 16),
        seed=st.integers(0, 10_000),
    )
    def test_arbitrary_profiles_generate_valid_traces(
        self, mpki, wf, streams, burst, lpv, seed
    ):
        prof = BenchmarkProfile(
            "fuzz", mpki, wf, 0.6, 0.25, 0.15, streams, burst, lpv, 1 << 15
        )
        gen = TraceGenerator(prof, seed=seed, core_id=seed % 4)
        trace = gen.generate(300)
        assert len(trace) == 300
        assert trace.gaps.min() >= 0
        # every address decodes to legal cube coordinates
        from repro.hmc.address import AddressMapping

        m = AddressMapping(HMCConfig())
        v, b, r, c = m.decode_many(trace.addrs)
        cfg = HMCConfig()
        assert 0 <= v.min() and v.max() < cfg.vaults
        assert 0 <= b.min() and b.max() < cfg.banks_per_vault
        assert 0 <= c.min() and c.max() < cfg.lines_per_row
