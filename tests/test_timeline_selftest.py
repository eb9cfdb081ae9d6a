"""Tests for the text sparkline, new SPEC profiles and the selftest CLI."""

import pytest

from repro.cli import main
from repro.metrics.plot import sparkline
from repro.workloads.spec import PROFILES
from repro.workloads.synthetic import generate_trace


class TestSparkline:
    def test_levels_span_range(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s[0] == "▁" and s[-1] == "█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_pooling_to_width(self):
        s = sparkline(list(range(1000)), width=40)
        assert len(s) == 40
        # still monotone after pooling
        assert s[0] == "▁" and s[-1] == "█"

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2], width=64)) == 2

    def test_width_boundary_no_pooling(self):
        # exactly `width` samples must pass through unpooled
        vals = list(range(8))
        assert sparkline(vals, width=8) == "▁▂▃▄▅▆▇█"

    def test_width_plus_one_pools(self):
        # one sample over the width triggers mean-pooling down to `width`
        s = sparkline(list(range(9)), width=8)
        assert len(s) == 8
        assert s[0] == "▁" and s[-1] == "█"

    def test_pooling_buckets_cover_all_samples(self):
        # a single spike must survive pooling regardless of which bucket
        # boundary it lands on (a lost sample would render flat)
        for spike_at in range(10):
            vals = [0.0] * 10
            vals[spike_at] = 100.0
            s = sparkline(vals, width=4)
            assert len(s) == 4
            assert "█" in s, f"spike at {spike_at} lost in pooling"

    def test_zero_span_after_pooling(self):
        # constant long series: pooled values are all equal -> min glyph
        assert sparkline([3.0] * 100, width=10) == "▁" * 10

    def test_single_value(self):
        assert sparkline([42]) == "▁"


class TestExtendedProfiles:
    FULL_SUITE_EXTRAS = [
        "libquantum", "soplex", "leslie3d", "xalancbmk", "perlbench",
        "gobmk", "hmmer", "sjeng", "namd", "dealII", "gromacs",
        "calculix", "povray", "gamess",
    ]

    def test_suite_has_29_profiles(self):
        assert len(PROFILES) == 29

    @pytest.mark.parametrize("name", FULL_SUITE_EXTRAS)
    def test_extra_profiles_hit_their_mpki(self, name):
        t = generate_trace(name, 4000, seed=2)
        target = PROFILES[name].mpki
        assert t.mpki == pytest.approx(target, rel=0.25), name

    def test_libquantum_is_pure_stream(self):
        from repro.workloads.analysis import analyze_row_buffer

        p = analyze_row_buffer(generate_trace("libquantum", 4000, seed=1))
        assert p.hit_rate > 0.6  # single stream, full rows

    def test_extra_profiles_simulate(self):
        from repro.system import run_system

        t = generate_trace("soplex", 400, seed=1)
        r = run_system([t], scheme="camps-mod")
        assert r.cycles > 0


class TestSelftestCLI:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "camps-mod" in out
