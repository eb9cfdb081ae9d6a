"""Unit tests for statistics primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import _FOLD_AT, Counter, Histogram, StatGroup, geomean


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_default_and_amount(self):
        c = Counter("c")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_reset(self):
        c = Counter("c", 10)
        c.reset()
        assert c.value == 0

    def test_int_conversion(self):
        assert int(Counter("c", 3)) == 3


class TestHistogram:
    def test_mean_is_exact(self):
        h = Histogram("h", nbins=4, bin_width=10)
        for v in [1, 2, 3, 4]:
            h.add(v)
        assert h.mean == pytest.approx(2.5)

    def test_variance_matches_numpy(self):
        h = Histogram("h")
        data = [3, 7, 7, 19, 24, 4]
        for v in data:
            h.add(v)
        assert h.variance == pytest.approx(np.var(data))
        assert h.std == pytest.approx(np.std(data))

    def test_min_max(self):
        h = Histogram("h")
        for v in [5, 1, 9]:
            h.add(v)
        assert h.min == 1 and h.max == 9

    def test_binning(self):
        h = Histogram("h", nbins=4, bin_width=10)
        h.add(5)  # bin 0
        h.add(15)  # bin 1
        h.add(1000)  # overflow -> last bin
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[3] == 1

    def test_negative_clamped_to_first_bin(self):
        h = Histogram("h", nbins=4, bin_width=10)
        h.add(-5)
        assert h.counts[0] == 1

    def test_percentile_monotone(self):
        h = Histogram("h", nbins=32, bin_width=4)
        for v in range(100):
            h.add(v)
        assert h.percentile(10) <= h.percentile(50) <= h.percentile(90)

    def test_percentile_bounds_checked(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram_safe(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.n == 0

    def test_reset(self):
        h = Histogram("h")
        h.add(5)
        h.reset()
        assert h.n == 0 and h.mean == 0.0 and h.counts.sum() == 0

    def test_percentile_overflow_returns_tracked_max(self):
        # Regression: a quantile landing among overflow samples used to
        # report the last bin's midpoint (35 here), silently under-reporting
        # tail latency for any long-tailed distribution.
        h = Histogram("h", nbins=4, bin_width=10)
        for v in (1, 2, 3, 500, 900, 1000):
            h.add(v)
        assert h.overflow == 3
        assert h.percentile(99) == 1000
        # quantiles below the overflow mass still use bin midpoints
        assert h.percentile(10) == 5.0

    def test_percentile_last_bin_in_range_vs_overflow(self):
        # Samples genuinely inside the last bin keep the midpoint answer;
        # only quantiles past them fall through to the tracked max.
        h = Histogram("h", nbins=4, bin_width=10)
        for v in (31, 32, 33, 34, 5000):
            h.add(v)
        assert h.percentile(50) == 35.0  # in-range last-bin sample
        assert h.percentile(100) == 5000  # the overflow sample

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Histogram("h", nbins=0)
        with pytest.raises(ValueError):
            Histogram("h", bin_width=0)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
    def test_mean_always_exact_regardless_of_binning(self, samples):
        h = Histogram("h", nbins=8, bin_width=16)
        for s in samples:
            h.add(s)
        assert h.mean == pytest.approx(np.mean(samples))
        assert h.n == len(samples)

    def test_logged_samples_fold_bit_identically(self):
        # per-sample Welford, the update add() made before it logged
        rng = np.random.default_rng(7)
        samples = [int(x) for x in rng.integers(-5, 3000, size=2 * _FOLD_AT + 123)]
        n, mean, m2 = 0, 0.0, 0.0
        for x in samples:
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        h = Histogram("h", nbins=64, bin_width=32)
        for i, x in enumerate(samples):
            h.add(x)
            assert len(h._log) < _FOLD_AT  # one bounded chunk at most
            if i == 1000:
                h.percentile(50)  # a mid-run read folds early
        assert (h.n, h.mean, h.variance) == (n, mean, m2 / n)
        assert (h.min, h.max) == (float(min(samples)), float(max(samples)))
        clamped = [min(max(x // 32, 0), 63) for x in samples]
        assert h.counts.tolist() == np.bincount(clamped, minlength=64).tolist()
        assert h.overflow == sum(x >= 64 * 32 for x in samples)
        h.add(1)
        h.reset()
        assert h.n == 0 and h.max == 0.0


class TestStatGroup:
    def test_counter_get_or_create(self):
        g = StatGroup("g")
        a = g.counter("x")
        b = g.counter("x")
        assert a is b

    def test_histogram_get_or_create(self):
        g = StatGroup("g")
        assert g.histogram("h") is g.histogram("h")

    def test_as_dict(self):
        g = StatGroup("g")
        g.counter("reads").inc(3)
        g.histogram("lat").add(10)
        d = g.as_dict()
        assert d["reads"] == 3
        assert d["lat.n"] == 1
        assert d["lat.mean"] == 10

    def test_reset_all(self):
        g = StatGroup("g")
        g.counter("c").inc(3)
        g.histogram("h").add(5)
        g.reset()
        assert g.counter("c").value == 0
        assert g.histogram("h").n == 0

    def test_merge_counters(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.counter("x").inc(2)
        b.counter("x").inc(3)
        b.counter("y").inc(1)
        a.merge(b)
        assert a.counter("x").value == 5
        assert a.counter("y").value == 1

    def test_merge_histograms_pools_moments(self):
        a, b = StatGroup("a"), StatGroup("b")
        for v in [1, 2, 3]:
            a.histogram("h").add(v)
        for v in [10, 20]:
            b.histogram("h").add(v)
        a.merge(b)
        h = a.histogram("h")
        assert h.n == 5
        assert h.mean == pytest.approx(np.mean([1, 2, 3, 10, 20]))
        assert h.variance == pytest.approx(np.var([1, 2, 3, 10, 20]))

    def test_merge_histograms_pools_overflow(self):
        a, b = StatGroup("a"), StatGroup("b")
        ha = a.histogram("h", nbins=4, bin_width=10)
        hb = b.histogram("h", nbins=4, bin_width=10)
        ha.add(500)
        hb.add(900)
        hb.add(5)
        a.merge(b)
        merged = a.histogram("h")
        assert merged.overflow == 2
        assert merged.percentile(100) == 900  # overflow-aware after merge too


class TestGeomean:
    def test_simple(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_single(self):
        assert geomean([3.5]) == pytest.approx(3.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([1.0, -2.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=50))
    def test_bounded_by_min_max(self, vals):
        g = geomean(vals)
        assert min(vals) - 1e-9 <= g <= max(vals) + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20))
    def test_scale_invariance(self, vals):
        g1 = geomean(vals)
        g2 = geomean([v * 2 for v in vals])
        assert g2 == pytest.approx(2 * g1, rel=1e-9)
