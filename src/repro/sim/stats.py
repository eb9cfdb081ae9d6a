"""Statistics primitives shared by all simulated components.

Counters are plain attribute-backed integers (O(1) increments in the hot
path); a histogram's :meth:`~Histogram.add` appends the sample to a pending
log that its readers fold, in arrival order, into fixed bins and running
moments, so a sample costs one list append in the hot path.  A
:class:`StatGroup` is a lightweight named namespace that can be dumped to a
flat dict for reporting.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

Number = Union[int, float]


class Counter:
    """A named monotonic (by convention) counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return int(self.value)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


#: pending samples a histogram holds before :meth:`Histogram.add` folds
#: them, so the log stays one bounded chunk however long the run
_FOLD_AT = 4096


class Histogram:
    """Fixed-bin histogram with overflow bin and exact running moments.

    ``bin_width`` buckets samples as ``min(sample // bin_width, nbins - 1)``;
    the last bin therefore collects overflow.  Mean/variance are tracked
    exactly (Welford) regardless of binning.

    :meth:`add` only logs the sample; every reader first folds the log
    through :meth:`_fold`, the one Welford loop, in arrival order, so the
    results are bit-identical to updating per sample.
    """

    __slots__ = (
        "name", "bin_width", "nbins", "_counts", "_n", "_mean", "_m2",
        "_min", "_max", "_overflow", "_log",
    )

    def __init__(self, name: str, nbins: int = 64, bin_width: int = 16) -> None:
        if nbins < 1 or bin_width < 1:
            raise ValueError("nbins and bin_width must be >= 1")
        self.name = name
        self.bin_width = bin_width
        self.nbins = nbins
        # a plain list: incrementing one NumPy array element boxes a scalar
        # per sample, which dominated Histogram.add in the hot-loop profile
        self._counts: List[int] = [0] * nbins
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        # samples clamped into the last bin from beyond the binned range;
        # percentile() uses this to stop under-reporting high quantiles
        self._overflow = 0
        self._log: List[Number] = []  # samples not yet folded

    def add(self, sample: Number) -> None:
        log = self._log
        log.append(sample)
        if len(log) >= _FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        """Fold the pending samples into the bins and running moments."""
        log = self._log
        if not log:
            return
        counts = self._counts
        bin_width = self.bin_width
        last = self.nbins - 1
        n, mean, m2 = self._n, self._mean, self._m2
        lo, hi, overflow = self._min, self._max, self._overflow
        for sample in log:
            idx = int(sample) // bin_width
            if idx > last:
                idx = last
                overflow += 1
            elif idx < 0:
                idx = 0
            counts[idx] += 1
            n += 1
            delta = sample - mean
            mean += delta / n
            m2 += delta * (sample - mean)
            if lo is None or sample < lo:
                lo = float(sample)
            if hi is None or sample > hi:
                hi = float(sample)
        self._n, self._mean, self._m2 = n, mean, m2
        self._min, self._max, self._overflow = lo, hi, overflow
        log.clear()

    @property
    def counts(self) -> np.ndarray:
        """Bin counts as a NumPy array (a copy; accumulate via :meth:`add`)."""
        self._fold()
        return np.asarray(self._counts, dtype=np.int64)

    @property
    def n(self) -> int:
        self._fold()
        return self._n

    @property
    def mean(self) -> float:
        self._fold()
        return self._mean if self._n else 0.0

    @property
    def variance(self) -> float:
        self._fold()
        return self._m2 / self._n if self._n else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        self._fold()
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._max if self._max is not None else 0.0

    @property
    def overflow(self) -> int:
        """Samples clamped into the last bin from beyond the binned range."""
        self._fold()
        return self._overflow

    def percentile(self, q: float) -> float:
        """Approximate percentile from bin midpoints (q in [0, 100]).

        The last bin holds both genuine last-interval samples and overflow
        (samples beyond ``nbins * bin_width``).  A quantile landing among the
        overflow samples returns the exact tracked maximum instead of the
        last bin's midpoint, which used to silently under-report high
        percentiles for long-tailed distributions.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be within [0, 100]")
        self._fold()
        if self._n == 0:
            return 0.0
        target = self._n * q / 100.0
        cum = np.cumsum(self._counts)
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, self.nbins - 1)
        if idx == self.nbins - 1 and self._overflow:
            below_last = float(cum[-2]) if self.nbins > 1 else 0.0
            in_range_last = self._counts[-1] - self._overflow
            if target > below_last + in_range_last:
                return self.max
        return (idx + 0.5) * self.bin_width

    def reset(self) -> None:
        self._counts = [0] * self.nbins
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = None
        self._max = None
        self._overflow = 0
        self._log.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.n}, mean={self.mean:.2f})"


class StatGroup:
    """Named collection of counters and histograms.

    Components create one group each (``vault3.stats``), register their
    counters once at construction time, and bump ``counter.value`` directly in
    hot paths (no dict lookups per event).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create a counter."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    def histogram(self, name: str, nbins: int = 64, bin_width: int = 16) -> Histogram:
        """Get-or-create a histogram."""
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name, nbins=nbins, bin_width=bin_width)
            self._histograms[name] = h
        return h

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()

    def as_dict(self) -> Dict[str, Number]:
        """Flatten to ``{name: value}`` (histograms contribute mean/n)."""
        out: Dict[str, Number] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, h in self._histograms.items():
            out[f"{name}.n"] = h.n
            out[f"{name}.mean"] = h.mean
        return out

    def merge(self, other: "StatGroup") -> None:
        """Accumulate another group's counters into this one (for per-vault
        aggregation).  Histograms merge counts and moments approximately by
        re-adding means; exact merge is not needed for reporting."""
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, h in other._histograms.items():
            mine = self.histogram(name, nbins=h.nbins, bin_width=h.bin_width)
            mine._fold()
            h._fold()
            if mine.nbins == h.nbins and mine.bin_width == h.bin_width:
                mine._counts = [a + b for a, b in zip(mine._counts, h._counts)]
                mine._overflow += h._overflow
            # merge running moments via pooled update
            n1, n2 = mine._n, h._n
            if n2:
                delta = h._mean - mine._mean
                tot = n1 + n2
                mine._mean += delta * n2 / tot
                mine._m2 += h._m2 + delta * delta * n1 * n2 / tot
                mine._n = tot
                if mine._min is None or (h._min is not None and h._min < mine._min):
                    mine._min = h._min
                if mine._max is None or (h._max is not None and h._max > mine._max):
                    mine._max = h._max

    def __repr__(self) -> str:
        return (
            f"StatGroup({self.name}, counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports per-workload speedups this way."""
    vals: List[float] = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires strictly positive values")
    return float(np.exp(np.mean(np.log(vals))))
