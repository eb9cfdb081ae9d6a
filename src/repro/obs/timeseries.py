"""Epoch-windowed metrics time series.

A :class:`TimeseriesSampler` snapshots a configurable set of gauges every
``epoch`` cycles into ring-buffered NumPy series: raw values, per-epoch rates
and windowed ratios.  It is the simulator's one periodic probe.
:meth:`TimeseriesSampler.attach` wires the standard derived gauges the paper's
discussion sections reason about - prefetch-buffer hit rate, row-conflict
rate per vault (one cube) or per cube (a fabric), link utilization, and
either the one-cube queue/TSV/drain gauges or the fabric's hop gauges.

The sampler follows the same zero-cost contract as the rest of
:mod:`repro.obs` (see :mod:`repro.obs.hooks`): it is *pull*-based, so an
unsampled run carries no sampler at all and pays nothing.  A sampled run pays
only its own epoch ticks, and those are engineered to leave the simulation
byte-identical to an unsampled one:

* the tick is a **weak** engine entry
  (:meth:`~repro.sim.engine.Engine.call_at` with ``weak=True``), so it never
  keeps :meth:`~repro.sim.engine.Engine.run` alive and can never extend
  ``engine.now`` past the last real event;
* the tick only *reads* component state - it mutates nothing the simulation
  observes (event ordering keys are ``(time, priority, seq)`` with a
  monotonic ``seq``, so the extra entries cannot reorder real events);
* each tick decrements ``engine._events_fired`` by one from inside its own
  callback, cancelling its contribution to the lifetime event count, so
  ``result.extra["events_fired"]`` - part of the pinned benchmark digest -
  matches the unsampled run exactly.

``benchmarks/bench_timeseries_overhead.py`` enforces the digest parity and
the < 3 % runtime overhead bound in CI.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.arrays import BankArrays
from repro.sim.engine import Engine

Gauge = Callable[[], float]

#: default sampling period (cycles); chosen so the quick benchmark mix takes
#: a few dozen samples, a full-length run a few hundred, and the per-tick
#: cost stays well inside the < 3 % overhead budget
DEFAULT_EPOCH = 2048

#: default ring capacity per series; a full-length run wraps and keeps the
#: most recent window rather than growing without bound
DEFAULT_CAPACITY = 4096


class Series:
    """A named ring buffer of ``(cycle, value)`` samples.

    Appends are O(1) into preallocated NumPy arrays; once ``capacity``
    samples have been taken the oldest are overwritten.  :attr:`times` /
    :attr:`values` return chronologically unrolled copies.
    """

    __slots__ = ("name", "capacity", "_times", "_values", "_idx", "_n")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._times = np.zeros(capacity, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.float64)
        self._idx = 0
        self._n = 0

    def append(self, time: int, value: float) -> None:
        idx = self._idx
        self._times[idx] = time
        self._values[idx] = value
        self._idx = (idx + 1) % self.capacity
        if self._n < self.capacity:
            self._n += 1

    def __len__(self) -> int:
        return self._n

    @property
    def wrapped(self) -> bool:
        """True once old samples have been overwritten."""
        return self._n == self.capacity and self._idx != 0

    def _unroll(self, arr: np.ndarray) -> np.ndarray:
        if self._n < self.capacity:
            return arr[: self._n].copy()
        idx = self._idx
        if idx == 0:
            return arr.copy()
        return np.concatenate((arr[idx:], arr[:idx]))

    @property
    def times(self) -> np.ndarray:
        """Sample cycles, oldest first."""
        return self._unroll(self._times)

    @property
    def values(self) -> np.ndarray:
        """Sample values, oldest first."""
        return self._unroll(self._values)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict of the unrolled samples.

        Values are rounded to 9 decimal places (vectorized), which keeps the
        JSON artifact compact - gauges are rates and ratios, so trailing
        float noise would otherwise dominate the encoding - and keeps this
        call cheap enough to run inside result collection.
        """
        return {
            "times": self.times.tolist(),
            "values": np.round(self.values, 9).tolist(),
            "wrapped": self.wrapped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Series {self.name} n={self._n}/{self.capacity}>"


class _BankScan:
    """One fused per-tick pass over every bank's access counters.

    The standard wiring needs windowed conflict rates - one series per
    vault on one cube, one per cube on a fabric - *and* the machine-wide
    access total (the buffer hit-rate denominator), all from the same three
    bank attributes.  The gather and the per-vault fold ride the shared
    NumPy state-array layer (:class:`repro.sim.arrays.BankArrays`): one
    outcome gather refills the counter arrays, the per-vault sums reshape
    to ``(series, vaults per series)`` and sum into their series, and the
    epoch deltas / windowed rates are vectorized instead of re-looped per
    series per tick - the bench's < 3 % overhead bound depends on the tick
    staying linear in banks with the arithmetic in C.  Every operand is an
    integer summed exactly in int64, so the quotients equal scalar float
    division.  The layer is read-only over simulation state, so sampled
    runs stay byte-identical to unsampled ones (the module-docstring
    contract).
    """

    __slots__ = ("_arrays", "_series", "_shape", "_prev_conf", "_prev_acc",
                 "total_accesses")

    def __init__(self, vaults: List[Any], series: List[Series]) -> None:
        self._arrays = BankArrays(vaults)
        self._series = series
        n = len(series)
        self._shape = (n, len(vaults) // n)
        self._prev_conf = np.zeros(n, dtype=np.int64)
        self._prev_acc = np.zeros(n, dtype=np.int64)
        self.total_accesses = 0
        self.tick(None)  # baseline pass: seed prev sums, append nothing

    def tick(self, now: Optional[int]) -> None:
        arrays = self._arrays
        arrays.refresh_outcomes()
        conf, acc = arrays.vault_outcome_sums()
        self.total_accesses = int(acc.sum())
        conf = conf.reshape(self._shape).sum(axis=1)
        acc = acc.reshape(self._shape).sum(axis=1)
        if now is not None:
            dc = conf - self._prev_conf
            da = acc - self._prev_acc
            # int64/int64 -> float64 matches the scalar quotient exactly at
            # these magnitudes; where= leaves 0.0 for idle series.
            rates = np.divide(
                dc, da, out=np.zeros(len(da), dtype=np.float64), where=da != 0
            )
            for series, rate in zip(self._series, rates.tolist()):
                series.append(now, rate)
        self._prev_conf = conf
        self._prev_acc = acc


class TimeseriesSampler:
    """Samples registered gauges every ``epoch`` cycles into :class:`Series`.

    Register gauges before :meth:`start`; each tick appends one sample per
    series at the tick's cycle.  Three gauge flavors cover the useful shapes:

    * :meth:`track` - sample a callable's value directly (occupancies,
      cumulative accuracies);
    * :meth:`track_rate` - per-cycle rate of a cumulative counter over the
      last epoch (throughputs, utilizations of busy-cycle counters);
    * :meth:`track_ratio` - windowed quotient of two cumulative counters'
      epoch deltas (hit rates, conflict rates), 0 when the denominator
      did not move.
    """

    def __init__(
        self,
        engine: Engine,
        epoch: int = DEFAULT_EPOCH,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        self.engine = engine
        self.epoch = epoch
        self.capacity = capacity
        self._series: Dict[str, Series] = {}
        self._trackers: List[Tuple[Series, Gauge]] = []
        #: batched samplers run at the start of every tick, before the
        #: per-series gauges; each receives the tick cycle and may append to
        #: several series at once (e.g. :class:`_BankScan`)
        self._batch: List[Callable[[Optional[int]], None]] = []
        self.samples_taken = 0
        self._armed = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _new_series(self, name: str) -> Series:
        if name in self._series:
            raise ValueError(f"duplicate series {name!r}")
        s = Series(name, self.capacity)
        self._series[name] = s
        return s

    def track(self, name: str, fn: Gauge) -> Series:
        """Sample ``fn()`` directly each epoch."""
        s = self._new_series(name)
        self._trackers.append((s, fn))
        return s

    def track_rate(self, name: str, fn: Gauge) -> Series:
        """Sample the per-cycle rate of a cumulative counter: each epoch
        records ``(fn() - previous) / epoch``."""
        s = self._new_series(name)
        epoch = self.epoch
        state = [float(fn())]

        def sample() -> float:
            cur = float(fn())
            rate = (cur - state[0]) / epoch
            state[0] = cur
            return rate

        self._trackers.append((s, sample))
        return s

    def track_ratio(self, name: str, num_fn: Gauge, den_fn: Gauge) -> Series:
        """Sample the windowed quotient of two cumulative counters: each
        epoch records ``Δnum / Δden`` (0.0 when ``Δden`` is 0)."""
        s = self._new_series(name)
        state = [float(num_fn()), float(den_fn())]

        def sample() -> float:
            n, d = float(num_fn()), float(den_fn())
            dn, dd = n - state[0], d - state[1]
            state[0], state[1] = n, d
            return dn / dd if dd else 0.0

        self._trackers.append((s, sample))
        return s

    # ------------------------------------------------------------------
    # Standard wiring
    # ------------------------------------------------------------------
    def attach(self, system: Any) -> None:
        """Wire the standard derived gauges against a built
        :class:`~repro.system.System` (before :meth:`~repro.system.System.run`).

        Every system gets the windowed prefetch-buffer hit rate, windowed
        row-conflict rates and host link utilization.  The shape follows
        the config:

        * one cube (no fabric): ``vaultN.conflict_rate`` per vault,
          ``link.utilization``, prefetch row accuracy, mean queue
          occupancy, TSV utilization and drain-mode residency;
        * a fabric (``chain:1`` included): ``cubeN.conflict_rate`` per cube
          (not per vault - 8 cubes of 32 vaults would swamp the payload),
          ``host.link_utilization``, inter-cube link utilization and hop
          flit rate (when there are inter-cube links), and the mean hop
          count.
        """
        host = system.host
        devices = system.devices
        vaults = [vc for device in devices for vc in device.vaults]
        fabric = system.fabric is not None
        epoch = self.epoch

        # One fused bank pass per tick fills every conflict-rate series and
        # the hit-rate denominator (see _BankScan).  Stable objects
        # (counters, links, buses, schedulers) are resolved once here so
        # ticks do plain attribute reads, not dict lookups.
        if fabric:
            names = [f"cube{c}.conflict_rate" for c in range(len(devices))]
        else:
            names = [f"vault{vc.vault_id}.conflict_rate" for vc in vaults]
        scan = _BankScan(vaults, [self._new_series(n) for n in names])
        self._batch.append(scan.tick)
        buf_hits = [vc.stats.counter("buffer_hits") for vc in vaults]
        self.track_ratio(
            "buffer.hit_rate",
            lambda: sum(c.value for c in buf_hits),
            lambda: sum(c.value for c in buf_hits) + scan.total_accesses,
        )

        links = host.links
        link_cap = 2 * len(links) * epoch  # both directions of every link
        self.track_rate(
            "host.link_utilization" if fabric else "link.utilization",
            lambda: sum(l.total_busy_cycles for l in links) / link_cap * epoch,
        )

        if fabric:
            flinks = host.fabric_links
            if flinks:
                flink_cap = 2 * len(flinks) * epoch
                self.track_rate(
                    "fabric.link_utilization",
                    lambda: sum(l.total_busy_cycles for l in flinks)
                    / flink_cap
                    * epoch,
                )
                routers = host.routers
                self.track_rate(
                    "fabric.hop_flit_rate",
                    lambda: float(sum(r.hop_flits for r in routers)),
                )
            self.track("fabric.mean_hops", host.mean_hops)
            return

        device = system.device
        self.track("prefetch.row_accuracy", device.prefetch_row_accuracy)
        queue_groups = [vc.queues for vc in vaults]
        nvaults = len(vaults)
        self.track(
            "queues.occupancy",
            lambda: sum(
                len(q) / (q.read_depth + q.write_depth) for q in queue_groups
            )
            / nvaults,
        )
        buses = [vc.tsv_bus for vc in vaults]
        tsv_cap = nvaults * epoch
        self.track_rate(
            "tsv.utilization",
            lambda: sum(bus.busy_cycles for bus in buses) / tsv_cap * epoch,
        )
        engine = self.engine
        schedulers = [vc.scheduler for vc in vaults]
        self.track_rate(
            "sched.drain_residency",
            lambda: sum(s.drain_cycles_at(engine.now) for s in schedulers)
            / tsv_cap
            * epoch,
        )

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first epoch tick (idempotent; call before the run)."""
        if not self._armed:
            self._armed = True
            self.engine.call_at(
                self.engine.now + self.epoch, self._tick, weak=True
            )

    def _tick(self) -> None:
        now = self.engine.now
        for batch in self._batch:
            batch(now)
        for series, fn in self._trackers:
            series.append(now, fn())
        self.samples_taken += 1
        engine = self.engine
        # The tick must be invisible to result digests: events_fired is part
        # of SimulationResult.extra, so cancel this firing's contribution.
        # run() folds its local counter into _events_fired only on exit, so
        # the in-callback decrement nets out exactly.
        engine._events_fired -= 1
        engine.call_at(now + self.epoch, self._tick, weak=True)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def series(self) -> Dict[str, Series]:
        """All registered series by name."""
        return dict(self._series)

    def get(self, name: str) -> Optional[Series]:
        return self._series.get(name)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict embedding every series (RunReport's ``series``)."""
        return {
            "epoch": self.epoch,
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "series": {
                name: s.to_payload() for name, s in sorted(self._series.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimeseriesSampler epoch={self.epoch} "
            f"series={len(self._series)} n={self.samples_taken}>"
        )
