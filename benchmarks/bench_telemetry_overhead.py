"""Overhead and identity check for campaign heartbeat telemetry.

Telemetry (repro.obs.telemetry) has the same two-part contract as the rest
of the observability stack:

* **Disabled = free.**  With no sampler armed, the only residue on the hot
  path is :func:`repro.obs.telemetry.publish_system`'s single ``is None``
  check per cell — the pinned hot-path digests must be byte-identical.
* **Enabled = invisible to results.**  The sampler is a daemon *thread*
  that reads live engine state (``engine.now``, ``engine._seq``) under the
  GIL every interval and appends heartbeats to a spool file.  It schedules
  no engine events and mutates nothing the simulation observes, so an
  instrumented run must reproduce the uninstrumented digest bit-for-bit —
  including ``events_fired`` — while paying < 2 % wall clock.

This bench asserts both halves on the pinned quick configuration (CAMPS,
MX1, seed 1, 800 refs/core), sampling at 20 Hz — 10x the production
heartbeat rate, so the bound holds with an order-of-magnitude margin over
the default ``--telemetry-interval``.  The overhead measurement interleaves
off/on pairs (min-of-pair-ratios) so machine drift hits both modes equally.

Run standalone (``python benchmarks/bench_telemetry_overhead.py``) or under
pytest with an explicit path.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_hotpath import (  # noqa: E402
    MIX,
    PINS,
    SCHEME,
    SEED,
    calibration_score,
    result_digest,
)
from conftest import record_bench_history  # noqa: E402

from repro.obs import telemetry  # noqa: E402
from repro.system import System, SystemConfig  # noqa: E402
from repro.workloads.mixes import mix as make_mix  # noqa: E402

#: allowed instrumented/uninstrumented wall-time ratio — the issue's
#: acceptance threshold.  Measured at 10x the production heartbeat rate.
OVERHEAD_LIMIT = 1.02

#: heartbeat period while measuring: 10x faster than the 0.5 s default, so
#: the production configuration sits far inside the bound
BENCH_INTERVAL = 0.05

REFS = PINS["quick"]["refs"]
ROUNDS = 6


def _build() -> System:
    traces = make_mix(MIX, REFS, seed=SEED)
    return System(traces, SystemConfig(scheme=SCHEME), workload=MIX)


def _run_plain():
    """Telemetry disabled: publish_system hits the is-None fast path."""
    system = _build()
    telemetry.publish_system(system)  # no-op: nothing armed
    try:
        return system.run()
    finally:
        telemetry.publish_system(None)


def _run_instrumented(spool_dir: str):
    """Telemetry enabled: sampler thread heartbeating at BENCH_INTERVAL."""
    telemetry.activate_worker(spool_dir, "bench", interval=BENCH_INTERVAL)
    try:
        wt = telemetry.current_worker()
        system = _build()
        wt.cell_start(_FakeCell(), 1)
        telemetry.publish_system(system)
        try:
            result = system.run()
        finally:
            telemetry.publish_system(None)
        wt.cell_end("ok", 0.0)
        return result
    finally:
        telemetry.deactivate_worker()


class _FakeCell:
    cell_id = f"bench-{MIX}-{SCHEME}"
    workload = MIX
    scheme = SCHEME


def measure() -> Dict[str, object]:
    """Paired timing: one off/on pair per round, overhead = best pair ratio.

    Same methodology as bench_timeseries_overhead: alternating order within
    each round, gc.collect() before every timed run, minimum per-pair ratio
    as the least-noisy estimate on jittery shared machines.
    """
    import gc

    tmp = tempfile.mkdtemp(prefix="repro-bench-telemetry-")

    def timed(instrumented: bool) -> float:
        gc.collect()
        if instrumented:
            telemetry.activate_worker(tmp, "bench", interval=BENCH_INTERVAL)
            wt = telemetry.current_worker()
            system = _build()
            wt.cell_start(_FakeCell(), 1)
            telemetry.publish_system(system)
            t0 = perf_counter()
            system.run()
            dt = perf_counter() - t0
            telemetry.publish_system(None)
            wt.cell_end("ok", dt)
            telemetry.deactivate_worker()
            return dt
        system = _build()
        telemetry.publish_system(system)
        t0 = perf_counter()
        system.run()
        dt = perf_counter() - t0
        telemetry.publish_system(None)
        return dt

    for instrumented in (False, True):
        timed(instrumented)  # warmup per mode
    off: List[float] = []
    on: List[float] = []
    ratios: List[float] = []
    for i in range(ROUNDS):
        if i % 2:
            t_on = timed(True)
            t_off = timed(False)
        else:
            t_off = timed(False)
            t_on = timed(True)
        off.append(t_off)
        on.append(t_on)
        ratios.append(t_on / t_off)
    return {
        "refs": REFS,
        "rounds": ROUNDS,
        "interval_s": BENCH_INTERVAL,
        "off_s": min(off),
        "on_s": min(on),
        "ratio": min(ratios),
    }


def report(sample: Dict[str, object]) -> str:
    return (
        f"telemetry heartbeat overhead (best of {sample['rounds']} "
        f"alternating off/on pairs, interval={sample['interval_s']}s):\n"
        f"  off {float(sample['off_s']) * 1e3:8.2f} ms (best)\n"
        f"  on  {float(sample['on_s']) * 1e3:8.2f} ms (best)\n"
        f"  best paired ratio {float(sample['ratio']):.3f}x"
    )


def _record(sample: Dict[str, object], check: bool = False) -> None:
    """Append the paired overhead ratio to BENCH_history.jsonl.

    The "normalized" value for this bench is the ratio itself (already
    machine-independent), so bench-trend flags overhead creep directly.
    """
    record_bench_history(
        "telemetry_overhead",
        wall_seconds=float(sample["on_s"]),
        normalized=float(sample["ratio"]),
        digest=PINS["quick"]["digest"],
        meta={"interval_s": sample["interval_s"], "refs": sample["refs"]},
        check=check,
    )


# ----------------------------------------------------------------------
# Pytest entry points (explicit path only, like the other benches)
# ----------------------------------------------------------------------
def test_disabled_digest_matches_pin():
    """publish_system with nothing armed must not perturb the pinned run."""
    pin = PINS["quick"]
    result = _run_plain()
    assert result_digest(result) == pin["digest"]
    assert result.cycles == pin["cycles"]
    assert result.extra["events_fired"] == pin["events_fired"]


def test_instrumented_digest_matches_pin(tmp_path):
    """A heartbeat-sampled run must be byte-identical to the pinned run,
    and must actually have produced heartbeats."""
    pin = PINS["quick"]
    spool_dir = str(tmp_path)
    result = _run_instrumented(spool_dir)
    assert result_digest(result) == pin["digest"], (
        "telemetry sampling perturbed the result digest"
    )
    assert result.cycles == pin["cycles"]
    assert result.extra["events_fired"] == pin["events_fired"]
    spools = list(Path(spool_dir).glob("telemetry-*.jsonl"))
    assert spools, "no spool file written"
    from repro.obs.telemetry import SpoolTailer

    records = SpoolTailer(spools[0]).poll()
    phases = {r.get("phase") for r in records}
    assert "start" in phases and "end" in phases


def test_heartbeat_overhead_within_bound():
    """10x-rate heartbeats must cost < OVERHEAD_LIMIT wall clock."""
    sample = measure()
    print()
    print(report(sample))
    _record(sample, check=True)
    assert float(sample["ratio"]) <= OVERHEAD_LIMIT, (
        f"telemetry overhead {float(sample['ratio']):.3f}x exceeds "
        f"{OVERHEAD_LIMIT:.2f}x bound"
    )


def main(argv: Optional[List[str]] = None) -> int:
    pin = PINS["quick"]
    plain = _run_plain()
    assert result_digest(plain) == pin["digest"], "disabled-path digest drift"
    with tempfile.TemporaryDirectory() as tmp:
        instrumented = _run_instrumented(tmp)
    assert result_digest(instrumented) == pin["digest"], (
        "instrumented digest drift"
    )
    print("digest parity ok (disabled == instrumented == pinned quick digest)")
    sample = measure()
    print(report(sample))
    _record(sample)
    calib = calibration_score()
    print(f"calibration {calib:,.0f} ops/s")
    if float(sample["ratio"]) > OVERHEAD_LIMIT:
        print(
            f"OVERHEAD {float(sample['ratio']):.3f}x exceeds "
            f"{OVERHEAD_LIMIT:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
