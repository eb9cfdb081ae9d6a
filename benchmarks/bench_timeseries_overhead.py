"""Overhead and identity check for the epoch timeseries sampler.

The sampler (repro.obs.timeseries) has a two-part contract:

* **Absent = free.**  Sampling is pull-based: the sampler reads counters on
  its own weak epoch tick, so an unsampled run contains no emit sites at
  all.  There is nothing to guard and nothing to pay for.
* **Present = invisible to results.**  The epoch tick is a *weak* engine
  event: it never extends the run (the loop exits when the last strong
  event fires) and compensates the ``events_fired`` count, so a sampled run
  must reproduce the unsampled result digest bit-for-bit - including
  ``events_fired`` and the hot-path pins in ``tests/pins.py``.

This bench asserts both halves on the pinned quick configuration (CAMPS,
MX1, seed 1, 800 refs/core): digest parity sampled vs unsampled vs the
committed pin, and wall-clock overhead of sampling at the default epoch.
The overhead measurement interleaves off/on rounds (paired, min-of-rounds)
so slow machine drift hits both modes equally.

Run standalone (``python benchmarks/bench_timeseries_overhead.py``) or
under pytest with an explicit path.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.obs.timeseries import DEFAULT_EPOCH  # noqa: E402
from repro.system import System, SystemConfig  # noqa: E402
from repro.workloads.mixes import mix as make_mix  # noqa: E402
from tests.pins import MIX, PINS, SCHEME, SEED, result_digest  # noqa: E402

#: allowed sampled/unsampled wall-time ratio at the default epoch.  The true
#: cost is one weak event plus ~40 counter reads per 1024 cycles; the bound
#: is the issue's acceptance threshold.
OVERHEAD_LIMIT = 1.03

REFS = PINS["quick"]["refs"]
ROUNDS = 6


def _build(epoch: Optional[int]) -> System:
    traces = make_mix(MIX, REFS, seed=SEED)
    cfg = SystemConfig(scheme=SCHEME, timeseries_epoch=epoch)
    return System(traces, cfg, workload=MIX)


def _run(epoch: Optional[int]):
    return _build(epoch).run()


def measure() -> Dict[str, object]:
    """Paired timing: one off/on pair per round, overhead = best pair ratio.

    Both runs of a pair execute back-to-back and their order alternates
    every round, so machine drift and ordering effects hit the two modes
    symmetrically; the *minimum per-pair ratio* is then the least-noisy
    overhead estimate (shared CI boxes jitter by more than the ~1 % effect
    being measured, so unpaired mins routinely lie in either direction).
    One untimed warmup per mode primes allocator and caches; garbage is
    collected before every timed run so a prior round's churn cannot bill a
    GC pause to the wrong mode.
    """
    import gc

    def timed(epoch: Optional[int]) -> float:
        system = _build(epoch)
        gc.collect()
        t0 = perf_counter()
        system.run()
        return perf_counter() - t0

    for epoch in (None, DEFAULT_EPOCH):
        _build(epoch).run()  # warmup
    off: List[float] = []
    on: List[float] = []
    ratios: List[float] = []
    for i in range(ROUNDS):
        if i % 2:
            t_on = timed(DEFAULT_EPOCH)
            t_off = timed(None)
        else:
            t_off = timed(None)
            t_on = timed(DEFAULT_EPOCH)
        off.append(t_off)
        on.append(t_on)
        ratios.append(t_on / t_off)
    return {
        "refs": REFS,
        "rounds": ROUNDS,
        "epoch": DEFAULT_EPOCH,
        "off_s": min(off),
        "on_s": min(on),
        "ratio": min(ratios),
    }


def report(sample: Dict[str, object]) -> str:
    return (
        f"timeseries sampling overhead (best of {sample['rounds']} "
        f"alternating off/on pairs, epoch={sample['epoch']}):\n"
        f"  off {float(sample['off_s']) * 1e3:8.2f} ms (best)\n"
        f"  on  {float(sample['on_s']) * 1e3:8.2f} ms (best)\n"
        f"  best paired ratio {float(sample['ratio']):.3f}x"
    )


def test_sampled_digest_matches_unsampled_and_pin():
    """Sampling at the default epoch must not perturb results at all.

    Both the unsampled and the sampled run must reproduce the committed
    quick pin - same digest, same cycle count, same events_fired - proving
    the weak tick neither extends the run nor leaks into the event count.
    """
    pin = PINS["quick"]
    plain = _run(None)
    sampled = _run(DEFAULT_EPOCH)
    assert result_digest(plain) == pin["digest"]
    assert result_digest(sampled) == pin["digest"], (
        "sampling perturbed the result digest"
    )
    assert sampled.cycles == pin["cycles"]
    assert sampled.extra["events_fired"] == pin["events_fired"]
    # and the sampler actually ran: series were populated
    ts = sampled.extra["timeseries"]
    assert ts["samples_taken"] > 0
    assert ts["series"]["buffer.hit_rate"]["values"]


def test_sampling_overhead_within_bound():
    """Default-epoch sampling must cost less than OVERHEAD_LIMIT."""
    sample = measure()
    print()
    print(report(sample))
    assert float(sample["ratio"]) <= OVERHEAD_LIMIT, (
        f"sampling overhead {float(sample['ratio']):.3f}x exceeds "
        f"{OVERHEAD_LIMIT:.2f}x bound"
    )


if __name__ == "__main__":
    test_sampled_digest_matches_unsampled_and_pin()
    print("digest parity ok (sampled == unsampled == pinned quick digest)")
    print(report(measure()))
