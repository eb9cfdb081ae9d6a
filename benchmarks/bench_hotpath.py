"""Hot-path throughput pin for the single-run simulation loop.

The hot-path overhaul (zero-cost instrumentation, event/request pooling,
handle-free ``call_at`` scheduling, indexed FR-FCFS, inlined serialization /
histogram updates) is a pure performance change: results must stay
byte-identical.  This bench pins both halves of that contract:

* **Identity** - the Table I configuration (CAMPS scheme, MX1 mix, seed 1)
  must reproduce the result digest recorded on the tree *before* the
  overhaul, at both the full and quick scales.  Any drift fails loudly.
* **Throughput** - cycles/sec and events/sec are measured (min over rounds,
  each round timing a fresh ``System.run()``) and written to
  ``BENCH_hotpath.json`` at the repo root, together with a pure-Python
  calibration score that makes the numbers comparable across machines.
* **Attribution** - the ``profile`` block splits one quick run's engine
  time by subsystem with ``Tracer(engine_spans=True)`` (the split
  ``python -m repro profile --json`` prints); its buckets sum to that
  run's ``Engine.wall_seconds``.  The split adds cost to every event, so
  it is taken in its own run, apart from the timing rounds.

Baseline methodology: the pre-change wall time was measured with
interleaved ``git stash`` pairing on one machine - alternating old/new
processes, best of 4 runs per process, min over 6 rounds - so slow machine
drift hits both trees equally.  The measured speedup at pin time was
**1.66x** (old 1.0327 s -> new 0.6211 s on the full config).  The issue
targeted 1.8x; the honest paired measurement landed at 1.66x with results
byte-identical, and that is the number recorded here.

The batched-engine pass (cohort dispatch, time-warp idle skip, fused NumPy
bank scans) continued from that baseline:
measured against the *pre-overhaul* tree it lands at **~1.8x** cumulative
(calibration-normalized, ~0.50 s vs the 1.0327 s baseline at 3000
refs/core; the exact figure is printed per run and recorded in
``BENCH_hotpath.json``).  The issue targeted 2.5x; per the same
honest-measurement policy as the 1.8x->1.66x pin above, the achieved
number is recorded, not the target.  The cohort-dispatch loop and the
Event freelist from that pass were later removed: on the ``sim_serial``
grid neither made ``System.run()`` faster, and results stayed
byte-identical without them.  The ``batching`` block in
``BENCH_hotpath.json`` records the warped idle-span distribution (cycles
the clock jumps instead of stepping), gathered by replaying the pinned
workload one event at a time; its total must match
``Engine.idle_cycles_skipped`` exactly.

CI runs ``--quick --check``: digest parity plus a calibration-normalized
cycles/sec comparison against the committed ``BENCH_hotpath.json``, failing
on a >20% regression.

Run standalone (``python benchmarks/bench_hotpath.py [--quick] [--check]``)
or under pytest with an explicit path (``pytest benchmarks/bench_hotpath.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import record_bench_history  # noqa: E402

from repro.system import System, SystemConfig  # noqa: E402
from repro.workloads.mixes import mix as make_mix  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_hotpath.json"

SCHEME = "camps"
MIX = "MX1"
SEED = 1

#: result digests recorded on the pre-overhaul tree (commit 2c60462) for the
#: default HMCConfig; the overhaul must reproduce them bit-for-bit.  The
#: payload hashes every cached SimulationResult field *plus* events_fired,
#: which is stricter than the campaign matrix digest (that one ignores
#: ``extra``): even the number of engine events must not drift.
PINS = {
    "full": {
        "refs": 3000,
        "digest": "75cba4872fb081eb88e413f04f8cbf58f0aa7d3068967a7d8557c302a54a8811",
        "cycles": 220926,
        "events_fired": 125262,
    },
    "quick": {
        "refs": 800,
        "digest": "856e367d2cdb96293482ee7f3d7b5fbf4f5bcf951cf38e69d128475a7fec65d0",
        "cycles": 59152,
        "events_fired": 33495,
    },
}

#: append-only: every quick-pin digest the model has produced, with the
#: ``repro.__version__`` it shipped as.  A re-pin appends a row *and* bumps
#: the version (cell ids, and so result-log keys, carry it);
#: :func:`test_quick_digest_parity` fails a re-pin that does not.
MODEL_VERSIONS = [
    ("856e367d2cdb96293482ee7f3d7b5fbf4f5bcf951cf38e69d128475a7fec65d0", "1.1.0"),
]

#: pre-change baseline, measured with the paired interleaved methodology
#: described in the module docstring (full config, same machine that
#: produced the committed BENCH_hotpath.json).
BASELINE_PRE_CHANGE = {
    "wall_s": 1.0327,
    "calib_ops_per_s": 1_472_445,
    "method": (
        "interleaved git-stash pairing: alternate old/new processes, "
        "best of 4 runs per process, min over 6 rounds"
    ),
}

#: allowed calibration-normalized cycles/sec regression in --check mode
REGRESSION_LIMIT = 0.20

ROUNDS_FULL = 5
ROUNDS_QUICK = 3


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
def _build(refs: int) -> System:
    traces = make_mix(MIX, refs, seed=SEED)
    return System(traces, SystemConfig(scheme=SCHEME), workload=MIX)


def result_digest(result) -> str:
    """SHA-256 over every cached result field plus events_fired."""
    payload = {
        "cycles": result.cycles,
        "core_ipc": result.core_ipc,
        "core_instructions": result.core_instructions,
        "row_conflicts": result.row_conflicts,
        "demand_accesses": result.demand_accesses,
        "buffer_hits": result.buffer_hits,
        "prefetches_issued": result.prefetches_issued,
        "row_accuracy": result.row_accuracy,
        "line_accuracy": result.line_accuracy,
        "mean_memory_latency": result.mean_memory_latency,
        "mean_read_latency": result.mean_read_latency,
        "energy_pj": result.energy_pj,
        "link_utilization": result.link_utilization,
        "events_fired": result.extra["events_fired"],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def calibration_score(rounds: int = 3) -> float:
    """Pure-Python ops/sec score (heap churn + tuple + int arithmetic, the
    simulation's op mix) used to normalize throughput across machines."""
    n = 200_000
    best: Optional[float] = None
    for _ in range(rounds):
        h: List = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = 0
        acc = 0
        t0 = perf_counter()
        for i in range(n):
            seq += 1
            push(h, ((i * 37) & 1023, 0, seq))
            if i & 1:
                acc += pop(h)[0]
        dt = perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return n / best


def measure(refs: int, rounds: int) -> Dict[str, object]:
    """Time ``System.run()`` (min over rounds, fresh system per round) and
    verify the result digest against the pin for this scale."""
    pin = PINS["full"] if refs == PINS["full"]["refs"] else PINS["quick"]
    walls: List[float] = []
    digest = ""
    result = None
    for _ in range(rounds):
        system = _build(refs)
        t0 = perf_counter()
        result = system.run()
        walls.append(perf_counter() - t0)
    digest = result_digest(result)
    wall = min(walls)
    return {
        "refs": refs,
        "rounds": rounds,
        "wall_s": wall,
        "cycles": result.cycles,
        "events_fired": result.extra["events_fired"],
        "cycles_per_sec": result.cycles / wall,
        "events_per_sec": result.extra["events_fired"] / wall,
        "digest": digest,
        "digest_ok": digest == pin["digest"],
    }


def profile_slices(refs: int) -> Dict[str, object]:
    """Host-time split of one run by subsystem (``repro.obs.tracer``)."""
    from repro.obs.tracer import profile_run

    _result, payload = profile_run(_build(refs))
    return payload


def normalized(sample: Dict[str, object], calib: float) -> float:
    """Machine-independent throughput: simulated cycles per calibration op."""
    return float(sample["cycles_per_sec"]) / calib


# ----------------------------------------------------------------------
# Idle-span census
# ----------------------------------------------------------------------
def _bucket(n: int) -> str:
    """Power-of-two bucket label for a positive count."""
    lo = 1
    while lo * 2 <= n:
        lo *= 2
    return f"{lo}-{lo * 2 - 1}"


def idle_census(refs: int) -> Dict[str, object]:
    """One instrumented replay (separate from the timing rounds): drive the
    engine one event at a time and histogram the idle spans - the gaps
    between consecutive event cycles that the clock warps over.  The
    census total is recorded next to ``Engine.idle_cycles_skipped``; the
    two must agree.
    """
    system = _build(refs)
    engine = system.engine
    system._ran = True  # the census drives the engine manually
    for core in system.cores:
        core.start()
    idle_spans: Dict[str, int] = {}
    events = 0
    idle_cycles = 0
    max_span = 0
    last_time = engine.now
    while engine.run(max_events=1) == 1:
        events += 1
        t = engine.now
        if t - last_time > 1:
            span = t - last_time - 1
            idle_cycles += span
            idle_spans[_bucket(span)] = idle_spans.get(_bucket(span), 0) + 1
            if span > max_span:
                max_span = span
        last_time = t
    return {
        "refs": refs,
        "events": events,
        "idle": {
            "cycles_skipped": idle_cycles,
            "engine_cycles_skipped": engine.idle_cycles_skipped,
            "max_span": max_span,
            "span_histogram": dict(
                sorted(idle_spans.items(), key=lambda kv: int(kv[0].split("-")[0]))
            ),
        },
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def generate(quick_only: bool = False) -> int:
    """Measure, verify digests, and (re)write BENCH_hotpath.json."""
    calib = calibration_score()
    quick = measure(PINS["quick"]["refs"], ROUNDS_QUICK)
    full = None if quick_only else measure(PINS["full"]["refs"], ROUNDS_FULL)
    baseline_wall = BASELINE_PRE_CHANGE["wall_s"] * (
        BASELINE_PRE_CHANGE["calib_ops_per_s"] / calib
    )
    speedup = baseline_wall / float(full["wall_s"]) if full else None
    census = idle_census(
        PINS["full"]["refs"] if not quick_only else PINS["quick"]["refs"]
    )
    payload = {
        "bench": "hotpath",
        "config": {"mix": MIX, "scheme": SCHEME, "seed": SEED},
        "pinned": PINS,
        "baseline_pre_change": BASELINE_PRE_CHANGE,
        "machine": {"calib_ops_per_s": calib},
        "quick": quick,
        "full": full,
        "speedup_vs_baseline": speedup,
        "batching": census,
        "profile": profile_slices(PINS["quick"]["refs"]),
    }
    ok = bool(quick["digest_ok"]) and (full is None or bool(full["digest_ok"]))
    for label, sample in (("quick", quick), ("full", full)):
        if sample is None:
            continue
        mark = "ok" if sample["digest_ok"] else "MISMATCH"
        print(
            f"{label:<6} refs={sample['refs']:<5} wall={sample['wall_s']:.4f}s "
            f"cycles/s={sample['cycles_per_sec']:,.0f} "
            f"events/s={sample['events_per_sec']:,.0f} digest {mark}"
        )
    print(f"calibration {calib:,.0f} ops/s")
    if speedup is not None:
        print(
            f"speedup vs pre-change baseline (calibration-normalized): "
            f"{speedup:.2f}x"
        )
    idle = census["idle"]
    tally = (
        "matches"
        if idle["cycles_skipped"] == idle["engine_cycles_skipped"]
        else f"MISMATCH vs {idle['engine_cycles_skipped']}"
    )
    print(
        f"idle: {idle['cycles_skipped']} cycles warped over "
        f"{census['events']} events (longest span {idle['max_span']}; "
        f"engine tally {tally})"
    )
    if not ok:
        print("DIGEST MISMATCH - not writing BENCH_hotpath.json", file=sys.stderr)
        return 1
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    for label, sample in (("quick", quick), ("full", full)):
        if sample is not None:
            record_bench_history(
                f"hotpath_{label}",
                wall_seconds=float(sample["wall_s"]),
                calib_ops_per_s=calib,
                digest=str(sample["digest"]),
                meta={
                    "refs": sample["refs"],
                    "idle_cycles_skipped": int(idle["cycles_skipped"]),
                },
            )
    return 0


def check(quick: bool = True) -> int:
    """CI gate: digest parity + calibration-normalized cycles/sec within
    REGRESSION_LIMIT of the committed BENCH_hotpath.json."""
    if not RESULT_PATH.exists():
        print(f"missing {RESULT_PATH}; run bench_hotpath.py first", file=sys.stderr)
        return 1
    committed = json.loads(RESULT_PATH.read_text())
    label = "quick" if quick else "full"
    reference = committed.get(label)
    if not reference:
        print(f"committed BENCH_hotpath.json has no '{label}' sample", file=sys.stderr)
        return 1
    calib = calibration_score()
    sample = measure(PINS[label]["refs"], ROUNDS_QUICK)
    if not sample["digest_ok"]:
        print(
            f"digest MISMATCH: {sample['digest'][:16]} != "
            f"{PINS[label]['digest'][:16]} - results drifted",
            file=sys.stderr,
        )
        return 1
    ref_norm = float(reference["cycles_per_sec"]) / float(
        committed["machine"]["calib_ops_per_s"]
    )
    cur_norm = normalized(sample, calib)
    ratio = cur_norm / ref_norm
    record_bench_history(
        f"hotpath_{label}",
        wall_seconds=float(sample["wall_s"]),
        calib_ops_per_s=calib,
        digest=str(sample["digest"]),
        meta={"refs": sample["refs"], "mode": "check"},
        check=True,
    )
    print(
        f"{label}: digest ok; normalized cycles/sec {cur_norm:.4f} vs "
        f"committed {ref_norm:.4f} ({ratio:.2f}x; calib {calib:,.0f} ops/s)"
    )
    if ratio < 1.0 - REGRESSION_LIMIT:
        print(
            f"PERF REGRESSION: normalized throughput at {ratio:.2f}x of the "
            f"committed pin (limit {1.0 - REGRESSION_LIMIT:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# Pytest entry points (explicit path only, like the other benches)
# ----------------------------------------------------------------------
def test_quick_digest_parity():
    """The quick config must reproduce the pinned digest and event count
    exactly, and MODEL_VERSIONS must map that digest to the current
    ``repro.__version__`` (tier-1 runs this through
    ``tests/test_driver_pins.py``)."""
    import repro

    pin = PINS["quick"]
    sample = measure(pin["refs"], rounds=1)
    assert sample["digest"] == pin["digest"], (
        f"hot-path result drifted: {sample['digest']} != {pin['digest']}"
    )
    assert sample["events_fired"] == pin["events_fired"]
    versions = [version for _, version in MODEL_VERSIONS]
    assert len(versions) == len(set(versions)), "a re-pin must bump the version"
    assert dict(MODEL_VERSIONS).get(pin["digest"]) == repro.__version__


def test_committed_pin_digests_present():
    """BENCH_hotpath.json, when committed, must carry the same pins this
    bench asserts (guards against editing one without the other)."""
    if not RESULT_PATH.exists():
        return  # not generated yet in this tree
    committed = json.loads(RESULT_PATH.read_text())
    assert committed["pinned"] == PINS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="quick scale only (800 refs/core; CI uses this)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed BENCH_hotpath.json instead of "
        "rewriting it; fail on digest drift or >20%% normalized regression",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(quick=True)
    return generate(quick_only=args.quick)


if __name__ == "__main__":
    sys.exit(main())
