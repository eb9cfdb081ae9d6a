"""Multi-cube fabric scaling pin: digests and throughput per topology.

The fabric subsystem (``repro.fabric``) must satisfy two contracts:

* **Degenerate parity** - a one-cube fabric is the single-cube ``System``
  in different clothes: same result fields, same event count, same energy
  to the last bit.  This bench asserts the 1-cube FabricSystem reproduces
  ``bench_hotpath``'s pinned *pre-overhaul* digest exactly - the fabric
  path is pinned to the same reference the hot-path overhaul is.
* **Multi-cube determinism** - chain:2 and chain:4 results (including the
  hop-flit count and hop histogram, which exercise the routing and
  inter-cube serialization paths) are pinned; any drift in routing,
  per-hop costs or stream placement fails loudly.

Throughput per topology is measured (min over rounds, fresh FabricSystem
per round), written to ``BENCH_fabric.json``, and appended to
``BENCH_history.jsonl`` so ``repro bench-trend --check`` gates scaling
regressions the same way it gates the single-cube hot path.

CI runs ``--quick --check``: digest parity (all three pins) plus a
calibration-normalized cycles/sec comparison against the committed
``BENCH_fabric.json``, failing on a >25% regression (the fabric path is
shorter-running than the hot-path bench, so it gets a little more noise
headroom).

Run standalone (``python benchmarks/bench_fabric_scaling.py [--quick]
[--check]``) or under pytest with an explicit path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_hotpath import PINS as HOTPATH_PINS  # noqa: E402
from bench_hotpath import calibration_score  # noqa: E402
from conftest import record_bench_history  # noqa: E402

from repro.fabric import (  # noqa: E402
    FabricConfig,
    FabricSystem,
    FabricSystemConfig,
)
from repro.workloads.multistream import (  # noqa: E402
    MultiStreamSpec,
    build_stream_traces,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_fabric.json"

SCHEME = "camps"
MIX = "MX1"
SEED = 1

#: pinned result digests per (topology, refs/core).  The chain:1 entry IS
#: bench_hotpath's quick pin - the pre-overhaul single-cube reference - so
#: the degenerate fabric is pinned to the same bytes the System hot path is.
#: chain:2/chain:4 pin the routed multi-cube path (their digests fold in
#: hop_flits and the hop histogram).
PINS = {
    "chain:1": {
        "refs": 800,
        "digest": HOTPATH_PINS["quick"]["digest"],
        "hotpath_parity": True,
    },
    "chain:2": {
        "refs": 500,
        "digest": "7d00ad398f0ed2a72190a5fa2ec615047cc65dad2f85dd841d7f7f9faa10f1ab",
    },
    "chain:4": {
        "refs": 500,
        "digest": "168270c880a2dc7309aa3f416f06fb31e844bc21c7251d3e44f2f47abc073004",
    },
}

#: allowed calibration-normalized cycles/sec regression in --check mode
REGRESSION_LIMIT = 0.25

ROUNDS = 3


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
def _build(topology: str, refs: int) -> FabricSystem:
    fabric = FabricConfig.from_spec(topology)
    spec = MultiStreamSpec.per_cube(MIX, fabric.cubes, refs, seed=SEED)
    return FabricSystem(
        build_stream_traces(spec, fabric),
        FabricSystemConfig(fabric=fabric, scheme=SCHEME),
        workload=MIX,
    )


def result_digest(result, cubes: int) -> str:
    """SHA-256 over every cached result field plus events_fired; multi-cube
    results also fold in the hop accounting (routing-path coverage).

    For ``cubes == 1`` the payload is byte-identical to
    ``bench_hotpath.result_digest`` - that is what makes the chain:1 pin
    interchangeable with the hot-path quick pin.
    """
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
    if cubes > 1:
        fx = result.extra["fabric"]
        payload["hop_flits"] = fx["hop_flits"]
        payload["hop_histogram"] = {
            str(k): v for k, v in sorted(fx["hop_histogram"].items())
        }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def measure(topology: str, rounds: int = ROUNDS) -> Dict[str, object]:
    """Time ``FabricSystem.run()`` (min over rounds, fresh fabric per round)
    and verify the digest against this topology's pin."""
    pin = PINS[topology]
    refs = int(pin["refs"])
    cubes = FabricConfig.from_spec(topology).cubes
    walls: List[float] = []
    result = None
    for _ in range(rounds):
        fsys = _build(topology, refs)
        t0 = perf_counter()
        result = fsys.run()
        walls.append(perf_counter() - t0)
    digest = result_digest(result, cubes)
    wall = min(walls)
    fx = result.extra["fabric"]
    return {
        "topology": topology,
        "refs": refs,
        "cubes": cubes,
        "rounds": rounds,
        "wall_s": wall,
        "cycles": result.cycles,
        "events_fired": result.extra["events_fired"],
        "cycles_per_sec": result.cycles / wall,
        "hop_flits": fx["hop_flits"],
        "mean_hops": fx["mean_hops"],
        "digest": digest,
        "digest_ok": digest == pin["digest"],
    }


def _history_name(topology: str) -> str:
    return "fabric_" + topology.replace(":", "")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def generate(quick_only: bool = False) -> int:
    """Measure every pinned topology and (re)write BENCH_fabric.json."""
    calib = calibration_score()
    topologies = ["chain:1", "chain:2"] if quick_only else list(PINS)
    samples = {t: measure(t) for t in topologies}
    ok = True
    for topology, sample in samples.items():
        mark = "ok" if sample["digest_ok"] else "MISMATCH"
        ok = ok and bool(sample["digest_ok"])
        print(
            f"{topology:<8} refs={sample['refs']:<4} cubes={sample['cubes']} "
            f"wall={sample['wall_s']:.4f}s "
            f"cycles/s={sample['cycles_per_sec']:,.0f} "
            f"hops={sample['mean_hops']:.2f} digest {mark}"
        )
    print(f"calibration {calib:,.0f} ops/s")
    if not ok:
        print("DIGEST MISMATCH - not writing BENCH_fabric.json", file=sys.stderr)
        return 1
    payload = {
        "bench": "fabric_scaling",
        "config": {"mix": MIX, "scheme": SCHEME, "seed": SEED},
        "pinned": PINS,
        "machine": {"calib_ops_per_s": calib},
        "samples": samples,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    for topology, sample in samples.items():
        record_bench_history(
            _history_name(topology),
            wall_seconds=float(sample["wall_s"]),
            calib_ops_per_s=calib,
            digest=str(sample["digest"]),
            meta={"refs": sample["refs"], "cubes": sample["cubes"]},
        )
    return 0


def check(quick: bool = True) -> int:
    """CI gate: digest parity on every pin + normalized cycles/sec within
    REGRESSION_LIMIT of the committed BENCH_fabric.json."""
    if not RESULT_PATH.exists():
        print(
            f"missing {RESULT_PATH}; run bench_fabric_scaling.py first",
            file=sys.stderr,
        )
        return 1
    committed = json.loads(RESULT_PATH.read_text())
    calib = calibration_score()
    topologies = ["chain:1", "chain:2"] if quick else list(PINS)
    failed = False
    for topology in topologies:
        sample = measure(topology, rounds=2)
        if not sample["digest_ok"]:
            print(
                f"{topology}: digest MISMATCH {str(sample['digest'])[:16]} != "
                f"{str(PINS[topology]['digest'])[:16]} - fabric results drifted",
                file=sys.stderr,
            )
            failed = True
            continue
        record_bench_history(
            _history_name(topology),
            wall_seconds=float(sample["wall_s"]),
            calib_ops_per_s=calib,
            digest=str(sample["digest"]),
            meta={
                "refs": sample["refs"],
                "cubes": sample["cubes"],
                "mode": "check",
            },
            check=True,
        )
        reference = committed.get("samples", {}).get(topology)
        if not reference:
            print(f"{topology}: digest ok (no committed throughput sample)")
            continue
        ref_norm = float(reference["cycles_per_sec"]) / float(
            committed["machine"]["calib_ops_per_s"]
        )
        cur_norm = float(sample["cycles_per_sec"]) / calib
        ratio = cur_norm / ref_norm
        print(
            f"{topology}: digest ok; normalized cycles/sec {cur_norm:.4f} vs "
            f"committed {ref_norm:.4f} ({ratio:.2f}x)"
        )
        if ratio < 1.0 - REGRESSION_LIMIT:
            print(
                f"PERF REGRESSION: {topology} at {ratio:.2f}x of the "
                f"committed pin (limit {1.0 - REGRESSION_LIMIT:.2f}x)",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Pytest entry points (explicit path only, like the other benches)
# ----------------------------------------------------------------------
def test_one_cube_fabric_matches_hotpath_pin():
    """The degenerate fabric must reproduce bench_hotpath's pinned
    pre-overhaul digest bit-for-bit (fields, events_fired, energy)."""
    sample = measure("chain:1", rounds=1)
    assert sample["digest"] == HOTPATH_PINS["quick"]["digest"], (
        f"1-cube fabric drifted from the hot-path pin: {sample['digest']}"
    )


def test_chain2_digest_parity():
    """The 2-cube routed path must reproduce its pinned digest exactly."""
    sample = measure("chain:2", rounds=1)
    assert sample["digest"] == PINS["chain:2"]["digest"], (
        f"chain:2 fabric result drifted: {sample['digest']}"
    )


def test_committed_pin_digests_present():
    """BENCH_fabric.json, when committed, must carry the same pins this
    bench asserts (guards against editing one without the other)."""
    if not RESULT_PATH.exists():
        return  # not generated yet in this tree
    committed = json.loads(RESULT_PATH.read_text())
    assert committed["pinned"] == PINS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="chain:1 + chain:2 only (CI uses this)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed BENCH_fabric.json instead of "
        "rewriting it; fail on digest drift or >25%% normalized regression",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(quick=args.quick)
    return generate(quick_only=args.quick)


if __name__ == "__main__":
    sys.exit(main())
