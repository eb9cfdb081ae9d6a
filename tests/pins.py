"""Result pins: the bytes a speed-up must reproduce.

Each pin is a SHA-256 over every cached ``SimulationResult`` field plus
``events_fired`` (:func:`result_digest`), so even the number of engine
events must not drift.  ``tests/test_driver_pins.py`` checks every pin in
tier-1; the timeseries and telemetry overhead benches check their
instrumented runs against :data:`PINS`.

* :data:`PINS` - the Table I configuration (CAMPS, MX1, seed 1) at the
  full and quick scales, recorded before the hot-path overhaul (commit
  2c60462).
* :data:`MODEL_VERSIONS` - append-only: every quick-pin digest the model
  has produced, with the ``repro.__version__`` it shipped as.  A re-pin
  appends a row *and* bumps the version (cell ids, and so result-log keys,
  carry it).
* :data:`FABRIC_PINS` - one cube, which is the single-cube quick pin in
  different clothes, and the routed chain:2 / chain:4 paths, whose digests
  fold in the hop accounting.
* :data:`PROBE_DIGEST` - the campaign-matrix digest of :data:`PROBE_SPECS`,
  the fixed grid the service saturation bench submits after the burst.
"""

from __future__ import annotations

import hashlib
import json

from repro.fabric import FabricConfig, FabricSystem, FabricSystemConfig
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix
from repro.workloads.multistream import MultiStreamSpec, build_stream_traces

MIX = "MX1"
SCHEME = "camps"
SEED = 1

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

MODEL_VERSIONS = [
    ("856e367d2cdb96293482ee7f3d7b5fbf4f5bcf951cf38e69d128475a7fec65d0", "1.1.0"),
]

#: topology -> (refs/core, digest)
FABRIC_PINS = {
    "chain:1": (800, PINS["quick"]["digest"]),
    "chain:2": (500, "7d00ad398f0ed2a72190a5fa2ec615047cc65dad2f85dd841d7f7f9faa10f1ab"),
    "chain:4": (500, "168270c880a2dc7309aa3f416f06fb31e844bc21c7251d3e44f2f47abc073004"),
}

PROBE_SPECS = [
    {"workload": w, "scheme": s, "refs": 600, "seed": 1}
    for w in ("HM1", "LM1")
    for s in ("base", "camps")
]
PROBE_DIGEST = "d3b4995a802872933687facfe1e22caad95ac284bff17ac4107d47e8f5480023"


def build_system(refs: int) -> System:
    """The pinned single-cube configuration at ``refs`` per core."""
    return System(mix(MIX, refs, seed=SEED), SystemConfig(scheme=SCHEME), workload=MIX)


def build_fabric(topology: str, refs: int) -> FabricSystem:
    """The pinned configuration on a fabric of ``topology``."""
    fabric = FabricConfig.from_spec(topology)
    spec = MultiStreamSpec.per_cube(MIX, fabric.cubes, refs, seed=SEED)
    return FabricSystem(
        build_stream_traces(spec, fabric),
        FabricSystemConfig(fabric=fabric, scheme=SCHEME),
        workload=MIX,
    )


def result_digest(result, cubes: int = 1) -> str:
    """SHA-256 over every cached result field plus ``events_fired``; a
    multi-cube result also folds in its hop accounting, so a one-cube
    fabric hashes exactly like the single-cube system."""
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
