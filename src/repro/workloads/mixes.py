"""The paper's Table II: twelve eight-core multiprogrammed workload mixes.

Four high-memory-intensity mixes (HM1-4, all constituents MPKI >= 20), four
low-intensity mixes (LM1-4), and four mixed sets (MX1-4) drawing four
benchmarks from each class.  Each mix lists exactly eight slots (one per
core); the paper repeats each benchmark twice per mix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.hmc.config import HMCConfig
from repro.workloads.spec import PROFILES

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

#: Table II, verbatim.
MIXES: Dict[str, List[str]] = {
    "HM1": ["bwaves", "gems", "gcc", "lbm", "bwaves", "gcc", "lbm", "gems"],
    "HM2": ["milc", "gems", "sphinx", "omnetpp", "sphinx", "milc", "omnetpp", "gems"],
    "HM3": ["gcc", "mcf", "lbm", "milc", "mcf", "gcc", "milc", "lbm"],
    "HM4": ["sphinx", "gcc", "lbm", "bwaves", "sphinx", "bwaves", "lbm", "gcc"],
    "LM1": ["cactus", "bzip2", "astar", "wrf", "wrf", "bzip2", "cactus", "astar"],
    "LM2": ["tonto", "zeusmp", "h264ref", "astar", "zeusmp", "h264ref", "astar", "tonto"],
    "LM3": ["bzip2", "zeusmp", "cactus", "tonto", "cactus", "zeusmp", "bzip2", "tonto"],
    "LM4": ["astar", "tonto", "bzip2", "h264ref", "tonto", "astar", "bzip2", "h264ref"],
    "MX1": ["bwaves", "gcc", "cactus", "wrf", "cactus", "gcc", "wrf", "bwaves"],
    "MX2": ["gems", "sphinx", "tonto", "h264ref", "sphinx", "gems", "h264ref", "tonto"],
    "MX3": ["milc", "lbm", "wrf", "bzip2", "lbm", "bzip2", "milc", "wrf"],
    "MX4": ["gcc", "bwaves", "bzip2", "astar", "bwaves", "gcc", "bzip2", "astar"],
}

HM_MIXES = ["HM1", "HM2", "HM3", "HM4"]
LM_MIXES = ["LM1", "LM2", "LM3", "LM4"]
MX_MIXES = ["MX1", "MX2", "MX3", "MX4"]

# sanity of the table itself (import-time: cheap, catches edits)
for _name, _benches in MIXES.items():
    assert len(_benches) == 8, f"{_name} must have 8 slots"
    for _b in _benches:
        assert _b in PROFILES, f"{_name} references unknown benchmark {_b}"


def mix_names() -> List[str]:
    """All twelve mix names in the paper's plot order."""
    return HM_MIXES + LM_MIXES + MX_MIXES


def mix_category(name: str) -> str:
    """HM / LM / MX category of a mix."""
    if name not in MIXES:
        raise ValueError(f"unknown mix {name!r}")
    return name[:2]


def mix(
    name: str,
    refs_per_core: int,
    seed: int = 0,
    config: Optional[HMCConfig] = None,
) -> List[Trace]:
    """Generate the eight per-core traces of one Table II mix.

    Core ``i`` runs the mix's ``i``-th benchmark with a per-core RNG stream
    derived from ``seed`` - same seed, same traces, every time.
    """
    from repro.workloads.synthetic import TraceGenerator  # loads numpy

    if name not in MIXES:
        raise ValueError(f"unknown mix {name!r}; available: {', '.join(MIXES)}")
    # A deterministic (non-salted) mix fingerprint: str.__hash__ is salted
    # per interpreter run and would break trace reproducibility.
    mix_id = sum(ord(c) * 31**i for i, c in enumerate(name)) % 7919
    traces = []
    for core_id, bench in enumerate(MIXES[name]):
        gen = TraceGenerator(
            bench,
            config=config,
            seed=seed * 1009 + core_id * 131 + mix_id,
            core_id=core_id,
        )
        traces.append(gen.generate(refs_per_core))
    return traces
