"""Overhead check for the robustness layer (repro.faults + repro.sim.integrity).

The layer's design contract is "cost nothing when off": with no fault config
the link send path pays one ``retry is None`` test, and with integrity off
the engine hot loop pays one falsy ``wd_interval`` check per event.  Those
guards are too cheap to time directly, so this bench bounds them from above:
it times the default (seed-equivalent) configuration against an *armed but
inert* one - zero-probability retry buffers attached to every link direction
(enabled path, zero RNG draws) plus the full integrity monitor (watchdog +
invariant polls).  If even the armed machinery stays inside the 2% budget,
the disabled guards are far below it.

A second check pins the disabled path's *results*: the standard grid digest
must match the value recorded before the fault/integrity plumbing landed,
proving the off configuration is byte-identical to the seed tree, not just
about as fast.

Run standalone (``python benchmarks/bench_fault_overhead.py``) or under
pytest (only with an explicit path - ``pytest benchmarks/...``).  Timings
use min-of-repeats to suppress scheduler noise.
"""

from __future__ import annotations

import timeit

from repro.faults import LinkFaultConfig, LinkFaultInjector, RetryBuffer
from repro.hmc.config import HMCConfig
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix as make_mix

#: wall-clock budget for the armed-but-inert configuration vs the default
#: (the issue's acceptance bound for the disabled path, applied to the
#: strictly-more-expensive armed one)
OVERHEAD_LIMIT = 1.02

#: `matrix_digest` of the (HM1, LM1, MX1) x FIG5_SCHEMES grid at
#: refs_per_core=1000, seed=1, recorded on the tree *before* the fault
#: injection / integrity layer existed
PRE_FAULT_DIGEST = "9ff7a03c1d21e9743a435576dfec26e6d2c7efb8d5fe31a23604bc3bb1a18755"

SYSTEM_REFS = 800
REPEATS = 7


def _build(integrity: bool, inert_faults: bool) -> System:
    traces = make_mix("HM1", SYSTEM_REFS, seed=1)
    sys_ = System(
        traces,
        SystemConfig(scheme="camps-mod", integrity=integrity),
        workload="HM1",
    )
    if inert_faults:
        # attach_faults() refuses a disabled config, which is exactly what
        # makes the off path free; arm the retry machinery by hand so every
        # send pays the attached-buffer guard (load + None test + active
        # test) - a strict superset of the off path's load + None test.
        cfg = LinkFaultConfig()
        for link in sys_.host.links:
            for tag, d in (("req", link.request), ("resp", link.response)):
                d.retry = RetryBuffer(cfg, LinkFaultInjector(cfg, link.link_id, tag))
    return sys_


def _run(integrity: bool = False, inert_faults: bool = False) -> None:
    _build(integrity, inert_faults).run()


MODES = {
    "off": lambda: _run(),
    "inert-faults": lambda: _run(inert_faults=True),
    "armed": lambda: _run(integrity=True, inert_faults=True),
}


def measure(rounds: int = REPEATS):
    """Return {mode: [seconds per round]}, sampled in interleaved rounds.

    Interleaving (off, inert, armed, off, inert, armed, ...) means slow
    drift - thermal throttling, a noisy neighbour on a shared CI box -
    hits every mode equally instead of biasing whichever was timed last."""
    samples = {mode: [] for mode in MODES}
    for _ in range(rounds):
        for mode, fn in MODES.items():
            samples[mode].append(timeit.timeit(fn, number=1))
    return samples


def best_paired_ratio(samples, mode: str) -> float:
    """Min over rounds of the per-round ratio vs the off configuration.

    Pairing within a round cancels drift that min-of-mins cannot: a burst
    of machine noise inflates both modes of the round it lands on, so the
    quietest round's ratio estimates the true overhead, while a real
    regression inflates the ratio of *every* round and still fails the
    bound."""
    return min(m / o for m, o in zip(samples[mode], samples["off"]))


def report(samples) -> str:
    base = min(samples["off"])
    lines = ["fault/integrity overhead (min of rounds, paired ratio vs off):"]
    for mode, times in samples.items():
        ratio = best_paired_ratio(samples, mode)
        lines.append(f"  {mode:<14} {min(times) * 1e3:8.2f} ms  {ratio:5.3f}x")
    return "\n".join(lines)


def test_armed_inert_overhead_within_budget():
    """Armed-but-inert faults + integrity must stay within the 2% budget.

    The armed configuration strictly dominates the disabled one (it runs
    every guard the disabled path runs, plus the machinery behind it), so
    this bound also covers the seed-vs-disabled delta the issue caps."""
    samples = measure()
    print()
    print(report(samples))
    ratio = best_paired_ratio(samples, "armed")
    assert ratio <= OVERHEAD_LIMIT, (
        f"armed-inert overhead {ratio:.3f}x exceeds {OVERHEAD_LIMIT:.2f}x budget"
    )


def test_inert_fault_run_byte_identical():
    """Zero-probability retry buffers must not perturb results at all."""
    plain = _build(integrity=False, inert_faults=False).run()
    inert = _build(integrity=False, inert_faults=True).run()
    assert inert.cycles == plain.cycles
    assert inert.core_ipc == plain.core_ipc
    assert inert.energy_pj == plain.energy_pj


def test_disabled_grid_digest_matches_pre_fault_tree(tmp_path):
    """The standard grid, faults disabled, reproduces the digest pinned
    before this subsystem existed - the off path is byte-identical."""
    from repro.campaign import Manifest, matrix_digest
    from repro.experiments.figures import FIG5_SCHEMES
    from repro.experiments.runner import ExperimentConfig, run_matrix

    cfg = ExperimentConfig(refs_per_core=1000, seed=1)
    matrix = run_matrix(
        ["HM1", "LM1", "MX1"],
        FIG5_SCHEMES,
        cfg,
        cache=Manifest(tmp_path / "cache.jsonl"),
    )
    assert matrix_digest(matrix) == PRE_FAULT_DIGEST


def test_faulty_run_deterministic():
    """A fixed fault seed reproduces identical retry counts and results."""
    hmc = HMCConfig(faults=LinkFaultConfig(ber=2e-5, seed=7))

    def run():
        traces = make_mix("HM1", SYSTEM_REFS, seed=1)
        return System(
            traces, SystemConfig(hmc=hmc, scheme="camps-mod"), workload="HM1"
        ).run()

    a, b = run(), run()
    assert a.extra["link_faults"] == b.extra["link_faults"]
    assert a.extra["link_faults"]["replays"] > 0
    assert a.cycles == b.cycles and a.energy_pj == b.energy_pj


if __name__ == "__main__":
    print(report(measure()))
