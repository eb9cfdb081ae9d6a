"""Campaign scaling: sharded execution must match — and beat — the serial loop.

Pins the PR's acceptance criterion: a 4-worker campaign over the fig5
(workloads x schemes) grid with a *cold* cache produces a ``ResultMatrix``
byte-identical to the serial run (same ``matrix_digest``), and on a machine
with >= 4 cores completes in <= 0.5x the serial wall-clock.  The identity
assertion holds everywhere; the wall-clock assertion is only meaningful
with real parallel hardware, so it is gated on ``os.cpu_count() >= 4``.

Scale: defaults to three representative mixes at <= 1000 refs/core so the
serial leg stays a few seconds; REPRO_MIXES/REPRO_REFS raise it.
"""

import os
import time

from repro.campaign import Manifest, matrix_digest
from repro.experiments.figures import FIG5_SCHEMES
from repro.experiments.runner import ExperimentConfig, run_matrix

from conftest import selected_mixes

JOBS = 4


def _representative_mixes():
    if os.environ.get("REPRO_MIXES"):
        return selected_mixes()
    return ["HM1", "LM1", "MX1"]


def test_campaign_parallel_identical_and_faster(benchmark, tmp_path):
    mixes = _representative_mixes()
    refs = min(ExperimentConfig().refs_per_core, 1000)
    cfg = ExperimentConfig(refs_per_core=refs, seed=1)

    def both():
        t0 = time.perf_counter()
        serial = run_matrix(
            mixes, FIG5_SCHEMES, cfg, cache=Manifest(tmp_path / "serial.jsonl")
        )
        serial_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_matrix(
            mixes,
            FIG5_SCHEMES,
            cfg,
            cache=Manifest(tmp_path / "parallel.jsonl"),
            jobs=JOBS,
        )
        parallel_wall = time.perf_counter() - t0
        return serial, serial_wall, parallel, parallel_wall

    serial, serial_wall, parallel, parallel_wall = benchmark.pedantic(
        both, rounds=1, iterations=1
    )

    cells = len(mixes) * len(FIG5_SCHEMES)
    print(f"\nCampaign scaling ({cells} cells, {refs} refs/core, cold caches)")
    print(f"  serial (jobs=1)   {serial_wall:>8.2f} s")
    print(f"  campaign (jobs={JOBS}) {parallel_wall:>8.2f} s "
          f"({serial_wall / parallel_wall:.2f}x, {os.cpu_count()} cores)")

    # Determinism holds on any machine: both paths must agree byte-for-byte
    # on every persisted summary field, in the same matrix order.
    assert matrix_digest(serial) == matrix_digest(parallel)
    assert serial.workloads() == parallel.workloads()
    assert serial.schemes() == parallel.schemes()

    # The acceptance bound needs real cores to shard across.
    if (os.cpu_count() or 1) >= 4:
        assert parallel_wall <= 0.5 * serial_wall, (
            f"4-worker campaign took {parallel_wall:.2f}s vs "
            f"{serial_wall:.2f}s serial"
        )
