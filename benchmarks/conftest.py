"""Shared fixtures for the benchmark harness.

Scale knobs (environment):

* ``REPRO_REFS``  - memory references per core per mix (default 4000).
* ``REPRO_SEED``  - trace seed (default 1).
* ``REPRO_MIXES`` - comma-separated subset of Table II mixes (default: all 12).
* ``REPRO_CACHE`` - result log path, a JSONL manifest ("off" to disable).
* ``REPRO_JOBS``  - worker processes for the shared grid (default 1 =
  serial; >1 shards the grid through ``repro.campaign``).

The five paper schemes over the selected mixes are simulated once per session
(and cached on disk across sessions); every figure bench reads from that
shared matrix, so the full `pytest benchmarks/ --benchmark-only` run costs
one grid simulation plus the ablations.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import FIG5_SCHEMES, required, run_scale
from repro.experiments.runner import ExperimentConfig, run_matrix
from repro.workloads.mixes import mix_names

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent


def history_path() -> Path:
    """Where benchmark results accumulate (``REPRO_BENCH_HISTORY`` overrides,
    e.g. to keep CI runs out of the committed history)."""
    raw = os.environ.get("REPRO_BENCH_HISTORY")
    return Path(raw) if raw else REPO_ROOT / "BENCH_history.jsonl"


def record_bench_history(
    bench: str,
    wall_seconds: float,
    calib_ops_per_s: float | None = None,
    normalized: float | None = None,
    digest: str | None = None,
    meta: dict | None = None,
) -> dict:
    """Shared perf-trend writer: append one result to BENCH_history.jsonl.

    Every bench records (digest, normalized wall time, git SHA, timestamp);
    ``repro bench-trend`` flags regressions against the rolling median.
    With ``calib_ops_per_s`` the wall time is scaled by the machine's
    calibration score (``wall * calib / 1e6``) so histories from different
    machines share one scale; an explicitly ``normalized`` value (e.g. a
    paired overhead ratio) wins outright.
    """
    from repro.obs.trend import append_entry

    if normalized is None and calib_ops_per_s:
        normalized = wall_seconds * calib_ops_per_s / 1e6
    return append_entry(
        history_path(),
        bench,
        wall_seconds,
        normalized=normalized,
        digest=digest,
        meta=meta,
    )


def selected_mixes():
    raw = os.environ.get("REPRO_MIXES")
    if not raw:
        return mix_names()
    names = [m.strip() for m in raw.split(",") if m.strip()]
    unknown = [m for m in names if m not in mix_names()]
    if unknown:
        raise ValueError(f"unknown mixes in REPRO_MIXES: {unknown}")
    return names


@pytest.fixture(scope="session")
def experiment_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def mixes():
    return selected_mixes()


def selected_jobs():
    raw = os.environ.get("REPRO_JOBS")
    jobs = int(raw) if raw else 1
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1, got {raw!r}")
    return jobs


@pytest.fixture(scope="session")
def paper_matrix(experiment_config, mixes):
    """The (mixes x 5 paper schemes) result grid every figure reads.

    ``REPRO_JOBS>1`` shards the grid across a repro.campaign worker pool;
    the merged matrix is deterministic, so every downstream figure bench
    sees identical data either way.
    """
    return run_matrix(
        mixes, FIG5_SCHEMES, experiment_config, progress=True, jobs=selected_jobs()
    )


@pytest.fixture(scope="session")
def claims_scale(experiment_config, mixes):
    """The claim scale of this run (``tier1``, ``full`` or None).

    Each row of :data:`repro.experiments.figures.CLAIMS` must hold from its
    scale up (``full``: REPRO_REFS >= 3000 over all 12 mixes); runs below
    tier-1 scale still print every table but check no claim.
    """
    return run_scale(experiment_config.refs_per_core, mixes)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(figure_data, results_dir, name):
    """Print a figure table and persist it as CSV."""
    from repro.metrics.report import write_csv

    print()
    print(figure_data.text())
    write_csv(
        figure_data.per_workload,
        figure_data.schemes,
        results_dir / f"{name}.csv",
        summary=figure_data.summary,
    )


def check_claims(figures, scale):
    """Assert every claim on ``figures`` ({name: FigureData}) that must hold
    at ``scale``."""
    summaries = {name: data.summary for name, data in figures.items()}
    broken = [
        c.verdict(summaries) for c in required(scale, summaries) if not c.holds(summaries)
    ]
    assert not broken, "claims broken at this scale:\n" + "\n".join(broken)
