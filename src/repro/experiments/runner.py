"""Experiment scale, the result log, and the (mix x scheme) grid driver.

A full figure needs up to 5 schemes x 12 mixes; each cell is an independent
simulation, but all schemes of one mix share the *same* generated traces
(that is what makes the normalized comparisons meaningful).
:func:`run_matrix` hands the grid to :func:`repro.campaign.run_campaign`
for any ``jobs`` value; every cell runs through
:func:`repro.campaign.executor.execute_cell`, whose builder makes a mix's
traces once for consecutive cells of that mix.  Completed cell summaries
are appended to a result log keyed by ``cell_id`` (every input that
affects the result), so re-running a bench or running several benches that
share cells costs nothing the second time.

Scale knobs come from the environment so the same benchmarks serve both
quick CI runs and full reproductions:

* ``REPRO_REFS``  - memory references per core per mix (default 4000)
* ``REPRO_SEED``  - trace generation seed (default 1)
* ``REPRO_CACHE`` - result log path, a JSONL manifest (default
  ``.repro_cache.jsonl``; set to ``off`` to disable)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import repro
from repro.hmc.config import HMCConfig

if TYPE_CHECKING:
    from repro.campaign.manifest import Manifest
    from repro.metrics.collectors import ResultMatrix


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and platform parameters for one experiment run."""

    refs_per_core: int = field(default_factory=lambda: _env_int("REPRO_REFS", 4000))
    seed: int = field(default_factory=lambda: _env_int("REPRO_SEED", 1))
    hmc: HMCConfig = field(default_factory=HMCConfig)
    #: run cells under the integrity layer (repro.sim.integrity).  Execution
    #: policy, not a simulation input: results are identical with it on, so
    #: it never enters cache keys or cell ids.
    integrity: bool = False

    def cache_key(self, workload: str, scheme: str) -> str:
        t = self.hmc.timings
        parts = (
            repro.__version__,
            workload,
            scheme,
            self.refs_per_core,
            self.seed,
            self.hmc.vaults,
            self.hmc.banks_per_vault,
            self.hmc.pf_buffer_entries,
            self.hmc.pf_hit_latency,
            t.trcd,
            t.trp,
            t.tcl,
            t.tburst,
            t.trow_tsv,
        )
        key = ":".join(str(p) for p in parts)
        # Fault injection changes results, so it must key the id - but
        # only when enabled, keeping fault-free keys (and every existing
        # cell id) byte-identical to the pre-fault layout.
        f = self.hmc.faults
        if f.enabled:
            key += (
                f":faults=ber{f.ber}:drop{f.drop_prob}:fseed{f.seed}"
                f":mr{f.max_retries}:rl{f.retry_latency}:tl{f.retrain_latency}"
            )
        return key


# Summary fields persisted to (and restored from) the result log.  A log
# record whose summary carries any other key set is a miss, so records
# written before this list changed are ignored instead of raising KeyError
# (a change in a field's meaning comes with a version bump, which changes
# every cell_id).
_CACHED_FIELDS = [
    "scheme",
    "workload",
    "cycles",
    "core_ipc",
    "core_instructions",
    "conflict_rate",
    "row_conflicts",
    "demand_accesses",
    "buffer_hits",
    "prefetches_issued",
    "row_accuracy",
    "line_accuracy",
    "mean_memory_latency",
    "mean_read_latency",
    "energy_pj",
    "energy_breakdown",
    "link_utilization",
]


def default_cache() -> Optional[Manifest]:
    """The result log named by ``REPRO_CACHE`` (read on every call), or
    None when it is ``off``.

    The log is a :class:`~repro.campaign.manifest.Manifest` of executed ok
    cell records; :func:`repro.campaign.run_campaign` looks cells up in it
    by their full ``cell_id``.
    """
    from repro.campaign.manifest import Manifest

    raw = os.environ.get("REPRO_CACHE", ".repro_cache.jsonl")
    return None if raw.lower() == "off" else Manifest(raw)


def run_matrix(
    workloads: Iterable[str],
    schemes: Iterable[str],
    config: Optional[ExperimentConfig] = None,
    cache: Optional[Manifest] = None,
    progress: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    manifest=None,
) -> ResultMatrix:
    """Run the full (mixes x schemes) grid as one :mod:`repro.campaign`.

    ``jobs=1`` (the default) runs the cells in-process; ``jobs>1`` shards
    them across a worker pool (with optional per-cell ``timeout``,
    ``retries`` and a resumable ``manifest``).  The matrix is filled in
    workload-major order either way, and a failed cell raises
    :class:`~repro.campaign.CampaignError`.  ``cache`` is the result log
    (default :func:`default_cache`).
    """
    # Deferred imports: repro.campaign imports this module, and
    # ResultMatrix loads the simulator.
    from repro.campaign import CampaignOptions, grid_cells, run_campaign
    from repro.metrics.collectors import ResultMatrix

    cells = grid_cells(workloads, schemes, config)
    res = run_campaign(
        cells,
        CampaignOptions(jobs=jobs, timeout=timeout, retries=retries, progress=progress),
        cache=cache if cache is not None else default_cache(),
        manifest=manifest,
    )
    res.raise_on_failure()
    matrix = ResultMatrix()
    for cell in cells:
        matrix.add(res.result_for(cell.cell_id))
    return matrix
