"""Parallel campaign execution: sharded, resumable experiment grids.

A campaign is a set of independent (workload, scheme, config, seed) cells —
a figure grid, a seed sweep, an ablation — executed across a
``multiprocessing`` worker pool (:class:`CellPool`, shared with ``repro
serve``) with per-cell timeouts, bounded retry, failure isolation, and a
resumable JSONL manifest.  It is the one cell path: ``run_matrix``,
``run_seeded``, ``Sweep.run``, ``repro run`` and ``python -m repro
campaign`` all call :func:`run_campaign` (``jobs=1`` runs in-process), and
:func:`build_cell_system` is the only code that turns a :class:`Cell` into
a :class:`~repro.system.System`.

Usage::

    from repro.campaign import CampaignOptions, Manifest, grid_cells, run_campaign
    from repro.experiments.runner import ExperimentConfig

    cells = grid_cells(["HM1", "LM1"], ["base", "camps-mod"],
                       ExperimentConfig(refs_per_core=2000))
    res = run_campaign(cells, CampaignOptions(jobs=4, timeout=120, retries=1),
                       manifest=Manifest("campaign.jsonl"))
    res.raise_on_failure()
    matrix = res.matrix()   # deterministic: ordered by cell id

Interrupted?  Re-run with ``CampaignOptions(..., resume=True)`` and only the
unfinished cells execute.
"""

from repro.campaign.executor import (
    CampaignError,
    CampaignOptions,
    CampaignResult,
    build_cell_system,
    execute_cell,
    matrix_digest,
    resolved_record,
    retry_delay,
    run_campaign,
    settle,
    summarize,
)
from repro.campaign.manifest import (
    MANIFEST_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
    ClaimRecord,
    Manifest,
    ManifestScan,
)
from repro.campaign.pool import STATUS_CRASH, CellPool, PoolResult, run_attempt
from repro.campaign.spec import Cell, fabric_grid_cells, grid_cells

__all__ = [
    "Cell",
    "CellRecord",
    "ClaimRecord",
    "CampaignError",
    "CampaignOptions",
    "CampaignResult",
    "CellPool",
    "Manifest",
    "ManifestScan",
    "MANIFEST_VERSION",
    "PoolResult",
    "STATUS_CRASH",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "build_cell_system",
    "execute_cell",
    "fabric_grid_cells",
    "grid_cells",
    "matrix_digest",
    "resolved_record",
    "retry_delay",
    "run_attempt",
    "run_campaign",
    "settle",
    "summarize",
]
