"""Experiment scale, the result cache, and the (mix x scheme) grid driver.

A full figure needs up to 5 schemes x 12 mixes; each cell is an independent
simulation, but all schemes of one mix share the *same* generated traces
(that is what makes the normalized comparisons meaningful).
:func:`run_matrix` hands the grid to :func:`repro.campaign.run_campaign`
for any ``jobs`` value; every cell runs through
:func:`repro.campaign.executor.execute_cell`, whose builder makes a mix's
traces once for consecutive cells of that mix.  Completed cell summaries
are cached on disk keyed by every input that affects the result, so
re-running a bench or running several benches that share cells costs
nothing the second time.

Scale knobs come from the environment so the same benchmarks serve both
quick CI runs and full reproductions:

* ``REPRO_REFS``  - memory references per core per mix (default 4000)
* ``REPRO_SEED``  - trace generation seed (default 1)
* ``REPRO_CACHE`` - cache file path (default ``.repro_cache.json``;
  set to ``off`` to disable)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional

import repro
from repro.hmc.config import HMCConfig
from repro.metrics.collectors import ResultMatrix
from repro.system import SimulationResult


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
        # Fault injection changes results, so it must key the cache - but
        # only when enabled, keeping fault-free keys (and every existing
        # cache entry) byte-identical to the pre-fault layout.
        f = self.hmc.faults
        if f.enabled:
            key += (
                f":faults=ber{f.ber}:drop{f.drop_prob}:fseed{f.seed}"
                f":mr{f.max_retries}:rl{f.retry_latency}:tl{f.retrain_latency}"
            )
        return key


# Summary fields persisted to (and restored from) the cache.  Bump
# _CACHE_SCHEMA whenever this list (or the meaning of a field) changes so
# stale cache files are invalidated wholesale instead of raising KeyError.
_CACHE_SCHEMA = 2

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


class ResultCache:
    """JSON file cache of simulation summaries, safe for concurrent writers.

    Persistence is crash- and concurrency-safe: :meth:`flush` re-reads the
    file, merges this process's entries over whatever other workers wrote in
    the meantime, then atomically replaces the file via a temp file and
    ``os.replace`` — a killed or concurrent writer can never leave a torn or
    clobbered cache.  :meth:`put` only updates memory; callers batch any
    number of puts behind one :meth:`flush` (a campaign flushes once per
    run, so a full matrix is not O(cells^2) in rewrite cost).

    The file records a schema version and the persisted field list; caches
    written before a ``_CACHED_FIELDS`` change (or in the pre-schema flat
    format) are invalidated on load instead of raising ``KeyError``.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        raw = os.environ.get("REPRO_CACHE", ".repro_cache.json")
        self.enabled = raw.lower() != "off"
        self.path = path or Path(raw if self.enabled else ".repro_cache.json")
        self._dirty = False
        self._data: Dict[str, dict] = (
            self._read_file(self.path) if self.enabled else {}
        )

    @staticmethod
    def _read_file(path: Path) -> Dict[str, dict]:
        """Entries from a cache file; {} for missing/corrupt/legacy files."""
        try:
            raw = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return {}
        if not isinstance(raw, dict):
            return {}
        if raw.get("schema") != _CACHE_SCHEMA or raw.get("fields") != _CACHED_FIELDS:
            return {}  # legacy or foreign schema: invalidate wholesale
        entries = raw.get("entries")
        return entries if isinstance(entries, dict) else {}

    def get(self, key: str) -> Optional[SimulationResult]:
        if not self.enabled:
            return None
        raw = self._data.get(key)
        if raw is None:
            return None
        try:
            return SimulationResult(
                extra={"cached": True}, **{f: raw[f] for f in _CACHED_FIELDS}
            )
        except (KeyError, TypeError):
            return None  # malformed entry: treat as a miss

    def put(self, key: str, result: SimulationResult) -> None:
        """Record a summary in memory; persist on the next :meth:`flush`."""
        if not self.enabled:
            return
        self._data[key] = {f: getattr(result, f) for f in _CACHED_FIELDS}
        self._dirty = True

    def flush(self) -> None:
        """Merge-on-write persist: atomic, last-flusher-wins per entry."""
        if not (self.enabled and self._dirty):
            return
        merged = self._read_file(self.path)
        merged.update(self._data)
        self._data = merged
        payload = {
            "schema": _CACHE_SCHEMA,
            "fields": _CACHED_FIELDS,
            "entries": merged,
        }
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, self.path)
        except OSError:
            try:  # caching is best-effort
                tmp.unlink()
            except OSError:
                pass
        self._dirty = False


_default_cache: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache


def run_matrix(
    workloads: Iterable[str],
    schemes: Iterable[str],
    config: Optional[ExperimentConfig] = None,
    cache: Optional[ResultCache] = None,
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
    :class:`~repro.campaign.CampaignError`.
    """
    # Deferred import: repro.campaign imports this module.
    from repro.campaign import CampaignOptions, grid_cells, run_campaign

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
