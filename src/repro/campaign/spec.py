"""Campaign cell specifications.

A *campaign* is a set of independent simulation cells — (workload, scheme,
config, seed) tuples — executed by :mod:`repro.campaign.executor` across a
worker pool.  :class:`Cell` is the unit of work: everything a worker needs
to rebuild the simulation in a fresh process, plus a deterministic
``cell_id`` that names the cell in manifests, the result log and merged
results.

The id reuses :meth:`repro.experiments.runner.ExperimentConfig.cache_key`
(human-readable prefix) and appends a short digest over the *full* cell
state — every ``HMCConfig`` field, any scheme constructor kwargs, the
trace-generation config and the fabric topology — so two cells that differ
only in a field the readable prefix does not cover still get distinct ids.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional

from repro.experiments.runner import ExperimentConfig
from repro.hmc.config import HMCConfig


def _canonical(value: Any) -> Any:
    """JSON-encodable canonical form of a cell attribute."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _digest(payload: Any) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Cell:
    """One independent simulation: the campaign's unit of work.

    ``scheme_kwargs`` are forwarded to the scheme constructor (as in
    :class:`repro.system.System`).  ``trace_config`` overrides the config
    used for *trace generation* only — sweeps generate traces under the
    default platform so every sweep point sees the same reference stream
    (matching :meth:`repro.experiments.sweep.Sweep.run`).  ``cell_id``
    covers all of these, so every cell can be served from the result log.
    It is computed once per cell: the fields are frozen, and nothing mutates
    ``scheme_kwargs`` after a cell is built.
    """

    workload: str
    scheme: str
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    scheme_kwargs: Optional[Dict[str, Any]] = None
    trace_config: Optional[HMCConfig] = None
    #: fabric topology spec ("chain:4", "ring:2", ...); ``None`` runs the
    #: single-cube :class:`~repro.system.System` path.  When set, the cell's
    #: workload names a Table II mix replicated one-stream-per-cube (see
    #: :meth:`repro.workloads.multistream.MultiStreamSpec.per_cube`).
    topology: Optional[str] = None

    @cached_property
    def cell_id(self) -> str:
        base = self.config.cache_key(self.workload, self.scheme)
        payload: Dict[str, Any] = {
            "hmc": self.config.hmc,
            "scheme_kwargs": self.scheme_kwargs,
            "trace_config": self.trace_config,
        }
        if self.topology is not None:
            # keyed in only when set: every pre-fabric cell id (caches,
            # manifests, resume state) must stay byte-identical
            payload["topology"] = self.topology
            base = f"{base}@{self.topology}"
        token = _digest(payload)
        return f"{base}|{token}"

    def describe(self) -> str:
        if self.topology is not None:
            return f"{self.workload}/{self.scheme}@{self.topology}"
        return f"{self.workload}/{self.scheme}"


def grid_cells(
    workloads: Iterable[str],
    schemes: Iterable[str],
    config: Optional[ExperimentConfig] = None,
) -> List[Cell]:
    """The (workloads x schemes) grid as a flat cell list, in the same
    (workload-major) order :func:`run_matrix` fills its matrix in."""
    cfg = config or ExperimentConfig()
    scheme_list = list(schemes)
    return [Cell(w, s, cfg) for w in workloads for s in scheme_list]


def fabric_grid_cells(
    topologies: Iterable[str],
    workloads: Iterable[str],
    schemes: Iterable[str],
    config: Optional[ExperimentConfig] = None,
) -> List[Cell]:
    """The (topology x workload x scheme) scenario grid as a flat cell list.

    Every topology spec is validated up front (a typo should fail the
    campaign at build time, not after N-1 cells have run).  Order is
    topology-major so all cells of one fabric shape land adjacent in
    manifests and summaries.
    """
    from repro.fabric.topology import parse_topology

    specs = list(topologies)
    for spec in specs:
        parse_topology(spec)
    cfg = config or ExperimentConfig()
    workload_list, scheme_list = list(workloads), list(schemes)
    return [
        Cell(w, s, cfg, topology=t)
        for t in specs
        for w in workload_list
        for s in scheme_list
    ]
