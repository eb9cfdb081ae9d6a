"""Multi-seed experiment aggregation: means and dispersion across seeds.

The paper reports single-run numbers; synthetic traces make seed sensitivity
a fair question, so this module runs the same (mixes x schemes) grid under
several seeds and reports per-cell mean +/- standard deviation of the Figure
5 metric, plus a stability verdict for the scheme ordering.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import ExperimentConfig, default_cache
from repro.metrics.collectors import ResultMatrix, normalized_speedups
from repro.sim.stats import geomean

if TYPE_CHECKING:
    from repro.campaign.manifest import Manifest


@dataclass(frozen=True)
class SeededCell:
    """Mean and dispersion of one (workload, scheme) speedup across seeds."""

    mean: float
    std: float
    values: Tuple[float, ...]

    @property
    def low(self) -> float:
        return self.mean - self.std

    @property
    def high(self) -> float:
        return self.mean + self.std


@dataclass
class SeededSpeedups:
    """Figure-5 speedups aggregated over seeds."""

    seeds: List[int]
    schemes: List[str]
    per_workload: Dict[str, Dict[str, SeededCell]]

    def avg(self, scheme: str) -> SeededCell:
        """Geomean-over-workloads speedup per seed, then mean/std."""
        per_seed = []
        for i in range(len(self.seeds)):
            vals = [
                row[scheme].values[i] for row in self.per_workload.values()
            ]
            per_seed.append(geomean(vals))
        a = np.asarray(per_seed)
        return SeededCell(float(a.mean()), float(a.std()), tuple(per_seed))

    def ordering_stable(self) -> bool:
        """True when the AVG scheme ordering is identical under every seed."""
        orders = set()
        for i in range(len(self.seeds)):
            avg = {
                s: geomean(
                    [row[s].values[i] for row in self.per_workload.values()]
                )
                for s in self.schemes
            }
            orders.add(tuple(sorted(avg, key=avg.get, reverse=True)))
        return len(orders) == 1

    def text(self) -> str:
        lines = [
            f"speedups over BASE, mean +/- std across seeds {self.seeds}",
        ]
        header = f"{'workload':<10}" + "".join(f"{s:>20}" for s in self.schemes)
        lines += [header, "-" * len(header)]
        for w, row in self.per_workload.items():
            cells = "".join(
                f"{row[s].mean:>13.3f}+/-{row[s].std:<5.3f}" for s in self.schemes
            )
            lines.append(f"{w:<10}{cells}")
        avg_cells = "".join(
            f"{self.avg(s).mean:>13.3f}+/-{self.avg(s).std:<5.3f}"
            for s in self.schemes
        )
        lines.append("-" * len(header))
        lines.append(f"{'AVG':<10}{avg_cells}")
        lines.append(
            "scheme ordering stable across seeds: "
            + ("yes" if self.ordering_stable() else "NO")
        )
        return "\n".join(lines)


def run_seeded(
    workloads: Iterable[str],
    schemes: Sequence[str],
    base_config: Optional[ExperimentConfig] = None,
    seeds: Sequence[int] = (1, 2, 3),
    cache: Optional[Manifest] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> SeededSpeedups:
    """Run the grid once per seed and aggregate Figure-5 speedups.

    All (seed x workload x scheme) cells form *one* campaign, so with
    ``jobs>1`` parallelism spans seeds as well as the grid.
    """
    from repro.campaign import CampaignOptions, grid_cells, run_campaign

    if not seeds:
        raise ValueError("need at least one seed")
    cfg0 = base_config or ExperimentConfig()
    workloads = list(workloads)
    schemes = list(schemes)
    grids = [
        grid_cells(workloads, schemes, dataclasses.replace(cfg0, seed=seed))
        for seed in seeds
    ]
    res = run_campaign(
        [cell for grid in grids for cell in grid],
        CampaignOptions(jobs=jobs, timeout=timeout, retries=retries),
        cache=cache if cache is not None else default_cache(),
    )
    res.raise_on_failure()
    per_seed: List[Dict[str, Dict[str, float]]] = []
    for grid in grids:
        matrix = ResultMatrix()
        for cell in grid:
            matrix.add(res.result_for(cell.cell_id))
        per_seed.append(normalized_speedups(matrix, schemes, workloads=workloads))
    per_workload: Dict[str, Dict[str, SeededCell]] = {}
    for w in workloads:
        per_workload[w] = {}
        for s in schemes:
            vals = tuple(ps[w][s] for ps in per_seed)
            a = np.asarray(vals)
            per_workload[w][s] = SeededCell(float(a.mean()), float(a.std()), vals)
    return SeededSpeedups(list(seeds), schemes, per_workload)
