"""Declarative parameter sweeps.

A :class:`Sweep` names one knob (an ``HMCConfig`` field, a ``DRAMTimings``
field, or a scheme constructor kwarg), lists its values, and runs a chosen
workload/scheme for each - the shape behind every ablation bench, exposed as
a first-class API and the ``python -m repro sweep`` command::

    Sweep("pf_buffer_entries", [4, 8, 16, 32]).run("HM1", "camps-mod")
    Sweep("timings.trow_tsv", [16, 48, 64]).run("HM1", "camps-mod")
    Sweep("scheme:utilization_threshold", [2, 4, 8]).run("HM1", "camps-mod")
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.camps import CampsParams
from repro.dram.timing import DRAMTimings
from repro.hmc.config import HMCConfig
from repro.system import SimulationResult


@dataclass
class SweepPoint:
    """One knob value and its simulation outcome (vs. the shared baseline)."""

    value: Any
    result: SimulationResult
    speedup_vs_base: Optional[float] = None


@dataclass
class SweepResult:
    knob: str
    workload: str
    scheme: str
    points: List[SweepPoint] = field(default_factory=list)

    def best(self) -> SweepPoint:
        key = (
            (lambda p: p.speedup_vs_base)
            if self.points and self.points[0].speedup_vs_base is not None
            else (lambda p: p.result.geomean_ipc)
        )
        return max(self.points, key=key)

    def text(self) -> str:
        lines = [
            f"sweep of {self.knob} ({self.workload}, {self.scheme})",
            f"{'value':>10}{'ipc':>9}{'speedup':>9}{'conflicts':>10}"
            f"{'accuracy':>9}{'energy uJ':>11}",
        ]
        for p in self.points:
            spd = f"{p.speedup_vs_base:.3f}" if p.speedup_vs_base else "-"
            lines.append(
                f"{str(p.value):>10}{p.result.geomean_ipc:>9.3f}{spd:>9}"
                f"{p.result.conflict_rate:>10.3f}{p.result.row_accuracy:>9.2f}"
                f"{p.result.energy_pj / 1e6:>11.1f}"
            )
        lines.append(f"best: {self.knob}={self.best().value}")
        return "\n".join(lines)


class Sweep:
    """One-knob sweep specification.

    Knob syntax:

    * ``"<field>"``           - an :class:`HMCConfig` field
    * ``"timings.<field>"``   - a :class:`DRAMTimings` field
    * ``"scheme:<kwarg>"``    - a :class:`CampsParams` field passed to the
      scheme constructor (CAMPS-family schemes)
    """

    def __init__(self, knob: str, values: Sequence[Any]) -> None:
        if not values:
            raise ValueError("sweep needs at least one value")
        self.knob = knob
        self.values = list(values)
        self._validate()

    def _validate(self) -> None:
        if self.knob.startswith("scheme:"):
            name = self.knob.split(":", 1)[1]
            if name not in {f.name for f in dataclasses.fields(CampsParams)}:
                raise ValueError(f"unknown CampsParams field {name!r}")
        elif self.knob.startswith("timings."):
            name = self.knob.split(".", 1)[1]
            if name not in {f.name for f in dataclasses.fields(DRAMTimings) if f.init}:
                raise ValueError(f"unknown DRAMTimings field {name!r}")
        else:
            if self.knob not in {f.name for f in dataclasses.fields(HMCConfig)}:
                raise ValueError(f"unknown HMCConfig field {self.knob!r}")

    # ------------------------------------------------------------------
    def _configure(self, value: Any) -> (HMCConfig, Optional[Dict[str, Any]]):
        if self.knob.startswith("scheme:"):
            name = self.knob.split(":", 1)[1]
            params = CampsParams(**{name: value})
            return HMCConfig(), {"params": params}
        if self.knob.startswith("timings."):
            name = self.knob.split(".", 1)[1]
            timings = dataclasses.replace(DRAMTimings(), **{name: value})
            return HMCConfig(timings=timings), None
        return HMCConfig(**{self.knob: value}), None

    def run(
        self,
        workload: str,
        scheme: str = "camps-mod",
        refs_per_core: int = 2500,
        seed: int = 1,
        baseline_scheme: Optional[str] = "base",
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> SweepResult:
        """Run the sweep as one :mod:`repro.campaign`: every point (and
        its baseline) is one cell, sharded across workers with ``jobs>1``.

        Sweep cells pin ``trace_config`` to the default platform, so every
        point and baseline runs on the same reference stream; like every
        campaign they go through the result log, whose ``cell_id`` key
        covers each swept knob.
        Identical baseline cells (scheme-kwarg sweeps) dedupe to one run.
        """
        from repro.campaign import Cell, CampaignOptions, run_campaign
        from repro.experiments.runner import ExperimentConfig, default_cache

        trace_hmc = HMCConfig()
        pairs = []  # (value, point cell, baseline cell | None)
        for value in self.values:
            hmc, scheme_kwargs = self._configure(value)
            cfg = ExperimentConfig(refs_per_core=refs_per_core, seed=seed, hmc=hmc)
            point = Cell(
                workload, scheme, cfg,
                scheme_kwargs=scheme_kwargs, trace_config=trace_hmc,
            )
            base = (
                Cell(workload, baseline_scheme, cfg, trace_config=trace_hmc)
                if baseline_scheme
                else None
            )
            pairs.append((value, point, base))
        cells = [c for _, p, b in pairs for c in ((p, b) if b else (p,))]
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, timeout=timeout, retries=retries),
            cache=default_cache(),
        )
        res.raise_on_failure()
        out = SweepResult(self.knob, workload, scheme)
        for value, point, base in pairs:
            result = res.result_for(point.cell_id)
            speedup = (
                result.speedup_vs(res.result_for(base.cell_id)) if base else None
            )
            out.points.append(SweepPoint(value, result, speedup))
        return out
