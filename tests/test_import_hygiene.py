"""The control plane starts without the simulator.

Scheduling, submitting and following cells (``repro.campaign``,
``repro.serve``, ``repro.obs`` telemetry and spans, the CLI parser) must not
load numpy or the simulator: the package ``__init__`` re-exports resolve on
first access (:mod:`repro._lazy`), and the one place that forks workers,
:meth:`~repro.campaign.pool.CellPool.start`, imports the simulator itself
before its first fork.
"""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: packages whose ``__init__`` re-exports through repro._lazy
LAZY_PACKAGES = [
    "repro",
    "repro.cpu",
    "repro.dram",
    "repro.experiments",
    "repro.fabric",
    "repro.hmc",
    "repro.metrics",
    "repro.obs",
    "repro.serve",
    "repro.sim",
    "repro.workloads",
]

#: modules the control plane must never load
SIMULATOR = ("numpy", "repro.system", "repro.vault.controller")


def _fresh(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_control_plane_loads_no_simulator():
    out = _fresh(
        f"""
        import sys
        import repro, repro.campaign.executor, repro.serve.server
        from repro.campaign.spec import fabric_grid_cells, grid_cells
        from repro.cli import build_parser
        from repro.experiments.runner import ExperimentConfig
        from repro.workloads.mixes import mix_names

        cfg = ExperimentConfig(refs_per_core=100)
        cells = grid_cells(mix_names(), ["base", "camps-mod"], cfg)
        cells += fabric_grid_cells(["chain:2", "ring:4"], ["HM1"], ["base"], cfg)
        assert len({{c.cell_id for c in cells}}) == len(cells) == 26
        build_parser().parse_args(["submit", "--mixes", "HM1"])
        print(",".join(m for m in {SIMULATOR!r} if m in sys.modules))
        """
    )
    assert out.strip() == ""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves(package):
    mod = importlib.import_module(package)
    star: dict = {}
    exec(f"from {package} import *", star)
    assert mod.__all__, package
    for name in mod.__all__:
        assert star[name] is getattr(mod, name), f"{package}.{name}"
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_export")


def test_pool_start_preloads_the_simulator_before_any_fork():
    out = _fresh(
        """
        import sys
        from repro.campaign.executor import execute_cell
        from repro.campaign.pool import CellPool

        pool = CellPool(1, execute_cell, start_method="fork")
        before = "repro.system" in sys.modules
        pool.start(lambda result: None)
        try:
            print(before, "repro.system" in sys.modules, pool.worker_pids())
        finally:
            pool.stop()
        """
    )
    assert out.split() == ["False", "True", "[]"]
