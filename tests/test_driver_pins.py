"""Result pins for the experiment drivers at ``jobs=1``.

``run_matrix``, ``run_seeded`` and ``Sweep.run`` are the paper's grid
drivers (Figs. 5-9, the seed study, the ablations).  These tests pin the
persisted-summary digest of each on tiny inputs through a fresh result
log, so any change to how a driver builds traces, systems or results shows up
as a digest change rather than passing silently.  The hot-path quick pin
(``benchmarks/bench_hotpath.py``) runs here too, tied to the model version,
and so does the fabric chain:2 pin (``benchmarks/bench_fabric_scaling.py``),
the only tier-1 check of the router path's event order.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.campaign import Manifest, matrix_digest
from repro.experiments.runner import _CACHED_FIELDS, ExperimentConfig, run_matrix
from repro.experiments.seeds import run_seeded
from repro.experiments.sweep import Sweep

TINY = ExperimentConfig(refs_per_core=150, seed=1)


@pytest.fixture
def log(tmp_path):
    return Manifest(tmp_path / "pins.jsonl")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sweep_digest(result) -> str:
    return _digest([
        [p.value, {f: getattr(p.result, f) for f in _CACHED_FIELDS},
         p.speedup_vs_base]
        for p in result.points
    ])


class TestDriverPins:
    def test_run_matrix_serial(self, log):
        m = run_matrix(["LM4", "HM1"], ["none", "base", "camps-mod"], TINY,
                       cache=log)
        assert m.workloads() == ["LM4", "HM1"]
        assert m.schemes() == ["none", "base", "camps-mod"]
        assert matrix_digest(m)[:16] == "0a108a9f5e3404fc"

    def test_run_seeded_serial(self, log):
        s = run_seeded(["LM4"], ["base", "camps-mod"], TINY, seeds=(1, 2),
                       cache=log)
        payload = {
            w: {k: list(c.values) for k, c in row.items()}
            for w, row in s.per_workload.items()
        }
        assert _digest(payload) == "75dbff8b1b1b25d4"

    def test_sweep_hmc_knob_serial(self):
        r = Sweep("pf_buffer_entries", [4, 8]).run("LM4", refs_per_core=150)
        assert _sweep_digest(r) == "debab3240d931834"

    def test_sweep_scheme_knob_serial(self):
        r = Sweep("scheme:utilization_threshold", [2, 8]).run(
            "HM1", refs_per_core=150
        )
        assert _sweep_digest(r) == "aff1b59810457172"


def _bench(name: str):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_quick_hotpath_pin_matches_model_version():
    _bench("bench_hotpath").test_quick_digest_parity()  # digest, events, version


def test_chain2_fabric_pin():
    _bench("bench_fabric_scaling").test_chain2_digest_parity()  # routed path
