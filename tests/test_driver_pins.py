"""Result pins for the experiment drivers at ``jobs=1``.

``run_matrix``, ``run_seeded`` and ``Sweep.run`` are the paper's grid
drivers (Figs. 5-9, the seed study, the ablations).  These tests pin the
persisted-summary digest of each on tiny inputs through a fresh result
log, so any change to how a driver builds traces, systems or results shows up
as a digest change rather than passing silently.  Every result pin in
``tests/pins.py`` runs here too: the hot-path full and quick pins (the quick
one tied to the model version), the fabric pins (chain:2 and chain:4 are the
only checks of the router path's event order) and the serve probe grid.
"""

import hashlib
import json

import pytest

import repro
from repro.campaign import CampaignOptions, Manifest, matrix_digest, run_campaign
from repro.experiments.runner import _CACHED_FIELDS, ExperimentConfig, run_matrix
from repro.experiments.seeds import run_seeded
from repro.experiments.sweep import Sweep
from repro.serve import cell_from_spec
from tests import pins

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


def _hotpath(scale: str):
    pin = pins.PINS[scale]
    result = pins.build_system(pin["refs"]).run()
    assert pins.result_digest(result) == pin["digest"], (
        f"hot-path {scale} result drifted: {pins.result_digest(result)}"
    )
    assert result.cycles == pin["cycles"]
    assert result.extra["events_fired"] == pin["events_fired"]


def test_full_hotpath_pin():
    _hotpath("full")


def test_quick_hotpath_pin_matches_model_version():
    """A re-pin appends a MODEL_VERSIONS row and bumps the version."""
    _hotpath("quick")
    versions = [version for _, version in pins.MODEL_VERSIONS]
    assert len(versions) == len(set(versions)), "a re-pin must bump the version"
    assert dict(pins.MODEL_VERSIONS).get(pins.PINS["quick"]["digest"]) == (
        repro.__version__
    )


def _fabric(topology: str, cubes: int):
    refs, digest = pins.FABRIC_PINS[topology]
    result = pins.build_fabric(topology, refs).run()
    assert pins.result_digest(result, cubes) == digest, (
        f"{topology} fabric result drifted: {pins.result_digest(result, cubes)}"
    )


def test_one_cube_fabric_matches_hotpath_pin():
    """Same fields, same event count, same energy to the last bit."""
    _fabric("chain:1", 1)


def test_chain2_fabric_pin():
    _fabric("chain:2", 2)


def test_chain4_fabric_pin():
    _fabric("chain:4", 4)


def test_serve_probe_pin(tmp_path):
    """The grid ``benchmarks/bench_serve_saturation.py`` submits after its
    burst; that bench requires the service to merge it to these bytes."""
    result = run_campaign(
        [cell_from_spec(s) for s in pins.PROBE_SPECS],
        CampaignOptions(jobs=1),
        cache=None,
        manifest=Manifest(tmp_path / "probe.jsonl"),
    )
    result.raise_on_failure()
    assert matrix_digest(result.matrix()) == pins.PROBE_DIGEST
