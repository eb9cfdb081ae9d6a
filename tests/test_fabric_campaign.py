"""Campaign integration for fabric cells: grids, ids, determinism, CLI."""

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignOptions,
    Cell,
    Manifest,
    execute_cell,
    fabric_grid_cells,
    grid_cells,
    matrix_digest,
    run_campaign,
)
from repro.cli import build_parser, main
from repro.experiments.runner import ExperimentConfig
from repro.hmc.config import HMCConfig

TINY = ExperimentConfig(
    refs_per_core=100,
    seed=1,
    hmc=HMCConfig(vaults=4, banks_per_vault=4, pf_buffer_entries=4),
)


class TestFabricCells:
    def test_pre_fabric_cell_id_unchanged(self):
        """Cells without a topology must keep their exact pre-fabric id:
        caches, manifests and resume state key on these strings."""
        plain = Cell("HM1", "base", TINY)
        assert plain.topology is None
        assert "@" not in plain.cell_id
        assert plain.cell_id.startswith(TINY.cache_key("HM1", "base"))

    def test_topology_qualifies_id_and_digest(self):
        plain = Cell("HM1", "base", TINY)
        fab = Cell("HM1", "base", TINY, topology="chain:2")
        assert "@chain:2|" in fab.cell_id
        assert fab.cell_id != plain.cell_id
        # the digest token must differ too, not just the readable prefix
        assert fab.cell_id.rsplit("|", 1)[1] != plain.cell_id.rsplit("|", 1)[1]

    def test_distinct_topologies_distinct_ids(self):
        a = Cell("HM1", "base", TINY, topology="chain:2")
        b = Cell("HM1", "base", TINY, topology="ring:2")
        assert a.cell_id != b.cell_id

    def test_fabric_cells_served_by_the_log(self, tmp_path):
        """The result log keys on the full cell_id, topology included, so a
        fabric cell is a log hit on its second run - and never on the
        one-cube cell of the same mix."""
        log = Manifest(tmp_path / "log.jsonl")
        fab = [Cell("HM1", "base", TINY, topology="chain:2")]
        first = run_campaign(fab, cache=log)
        second = run_campaign(fab, cache=log)
        assert first.stats["executed"] == 1 and second.stats["cached"] == 1
        assert matrix_digest(first.matrix()) == matrix_digest(second.matrix())
        plain = run_campaign([Cell("HM1", "base", TINY)], cache=log)
        assert plain.stats["executed"] == 1

    def test_describe(self):
        assert (
            Cell("HM1", "camps", TINY, topology="star:4").describe()
            == "HM1/camps@star:4"
        )


class TestFabricGrid:
    def test_topology_major_order(self):
        cells = fabric_grid_cells(
            ["chain:1", "chain:2"], ["HM1", "MX1"], ["base", "camps"], TINY
        )
        assert len(cells) == 8
        assert [c.topology for c in cells[:4]] == ["chain:1"] * 4
        assert [(c.workload, c.scheme) for c in cells[:4]] == [
            ("HM1", "base"),
            ("HM1", "camps"),
            ("MX1", "base"),
            ("MX1", "camps"),
        ]

    def test_one_shot_iterables(self):
        cells = fabric_grid_cells(
            ["chain:1", "chain:2"], (w for w in ["HM1"]), iter(["base"]), TINY
        )
        assert [c.topology for c in cells] == ["chain:1", "chain:2"]

    def test_bad_spec_fails_at_build_time(self):
        with pytest.raises(ValueError, match="unknown topology"):
            fabric_grid_cells(["chain:2", "mesh:4"], ["HM1"], ["base"], TINY)

    def test_plain_grid_untouched(self):
        for cell in grid_cells(["HM1"], ["base"], TINY):
            assert cell.topology is None


class TestFabricExecution:
    def test_execute_cell_dispatches_on_topology(self):
        summary = execute_cell(Cell("HM1", "camps-mod", TINY, topology="chain:2"))
        assert summary["cycles"] > 0
        assert summary["workload"] == "HM1@chain:2"
        assert len(summary["core_ipc"]) == 16

    def test_integrity_reaches_fabric_cells(self, monkeypatch):
        """An integrity-on fabric cell builds the monitor over every cube,
        and (integrity being execution policy, not a simulation input)
        its summary is byte-equal to the unmonitored run."""
        from repro.sim import integrity

        monitored = []

        class SpyMonitor(integrity.IntegrityMonitor):
            def __init__(self, system, *args, **kwargs):
                monitored.append(system)
                super().__init__(system, *args, **kwargs)

        monkeypatch.setattr(integrity, "IntegrityMonitor", SpyMonitor)
        off = execute_cell(Cell("HM1", "camps-mod", TINY, topology="chain:2"))
        assert monitored == []
        on_cfg = dataclasses.replace(TINY, integrity=True)
        on = execute_cell(Cell("HM1", "camps-mod", on_cfg, topology="chain:2"))
        assert len(monitored) == 1
        assert len(monitored[0].devices) == 2
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_jobs_parity(self, tmp_path):
        """The fabric grid must produce the identical matrix digest whether
        run serially or sharded across workers."""
        cells = fabric_grid_cells(["chain:2"], ["HM1"], ["base", "camps-mod"], TINY)
        serial = run_campaign(
            cells, CampaignOptions(jobs=1),
            manifest=Manifest(str(tmp_path / "serial.jsonl")),
        )
        sharded = run_campaign(
            cells, CampaignOptions(jobs=2),
            manifest=Manifest(str(tmp_path / "sharded.jsonl")),
        )
        serial.raise_on_failure()
        sharded.raise_on_failure()
        assert matrix_digest(serial.matrix()) == matrix_digest(sharded.matrix())

    def test_topology_sweep_keeps_every_point(self, tmp_path):
        """A sweep of one (mix, scheme) across topologies must not collapse:
        the matrix keys by (workload, scheme), so cells qualify the name."""
        cells = fabric_grid_cells(
            ["chain:1", "chain:2"], ["HM1"], ["camps-mod"], TINY
        )
        res = run_campaign(
            cells, manifest=Manifest(str(tmp_path / "m.jsonl"))
        )
        res.raise_on_failure()
        assert set(res.matrix().results) == {
            ("HM1@chain:1", "camps-mod"),
            ("HM1@chain:2", "camps-mod"),
        }


class TestFabricCLI:
    def test_run_parses_topology(self):
        args = build_parser().parse_args(["run", "HM1", "--topology", "chain:4"])
        assert args.topology == "chain:4"

    def test_run_topology_json(self, capsys):
        rc = main([
            "run", "MX1", "--topology", "chain:2", "--scheme", "camps-mod",
            "--refs", "100", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topology"] == "chain:2"
        assert payload["fabric"]["cubes"] == 2
        assert payload["fabric"]["hop_flits"] > 0
        assert set(payload["fabric"]["hop_histogram"]) == {"1", "2"} or set(
            payload["fabric"]["hop_histogram"]
        ) == {1, 2}

    def test_run_bad_topology_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "HM1", "--topology", "mesh:4", "--refs", "50"])

    def test_campaign_topology_grid(self, tmp_path, capsys):
        rc = main([
            "campaign", "--topology", "chain:1,chain:2", "--mixes", "HM1",
            "--schemes", "camps-mod", "--refs", "100",
            "--manifest", str(tmp_path / "m.jsonl"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 topologies" in out
        assert "HM1@chain:1" in out and "HM1@chain:2" in out
        records = [
            json.loads(line)
            for line in (tmp_path / "m.jsonl").read_text().splitlines()
        ]
        done = [r for r in records if r.get("status") == "ok"]
        assert len(done) == 2
