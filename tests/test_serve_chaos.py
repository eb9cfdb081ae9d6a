"""Chaos suite: the service's crash-tolerance contract, proven end to end.

A fleet of headless work-stealing nodes (``python -m repro.serve.chaos
node``) shares one manifest seeded with real simulation cells.  We SIGKILL
nodes mid-cell across several seeds, tear and duplicate manifest lines
under the survivors' feet, and SIGKILL pool workers mid-simulation — then
assert the one invariant everything reduces to: the merged manifest holds
every cell exactly once, all ok, with a matrix digest *byte-identical* to
an undisturbed serial run of the same cells.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.executor import (
    CampaignOptions,
    matrix_digest,
    run_campaign,
)
from repro.campaign.manifest import Manifest
from repro.metrics.collectors import ResultMatrix
from repro.serve import ServeConfig, ServeScheduler, cell_from_spec
from repro.serve.chaos import (
    duplicate_manifest_lines,
    kill_process,
    kill_random_worker,
    seed_manifest,
    tear_manifest,
)
from repro.system import SimulationResult

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the chaos grid: 4 real cells, big enough that SIGKILL lands mid-cell
GRID_SPECS = [
    {"workload": w, "scheme": s, "refs": 3000, "seed": 5}
    for w in ("HM1", "LM1")
    for s in ("base", "camps")
]
GRID_IDS = sorted(cell_from_spec(s).cell_id for s in GRID_SPECS)


def _merged_digest(manifest_path) -> str:
    """Digest of a manifest's merged ok records (order-independent)."""
    matrix = ResultMatrix()
    for cid in sorted(
        cid for cid, r in Manifest(manifest_path).records().items() if r.ok
    ):
        rec = Manifest(manifest_path).records()[cid]
        matrix.add(SimulationResult(extra={}, **rec.summary))
    return matrix_digest(matrix)


def _terminal_lines(manifest_path):
    """Parsed terminal records, one entry per *line* (duplicates visible)."""
    out = []
    for ln in Path(manifest_path).read_text().splitlines():
        try:
            raw = json.loads(ln)
        except json.JSONDecodeError:
            continue
        if isinstance(raw, dict) and "kind" not in raw and "cell_id" in raw:
            out.append(raw)
    return out


def _spawn_node(manifest_path, name, lease_ticks=15):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.chaos",
            "node",
            str(manifest_path),
            "--jobs",
            "1",
            "--name",
            name,
            "--tick-interval",
            "0.1",
            "--lease-ticks",
            str(lease_ticks),
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _reap(proc, timeout=180):
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        pytest.fail("chaos node did not converge in time")


@pytest.fixture(scope="module")
def serial_digest(tmp_path_factory):
    """The undisturbed serial ground truth for the chaos grid."""
    manifest = Manifest(
        tmp_path_factory.mktemp("serial") / "serial.jsonl"
    )
    result = run_campaign(
        [cell_from_spec(s) for s in GRID_SPECS],
        CampaignOptions(jobs=1),
        cache=None,
        manifest=manifest,
    )
    result.raise_on_failure()
    return matrix_digest(result.matrix())


class TestFleetChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sigkill_node_mid_cell_converges_exactly_once(
        self, tmp_path, serial_digest, seed
    ):
        """Kill one of two nodes at a random point; the survivor steals the
        orphaned leases and the merge ends byte-identical to serial."""
        manifest = tmp_path / "fleet.jsonl"
        assert seed_manifest(str(manifest), GRID_SPECS) == len(GRID_SPECS)
        rng = random.Random(seed)
        victim = _spawn_node(manifest, "victim")
        survivor = _spawn_node(manifest, "survivor")
        try:
            time.sleep(rng.uniform(0.3, 1.2))
            assert kill_process(victim.pid)
            victim.wait(timeout=30)
            assert victim.returncode == -signal.SIGKILL
            assert _reap(survivor) == 0
        finally:
            for proc in (victim, survivor):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        records = Manifest(manifest).records()
        assert sorted(records) == GRID_IDS  # zero lost cells
        assert all(r.ok for r in records.values())
        # single survivor: the file itself holds each cell exactly once
        terminals = _terminal_lines(manifest)
        assert sorted(t["cell_id"] for t in terminals) == GRID_IDS
        assert _merged_digest(manifest) == serial_digest

    def test_torn_and_duplicated_lines_under_live_fleet(
        self, tmp_path, serial_digest
    ):
        """Corrupt the manifest while a node works it: a torn tail plus
        replayed duplicate lines must change nothing in the merge."""
        manifest = tmp_path / "torn.jsonl"
        seed_manifest(str(manifest), GRID_SPECS)
        rng = random.Random(7)
        node = _spawn_node(manifest, "solo")
        try:
            time.sleep(0.4)
            tear_manifest(str(manifest), rng)
            time.sleep(0.3)
            duplicate_manifest_lines(str(manifest), rng, count=3)
            tear_manifest(str(manifest), rng)
            assert _reap(node) == 0
        finally:
            if node.poll() is None:
                node.kill()
                node.wait()
        records = Manifest(manifest).records()
        assert sorted(records) == GRID_IDS
        assert _merged_digest(manifest) == serial_digest
        # duplicated terminal lines may exist in the file; the *merge* holds
        # each cell once and identically
        by_cell = {}
        for t in _terminal_lines(manifest):
            prev = by_cell.setdefault(t["cell_id"], t["summary"])
            assert prev == t["summary"]  # zero double-merged (divergent) cells

    def test_two_node_fleet_no_chaos_still_exact(self, tmp_path, serial_digest):
        """Control: plain work stealing with no faults is digest-clean too
        (catches stealing bugs that only chaos would otherwise mask)."""
        manifest = tmp_path / "calm.jsonl"
        seed_manifest(str(manifest), GRID_SPECS)
        a = _spawn_node(manifest, "a")
        b = _spawn_node(manifest, "b")
        try:
            assert _reap(a) == 0
            assert _reap(b) == 0
        finally:
            for proc in (a, b):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        records = Manifest(manifest).records()
        assert sorted(records) == GRID_IDS
        assert all(r.ok for r in records.values())
        assert _merged_digest(manifest) == serial_digest


class TestWorkerChaos:
    def test_sigkill_pool_worker_mid_cell_requeues_to_ok(
        self, tmp_path, serial_digest
    ):
        """SIGKILL the worker *process* under a live scheduler: the cell
        surfaces as a crash, requeues with jitter, and still ends ok."""
        import asyncio

        cfg = ServeConfig(
            manifest=str(tmp_path / "worker.jsonl"),
            jobs=1,
            use_cache=False,
            telemetry=False,
            tick_interval=0.1,
        )

        async def main():
            node = ServeScheduler(cfg)
            await node.start()
            try:
                out = node.submit(list(GRID_SPECS))
                rng = random.Random(3)
                killed = None
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    if node.pool.busy_count() > 0:
                        killed = kill_random_worker(
                            node.pool.worker_pids(), rng
                        )
                        if killed:
                            break
                assert killed, "never caught a busy worker to kill"
                await asyncio.wait_for(
                    node._job_events[out["job"]].wait(), 120.0
                )
                crashes = sum(s.crashes for s in node.cells.values())
                assert crashes >= 1
            finally:
                await node.aclose()

        asyncio.run(main())
        records = Manifest(cfg.manifest).records()
        assert sorted(records) == GRID_IDS
        assert all(r.ok for r in records.values())
        assert _merged_digest(cfg.manifest) == serial_digest


class TestTraceChaos:
    """The tentpole acceptance: one causal trace survives process death."""

    def test_stolen_cell_keeps_one_connected_trace(
        self, tmp_path, serial_digest
    ):
        """Kill a node mid-cell; the survivor's steal, re-execution, and
        merge stay on the trace minted at seeding — one connected timeline
        across two processes — and the digest still matches the (untraced)
        serial ground truth."""
        from repro.obs.spans import read_spans

        manifest = tmp_path / "traced.jsonl"
        seed_manifest(str(manifest), GRID_SPECS)
        seeded = {
            cid: claim.trace
            for cid, claim in Manifest(manifest).scan().claims.items()
        }
        assert sorted(seeded) == GRID_IDS
        assert all(seeded.values())  # every seed claim carries a trace

        victim = _spawn_node(manifest, "victim")
        survivor = None
        try:
            # wait for the victim to claim real work, then kill it
            # mid-cell; gate on the claim *span* being visible, not just
            # the claim record — the two appends are separate writes, and
            # killing in between would leave a claim with no span
            deadline = time.time() + 30.0
            claimed = set()
            while time.time() < deadline and not claimed:
                time.sleep(0.1)
                scan = Manifest(manifest).scan()
                span_claimed = {
                    s.cell_id
                    for s in read_spans(str(manifest))
                    if s.name == "claim" and s.worker == "victim"
                }
                claimed = {
                    cid
                    for cid, c in scan.claims.items()
                    if c.worker != "seed"
                    and cid not in scan.records
                    and cid in span_claimed
                }
            assert claimed, "victim never claimed a cell"
            assert kill_process(victim.pid)
            victim.wait(timeout=30)
            survivor = _spawn_node(manifest, "survivor")
            assert _reap(survivor) == 0
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()

        records = Manifest(manifest).records()
        assert sorted(records) == GRID_IDS
        assert all(r.ok for r in records.values())
        # tracing on, chaos on — still byte-identical to the serial run
        # (which recorded no spans at all): tracing is digest-neutral
        assert _merged_digest(manifest) == serial_digest

        spans = read_spans(str(manifest))
        assert spans
        # every span sits on the trace its cell was seeded with: nothing
        # re-minted, nothing cross-linked, across both processes
        for span in spans:
            assert span.trace_id == seeded[span.cell_id]
        # at least one cell was stolen from the dead victim, and its
        # post-theft execute+merge happened in the survivor process on
        # the same trace as the victim's own claim span
        stolen = [
            s for s in spans
            if s.name == "steal" and s.attrs.get("from_worker") == "victim"
        ]
        assert stolen, "survivor never stole from the dead victim"
        stolen_ids = {s.cell_id for s in stolen}
        # the cells we observed as claimed before issuing the kill are
        # guaranteed stolen, and their claim spans are durable (the span
        # append preceded our poll); a claim whose span append raced the
        # SIGKILL may be stolen with no victim span at all — for those,
        # trace continuity (asserted above) is the guarantee, not span
        # durability at the instant of death
        assert claimed <= stolen_ids
        for cid in stolen_ids:
            cell_spans = [s for s in spans if s.cell_id == cid]
            by_stage = {}
            for s in cell_spans:
                by_stage.setdefault(s.name, []).append(s)
            assert any(
                s.worker == "survivor" for s in by_stage.get("execute", [])
            )
            assert any(
                s.worker == "survivor" for s in by_stage.get("merge", [])
            )
            if cid in claimed:
                # two processes, one connected timeline
                assert any(s.worker == "victim" for s in by_stage["claim"])
                workers = {s.worker for s in cell_spans}
                assert {"victim", "survivor"} <= workers

    def test_digest_identical_with_spans_on_and_off(self, tmp_path):
        """Same grid through two in-process schedulers, tracing toggled:
        the merged manifests agree record for record, byte for byte."""
        import asyncio

        from repro.obs.spans import read_spans

        specs = [
            {"workload": w, "scheme": s, "refs": 600, "seed": 9}
            for w in ("HM1", "LM1")
            for s in ("base", "camps")
        ]

        def run(name, spans_enabled):
            cfg = ServeConfig(
                manifest=str(tmp_path / f"{name}.jsonl"),
                jobs=1,
                use_cache=False,
                telemetry=False,
                tick_interval=0.1,
                spans=spans_enabled,
            )

            async def main():
                node = ServeScheduler(cfg)
                await node.start()
                try:
                    out = node.submit(list(specs))
                    await asyncio.wait_for(
                        node._job_events[out["job"]].wait(), 180.0
                    )
                finally:
                    await node.aclose()

            asyncio.run(main())
            return cfg.manifest

        traced = run("traced", True)
        plain = run("plain", False)
        assert read_spans(traced) and read_spans(plain) == []
        assert _merged_digest(traced) == _merged_digest(plain)
        t_records = Manifest(traced).records()
        p_records = Manifest(plain).records()
        assert sorted(t_records) == sorted(p_records)
        assert {c: r.summary for c, r in t_records.items()} == {
            c: r.summary for c, r in p_records.items()
        }
