"""Tests for the manifest work-queue overlay and retry jitter.

Covers resume over a manifest whose last record is a torn claim line,
duplicate claims from two generations (higher generation wins), and lease
expiry mid-merge — plus the WorkQueue lifecycle (attach/claim/renew/steal/
record), the incremental manifest follower's equivalence with a full
``Manifest.scan()``, and the deterministic full-jitter retry backoff shared
by the campaign executor and the service.
"""

import dataclasses
import json
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import manifest as manifest_mod
from repro.campaign.executor import MAX_RETRY_DELAY, retry_delay
from repro.campaign.manifest import (
    CellRecord,
    ClaimRecord,
    Manifest,
    ManifestFollower,
    STATUS_OK,
)
from repro.serve.jobs import cell_from_spec
from repro.serve.steal import DEFAULT_LEASE_TICKS, WorkQueue


def _spec(workload="HM1", scheme="base", refs=100, seed=1):
    return {"workload": workload, "scheme": scheme, "refs": refs, "seed": seed}


def _cid(spec):
    return cell_from_spec(spec).cell_id


def _record(cell_id, workload="HM1", scheme="base"):
    return CellRecord(
        cell_id=cell_id,
        workload=workload,
        scheme=scheme,
        status=STATUS_OK,
        attempts=1,
        elapsed=0.5,
        summary={"cycles": 10},
    )


# ----------------------------------------------------------------------
# Deterministic full-jitter retry backoff (satellite)
# ----------------------------------------------------------------------


class TestRetryDelay:
    def test_reproducible_per_cell_and_attempt(self):
        a = retry_delay("cell-A", 2, 0.5)
        assert a == retry_delay("cell-A", 2, 0.5)

    def test_different_cells_desynchronized(self):
        delays = {retry_delay(f"cell-{i}", 3, 1.0) for i in range(32)}
        # full jitter: a mass crash must not produce a retry stampede
        assert len(delays) > 16

    def test_bounded_by_exponential_envelope(self):
        for attempt in range(1, 8):
            for cid in ("x", "y", "z"):
                d = retry_delay(cid, attempt, 0.5)
                assert 0.0 <= d <= min(MAX_RETRY_DELAY, 0.5 * 2 ** (attempt - 1))

    def test_cap_override(self):
        for attempt in range(1, 20):
            assert retry_delay("c", attempt, 1.0, cap=2.0) <= 2.0

    def test_zero_base_disables_backoff(self):
        assert retry_delay("c", 5, 0.0) == 0.0


# ----------------------------------------------------------------------
# Claim records in the manifest
# ----------------------------------------------------------------------


class TestClaimRecords:
    def test_beats_prefers_higher_generation(self):
        low = ClaimRecord("c", "a", 1, 9, 20)
        high = ClaimRecord("c", "b", 2, 3, 10)
        assert high.beats(low)
        assert not low.beats(high)
        assert low.beats(None)

    def test_beats_ties_break_on_clock_then_worker(self):
        early = ClaimRecord("c", "a", 1, 3, 10)
        late = ClaimRecord("c", "a", 1, 5, 12)
        assert late.beats(early)
        # full tie on (gen, clock): worker name decides, deterministically
        wa = ClaimRecord("c", "a", 1, 5, 12)
        wb = ClaimRecord("c", "b", 1, 5, 12)
        assert wb.beats(wa) and not wa.beats(wb)

    def test_duplicate_claims_higher_generation_wins(self, tmp_path):
        """Issue edge case: the same cell claimed by two generations."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c1", "old", 1, 5, 30, {"workload": "HM1"}))
        m.append_claim(ClaimRecord("c1", "new", 2, 6, 31, {"workload": "HM1"}))
        scan = m.scan()
        assert scan.claims["c1"].worker == "new"
        assert scan.max_gen == 2

    def test_torn_claim_as_last_line_skipped_on_resume(self, tmp_path):
        """Issue edge case: resume over a manifest whose final record is a
        claim torn mid-append by a crash."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append(_record("done-cell"))
        m.append_claim(ClaimRecord("c1", "w", 1, 2, 26))
        with open(m.path, "a") as fh:
            fh.write('{"kind": "claim", "cell_id": "c2", "worker": "w", "ge')
        scan = m.scan()
        assert set(scan.claims) == {"c1"}
        assert set(scan.records) == {"done-cell"}
        # and the queue can still attach and make progress on top of it
        q = WorkQueue(m, "survivor")
        q.attach()
        assert q.gen == 2
        q.tick()
        assert m.scan().clock == scan.clock + 1

    def test_writers_heal_a_torn_tail_before_appending(self, tmp_path):
        """A peer's torn line must not swallow the next writer's record."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c1", "w", 1, 1, 25))
        with open(m.path, "a") as fh:
            fh.write('{"cell_id": "torn-terminal", "stat')  # crash mid-append
        m.append(_record("c1"))
        scan = m.scan()
        assert set(scan.records) == {"c1"}  # the healed append parsed fine
        raw = Path(m.path).read_text()
        assert not any("stat{" in ln for ln in raw.splitlines())

    def test_lease_expiry_driven_by_logical_clock(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c1", "dead", 1, 2, 4))
        m.append_tick("live", 3)
        assert not m.scan().expired("c1")  # lease 4 >= clock 3
        m.append_tick("live", 5)
        assert m.scan().expired("c1")

    def test_lease_expiry_mid_merge_not_expired_once_terminal(self, tmp_path):
        """Issue edge case: a lease that expires while the merge is landing.

        The terminal record is authoritative: once it is in the file the
        cell is no longer expired/stealable no matter what the claim says.
        """
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c1", "slow", 1, 2, 4))
        m.append_tick("peer", 50)  # lease long gone: peers see it stealable
        assert m.scan().expired("c1")
        m.append(_record("c1"))  # the slow owner's merge finally lands
        scan = m.scan()
        assert not scan.expired("c1")
        assert "c1" in scan.records

    def test_claims_invisible_to_plain_records(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c1", "w", 1, 1, 25))
        m.append(_record("c2"))
        assert set(m.records()) == {"c2"}  # pre-serve readers unchanged


# ----------------------------------------------------------------------
# WorkQueue: attach / claim / renew / steal / record
# ----------------------------------------------------------------------


class TestWorkQueue:
    def test_attach_generations_monotonic(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        a = WorkQueue(m, "a")
        a.attach()
        a.claim("c1", _spec())
        b = WorkQueue(m, "b")
        b.attach()
        assert (a.gen, b.gen) == (1, 2)
        # a restart of "a" outranks its own ghost
        a2 = WorkQueue(m, "a")
        a2.attach()
        assert a2.gen == 3

    def test_seeded_claims_immediately_stealable(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        spec = _spec()
        seeder = WorkQueue(m, "seed-writer")
        seeder.attach()
        seeder.seed([(_cid(spec), spec)])
        node = WorkQueue(m, "node")
        node.attach()
        steals = node.steals(node.scan())
        assert [cid for cid, _ in steals] == [_cid(spec)]

    def test_steals_skip_unexpired_done_and_unportable(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        live_spec = _spec(seed=1)
        done_spec = _spec(seed=2)
        bare_spec = _spec(seed=3)
        lying_spec = _spec(seed=4)
        q = WorkQueue(m, "peer")
        q.attach()
        q.tick()
        clock = q.clock
        # live lease, terminal cell, claim with no spec, claim whose spec
        # rebuilds a *different* cell id, and a corrupt spec
        m.append_claim(ClaimRecord(_cid(live_spec), "w", 1, clock, clock + 10, live_spec))
        m.append_claim(ClaimRecord(_cid(done_spec), "w", 1, 0, 0, done_spec))
        m.append(_record(_cid(done_spec)))
        m.append_claim(ClaimRecord(_cid(bare_spec), "w", 1, 0, 0, None))
        m.append_claim(ClaimRecord("not-the-real-id", "w", 1, 0, 0, lying_spec))
        m.append_claim(ClaimRecord("corrupt", "w", 1, 0, 0, {"workload": "nope"}))
        assert q.steals(q.scan()) == []

    def test_record_dedupes_against_peers(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        a = WorkQueue(m, "a")
        a.attach()
        b = WorkQueue(m, "b")
        b.attach()
        cid = _cid(_spec())
        assert a.record(_record(cid)) is True
        # b raced the same cell (at-least-once execution): merge refuses dup
        assert b.record(_record(cid)) is False
        terminals = [
            ln
            for ln in Path(m.path).read_text().splitlines()
            if '"kind"' not in ln and ln.strip()
        ]
        assert len(terminals) == 1  # exactly once in the file too

    def test_record_appends_over_a_rerunnable_error(self, tmp_path):
        """A re-run of a cell whose latest record is an undiagnosed error
        records its result; a settled (ok or diagnosed) cell stays as is."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        failed, diagnosed = _cid(_spec(seed=1)), _cid(_spec(seed=2))
        m.append(dataclasses.replace(_record(failed), status="error", error="x"))
        m.append(
            dataclasses.replace(
                _record(diagnosed), status="error", diagnosis={"reason": "wedge"}
            )
        )
        q = WorkQueue(m, "node")
        q.attach()
        assert {failed, diagnosed} <= q.done
        assert q.steals() == []  # terminal cells are never stolen
        assert q.record(_record(diagnosed)) is False
        assert q.record(_record(failed)) is True
        assert q.record(_record(failed)) is False  # now settled: ok
        records = m.records()
        assert records[failed].ok
        assert records[diagnosed].status == "error"

    def test_outbid_claim_leaves_mine(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        a = WorkQueue(m, "a")
        a.attach()
        a.claim("c1", _spec())
        assert "c1" in a.mine
        b = WorkQueue(m, "b")
        b.attach()
        b.claim("c1", _spec())  # higher gen: steals it out from under a
        a.scan()
        assert "c1" not in a.mine

    def test_renewals_due_near_lease_end(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        q = WorkQueue(m, "a", lease_ticks=4)
        q.attach()
        q.claim("c1", _spec())
        assert q.renewals_due(q.scan()) == []  # fresh lease
        q.tick()
        q.tick()
        q.tick()  # 1 tick of lease left < 4 * 0.5
        assert q.renewals_due(q.scan()) == ["c1"]
        q.claim("c1", _spec())  # renewal restarts the lease
        assert q.renewals_due(q.scan()) == []

    def test_default_lease_covers_renew_fraction(self):
        assert DEFAULT_LEASE_TICKS >= 2
        with pytest.raises(ValueError):
            WorkQueue(Manifest("unused.jsonl"), "w", lease_ticks=0)

    def test_duplicate_manifest_lines_merge_idempotently(self, tmp_path):
        """Replayed lines (chaos: duplicated appends) change nothing."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c1", "w", 1, 1, 25, _spec()))
        m.append(_record("c2"))
        before = m.scan()
        lines = [
            ln for ln in Path(m.path).read_text().splitlines() if "header" not in ln
        ]
        with open(m.path, "a") as fh:
            for ln in lines + lines:
                fh.write(ln + "\n")
        after = m.scan()
        assert set(after.records) == set(before.records)
        assert after.claims["c1"] == before.claims["c1"]
        assert after.max_gen == before.max_gen

    def test_spec_roundtrip_through_claim_json(self):
        """A spec survives JSON (what the manifest actually stores) and
        rebuilds the exact same cell id — the steal-validation invariant."""
        spec = _spec(workload="LM1", scheme="camps", refs=250, seed=7)
        wire = json.loads(json.dumps(spec))
        assert cell_from_spec(wire).cell_id == _cid(spec)


# ----------------------------------------------------------------------
# ManifestFollower: incremental scan == full scan
# ----------------------------------------------------------------------

_CELLS = ["c0", "c1", "c2"]
_WORKERS = ["a", "b"]

_append_ops = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(_CELLS),
              st.sampled_from([STATUS_OK, "error"])),
    # few gens and clocks: duplicate claims across generations are common
    st.tuples(st.just("claim"), st.sampled_from(_CELLS),
              st.sampled_from(_WORKERS), st.integers(0, 3),
              st.integers(0, 6), st.integers(0, 12)),
    st.tuples(st.just("tick"), st.sampled_from(_WORKERS), st.integers(0, 9),
              st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("span"), st.sampled_from(_CELLS)),
)
_ops = st.one_of(
    _append_ops,
    # a writer crashed mid-append: a strict prefix of a line, no newline
    st.tuples(st.just("torn"), _append_ops, st.floats(0.0, 1.0)),
    st.tuples(st.just("reset")),
    # truncate in place and rewrite: a new campaign header (or an
    # incompatible / missing one) followed by a few lines
    st.tuples(st.just("rewrite"), st.sampled_from(["v1", "v2", "none"]),
              st.lists(_append_ops, max_size=4)),
)


def _payload(op):
    kind = op[0]
    if kind == "record":
        rec = _record(op[1])
        rec.status = op[2]
        return {k: v for k, v in rec.__dict__.items() if v is not None}
    if kind == "claim":
        _, cid, worker, gen, clock, lease = op
        return {"kind": "claim", "cell_id": cid, "worker": worker,
                "gen": gen, "clock": clock, "lease": lease}
    if kind == "tick":
        out = {"kind": "tick", "worker": op[1], "clock": op[2]}
        if op[3] is not None:
            out["gen"] = op[3]
        return out
    return {"kind": "span", "trace": "t" * 32, "stage": "merge",
            "cell_id": op[1], "ts": 1.0, "dur": 0.001}


def _apply(m, op, rewrites):
    kind = op[0]
    if kind == "record":
        rec = _record(op[1])
        rec.status = op[2]
        m.append(rec)
    elif kind == "claim":
        _, cid, worker, gen, clock, lease = op
        m.append_claim(ClaimRecord(cid, worker, gen, clock, lease))
    elif kind == "tick":
        m.append_tick(op[1], op[2], gen=op[3])
    elif kind == "span":
        m.append_span(_payload(op))
    elif kind == "torn":
        line = json.dumps(_payload(op[1])).encode()
        cut = 1 + int(op[2] * (len(line) - 2))  # 1 <= cut < len(line)
        raw = m.path.read_bytes()
        heal = b"\n" if raw and not raw.endswith(b"\n") else b""
        with open(m.path, "ab") as fh:
            fh.write(heal + line[:cut])
    elif kind == "reset":
        m.reset()
    else:
        _, header, lines = op
        rewrites.append(1)
        head = {"v1": [{"kind": "header", "version": 1,
                        "campaign": len(rewrites)}],
                "v2": [{"kind": "header", "version": 2}],
                "none": []}[header]
        body = b"".join(
            json.dumps(p).encode() + b"\n"
            for p in head + [_payload(o) for o in lines]
        )
        with open(m.path, "r+b") as fh:
            fh.truncate(0)
            fh.write(body)


def _assert_follows(follower, m):
    full = m.scan()
    assert follower.done == set(full.records)
    assert follower.scan.claims == full.claims
    assert follower.scan.clock == full.clock
    assert follower.scan.max_gen == full.max_gen


class TestManifestFollower:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(_ops, min_size=1, max_size=25))
    def test_follower_matches_full_scan_after_every_step(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            m = Manifest(Path(tmp) / "m.jsonl")
            m.reset()
            follower = ManifestFollower(m.path)
            rewrites = []
            for op in steps:
                _apply(m, op, rewrites)
                follower.poll()
                follower.take_records()
                _assert_follows(follower, m)

    def test_taken_records_are_those_folded_since_the_last_take(self, tmp_path):
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        follower = ManifestFollower(m.path)
        m.append(_record("c1"))
        follower.poll()
        m.append(_record("c2"))
        follower.poll()
        assert set(follower.take_records()) == {"c1", "c2"}
        follower.poll()
        assert follower.take_records() == {}
        assert follower.done == {"c1", "c2"}

    def test_rewrite_behind_an_unchanged_head_resets(self, tmp_path):
        """An in-place rewrite that keeps the file's first bytes but changes
        the bytes already consumed, and regrows past the offset between
        polls, is caught by the consumed-tail anchor."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        m.append_claim(ClaimRecord("c0", "peer", 1, 1, 9, {"workload": "HM1"}))
        m.append_tick("peer", 1)
        follower = ManifestFollower(m.path)
        follower.poll()
        head = m.path.read_bytes().rsplit(b"\n", 2)[0]
        with open(m.path, "r+b") as fh:
            fh.truncate(0)
            fh.write(head + b"\n" + b'{"kind": "tick", "worker": "peer", "clock": 7}\n')
        m.append(_record("c1"))
        follower.poll()
        _assert_follows(follower, m)
        assert follower.scan.clock == 7

    @pytest.mark.parametrize("chunk", [1, 5, 7, 64])
    def test_chunked_follower_matches_full_scan(self, tmp_path, monkeypatch, chunk):
        """The follower folds each chunk's lines as the tailer reads them;
        across resets, torn tails and incompatible rewrites its state
        still equals an unchunked scan of the file."""
        monkeypatch.setattr(manifest_mod.JsonlTailer, "CHUNK_BYTES", chunk)
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        follower = ManifestFollower(m.path)
        rewrites = []
        body = [("claim", "c0", "a", 1, 2, 9), ("tick", "b", 4, 1),
                ("record", "c0", STATUS_OK), ("span", "c1"),
                ("claim", "c1", "b", 2, 5, 9), ("record", "c1", "error")]
        steps = [
            *body, ("torn", ("tick", "a", 8, None), 0.5), ("record", "c2", STATUS_OK),
            ("rewrite", "v2", body), ("rewrite", "v1", body[:3]),
            ("reset",), *body[3:],
        ]
        for op in steps:
            _apply(m, op, rewrites)
            follower.poll()
            _assert_follows(follower, m)
        assert follower.done == {"c1"}

    @pytest.mark.parametrize("history", [10, 3000])
    def test_scan_parses_only_appended_lines(self, tmp_path, monkeypatch, history):
        """A tick's scan after k appended lines parses exactly k lines,
        however long the manifest already is."""
        m = Manifest(tmp_path / "m.jsonl")
        m.reset()
        for i in range(history):
            m.append_tick("peer", i)
        q = WorkQueue(m, "a")
        q.attach()
        q.scan()
        parsed = []

        def loads(line):
            parsed.append(line)
            return json.loads(line)

        monkeypatch.setattr(
            manifest_mod, "json", types.SimpleNamespace(loads=loads, dumps=json.dumps)
        )
        k = 7
        for i in range(k - 2):
            m.append_claim(ClaimRecord(f"c{i}", "peer", 1, i, i + 5))
        m.append(_record("c0"))
        q.tick()  # our own heartbeat is one of the k lines
        scan = q.scan()
        assert len(parsed) == k
        assert set(scan.records) == {"c0"} and "c0" in q.done
        assert q.clock == history  # peer ticks 0..history-1, then ours
