"""Tests for causal span tracing (repro.obs.spans) and its foundations.

Covers the span model itself (traceparent parsing, payload round-trips,
the SpanLog recorder, manifest persistence and read-back), the critical-path
attribution, the Chrome trace rendering that merges with the simulator
exporters, the shared nearest-rank quantile, the log-bucket histograms that
drive ``retry_after``, and the backward-compatibility contract: span lines
are invisible to every existing manifest reader, so pinned digests cannot
move when tracing is toggled.
"""

import errno
import json
import math

import pytest

from repro.campaign.manifest import ClaimRecord, Manifest
from repro.obs.spans import (
    SERVICE_PID_BASE,
    STAGE_EXECUTE,
    STAGE_MERGE,
    STAGE_QUEUE,
    STAGE_STEAL,
    Span,
    SpanLog,
    attribution,
    critical_path_text,
    format_traceparent,
    merge_chrome,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    read_spans,
    spans_to_chrome,
)
from repro.serve.admission import (
    LANE_BULK,
    LANE_QUICK,
    AdmissionController,
    LogHistogram,
    nearest_rank,
)


# ----------------------------------------------------------------------
# Trace ids and traceparent
# ----------------------------------------------------------------------


class TestTraceparent:
    def test_mint_shapes(self):
        trace = mint_trace_id()
        span = mint_span_id()
        assert len(trace) == 32 and int(trace, 16) >= 0
        assert len(span) == 16 and int(span, 16) >= 0
        assert mint_trace_id() != trace  # 128 random bits: never collides

    def test_parse_standard_header(self):
        trace = "4bf92f3577b34da6a3ce929d0e0e4736"
        header = f"00-{trace}-00f067aa0ba902b7-01"
        assert parse_traceparent(header) == trace
        # any version byte, surrounding whitespace, uppercase
        assert parse_traceparent(f"  CC-{trace.upper()}-00f067aa0ba902b7-00 ") == trace

    def test_parse_bare_hex(self):
        trace = mint_trace_id()
        assert parse_traceparent(trace) == trace
        assert parse_traceparent("deadbeefdeadbeef") == "deadbeefdeadbeef"

    def test_parse_rejects_garbage(self):
        assert parse_traceparent(None) is None
        assert parse_traceparent("") is None
        assert parse_traceparent("not a header") is None
        assert parse_traceparent("00-xyz-span-01") is None
        assert parse_traceparent("abc") is None  # too short for bare hex
        assert parse_traceparent(123) is None  # type: ignore[arg-type]

    def test_parse_rejects_all_zero_trace(self):
        zero = "0" * 32
        assert parse_traceparent(zero) is None
        assert parse_traceparent(f"00-{zero}-00f067aa0ba902b7-01") is None

    def test_format_round_trip(self):
        trace = mint_trace_id()
        header = format_traceparent(trace)
        assert parse_traceparent(header) == trace


# ----------------------------------------------------------------------
# Span payloads
# ----------------------------------------------------------------------


class TestSpanPayload:
    def test_round_trip(self):
        span = Span(
            trace_id=mint_trace_id(),
            name=STAGE_EXECUTE,
            start=1234.5,
            dur=0.25,
            worker="nodeA",
            cell_id="cell-1",
            parent_id="aabbccdd00112233",
            attrs={"status": "ok", "attempt": 2},
        )
        back = Span.from_payload(json.loads(json.dumps(span.to_payload())))
        assert back is not None
        assert (back.trace_id, back.name, back.worker) == (
            span.trace_id, span.name, span.worker,
        )
        assert back.cell_id == "cell-1"
        assert back.parent_id == "aabbccdd00112233"
        assert back.attrs == {"status": "ok", "attempt": 2}
        assert back.start == pytest.approx(span.start)
        assert back.dur == pytest.approx(span.dur)

    def test_optional_fields_omitted(self):
        payload = Span(
            trace_id="ab" * 16, name=STAGE_QUEUE, start=0.0, dur=0.0
        ).to_payload()
        assert "cell_id" not in payload
        assert "parent" not in payload
        assert "attrs" not in payload
        assert payload["kind"] == "span"

    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {"trace": "ab" * 16},  # no name/timing
            {"trace": "ab" * 16, "name": "x", "start": "soon", "dur": 0},
            {"trace": None, "name": "x", "start": 0, "dur": 0},
            {"trace": "ab" * 16, "name": 7, "start": 0, "dur": 0},
        ],
    )
    def test_malformed_payloads_return_none(self, raw):
        assert Span.from_payload(raw) is None

    def test_negative_duration_clamped(self):
        span = Span.from_payload(
            {"trace": "ab" * 16, "name": "queue", "start": 1.0, "dur": -5}
        )
        assert span is not None and span.dur == 0.0


# ----------------------------------------------------------------------
# SpanLog: recording, degradation, live stage totals
# ----------------------------------------------------------------------


def _manifest(tmp_path):
    manifest = Manifest(tmp_path / "m.jsonl")
    manifest.reset(meta={"test": True})
    return manifest


class TestSpanLog:
    def test_record_persists_and_accumulates(self, tmp_path):
        manifest = _manifest(tmp_path)
        log = SpanLog(manifest, "nodeA")
        trace = mint_trace_id()
        log.record(STAGE_QUEUE, trace, 10.0, 0.5, cell_id="c1")
        log.record(STAGE_EXECUTE, trace, 10.5, 1.5, cell_id="c1", attempt=1)
        log.record(STAGE_EXECUTE, trace, 12.0, 0.5, cell_id="c1", attempt=2)
        assert log.recorded == 3 and log.dropped == 0
        # attempts sum in the live per-cell totals
        assert log.by_cell["c1"][STAGE_EXECUTE] == pytest.approx(2.0)
        assert log.stage_totals(["c1", "missing"]) == pytest.approx(
            {STAGE_QUEUE: 0.5, STAGE_EXECUTE: 2.0}
        )
        spans = read_spans(manifest.path)
        assert [s.name for s in spans] == [
            STAGE_QUEUE, STAGE_EXECUTE, STAGE_EXECUTE,
        ]
        assert {s.trace_id for s in spans} == {trace}
        assert spans[1].attrs == {"attempt": 1}

    def test_disabled_is_a_noop(self, tmp_path):
        manifest = _manifest(tmp_path)
        before = manifest.path.read_bytes()
        log = SpanLog(manifest, "nodeA", enabled=False)
        assert log.record(STAGE_QUEUE, mint_trace_id(), 0.0, 1.0, cell_id="c") is None
        assert log.by_cell == {} and log.recorded == 0
        assert manifest.path.read_bytes() == before

    def test_traceless_records_are_skipped(self, tmp_path):
        log = SpanLog(_manifest(tmp_path), "nodeA")
        assert log.record(STAGE_QUEUE, None, 0.0, 1.0) is None
        assert log.record(STAGE_QUEUE, "", 0.0, 1.0) is None
        assert log.recorded == 0

    def test_append_failures_counted_not_raised(self, tmp_path):
        manifest = _manifest(tmp_path)

        def boom(payload):
            raise OSError(errno.ENOSPC, "No space left on device")

        manifest.append_span = boom  # type: ignore[method-assign]
        log = SpanLog(manifest, "nodeA")
        span = log.record(STAGE_MERGE, mint_trace_id(), 0.0, 0.1, cell_id="c")
        assert span is not None  # caller still gets the span object
        assert log.dropped == 1 and log.recorded == 0
        assert log.snapshot() == {
            "enabled": True, "recorded": 0, "dropped": 1, "cells": 1,
        }


# ----------------------------------------------------------------------
# read_spans
# ----------------------------------------------------------------------


class TestReadSpans:
    def test_filter_by_trace_and_sorting(self, tmp_path):
        manifest = _manifest(tmp_path)
        log = SpanLog(manifest, "nodeA")
        t1, t2 = mint_trace_id(), mint_trace_id()
        log.record(STAGE_EXECUTE, t1, 20.0, 1.0, cell_id="c1")
        log.record(STAGE_QUEUE, t2, 5.0, 0.1, cell_id="c2")
        log.record(STAGE_QUEUE, t1, 19.0, 1.0, cell_id="c1")
        spans = read_spans(manifest.path)
        assert [s.start for s in spans] == sorted(s.start for s in spans)
        only_t1 = read_spans(manifest.path, trace_id=t1)
        assert {s.trace_id for s in only_t1} == {t1} and len(only_t1) == 2

    def test_missing_file(self, tmp_path):
        assert read_spans(tmp_path / "nope.jsonl") == []


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------


class TestAttribution:
    def test_fractions_sum_to_one(self):
        frac = attribution({"queue": 7.1, "execute": 2.4, "merge": 0.5})
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-3)
        assert frac["queue"] == pytest.approx(0.71, abs=1e-3)

    def test_zero_and_negative_stages_dropped(self):
        assert attribution({}) == {}
        assert attribution({"queue": 0.0}) == {}
        frac = attribution({"queue": 1.0, "claim": 0.0})
        assert "claim" not in frac and frac["queue"] == 1.0

    def test_critical_path_text(self):
        text = critical_path_text(
            attribution({"queue": 7.1, "execute": 2.4, "merge": 0.5})
        )
        assert text == "queue 71% / execute 24% / merge 5%"
        assert critical_path_text({}) == ""


# ----------------------------------------------------------------------
# Chrome rendering
# ----------------------------------------------------------------------


def _sample_spans():
    trace = mint_trace_id()
    return trace, [
        Span(trace, "admit", 100.0, 0.01, worker="nodeA"),
        Span(trace, "queue", 100.0, 0.4, worker="nodeA", cell_id="c1"),
        Span(trace, "steal", 101.0, 0.0, worker="nodeB", cell_id="c1"),
        Span(trace, "execute", 101.0, 1.0, worker="nodeB", cell_id="c1"),
    ]


class TestChrome:
    def test_spans_to_chrome_layout(self):
        trace, spans = _sample_spans()
        doc = spans_to_chrome(spans)
        events = [e for e in doc["traceEvents"] if e.get("ph") in ("X", "i")]
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert all(e["pid"] >= SERVICE_PID_BASE for e in events)
        # two workers -> two distinct pids, each with a process_name
        assert len({e["pid"] for e in events}) == 2
        names = {
            m["args"]["name"] for m in meta if m["name"] == "process_name"
        }
        assert names == {"serve nodeA", "serve nodeB"}
        # zero-width steal renders as an instant, timed spans as complete
        by_name = {e["name"]: e for e in events}
        assert by_name["steal"]["ph"] == "i" and by_name["steal"]["s"] == "t"
        assert by_name["execute"]["ph"] == "X"
        assert by_name["execute"]["dur"] == pytest.approx(1e6)
        # timestamps are relative to the earliest span
        assert by_name["admit"]["ts"] == 0.0
        assert by_name["execute"]["ts"] == pytest.approx(1e6)
        assert doc["otherData"]["traces"] == 1
        # cell-less admit lands on the scheduler thread
        assert by_name["admit"]["tid"] == 0
        assert by_name["execute"]["tid"] != 0
        assert by_name["execute"]["args"]["trace"] == trace

    def test_merge_chrome_preserves_sim_tracks(self):
        _, spans = _sample_spans()
        service = spans_to_chrome(spans)
        sim = {
            "traceEvents": [
                {"name": "bank", "ph": "X", "pid": 3, "tid": 1, "ts": 0,
                 "dur": 5},
            ],
            "otherData": {"workload": "HM1"},
        }
        merged = merge_chrome(service, [sim])
        assert sim["traceEvents"][0] in merged["traceEvents"]
        assert len(merged["traceEvents"]) == len(service["traceEvents"]) + 1
        assert merged["otherData"]["sim0"] == {"workload": "HM1"}
        # sim pids stay below the service band: no track collisions
        assert all(
            e["pid"] < SERVICE_PID_BASE
            for e in merged["traceEvents"]
            if e["name"] == "bank"
        )

    def test_empty_input(self):
        doc = spans_to_chrome([])
        assert doc["traceEvents"] == [] and doc["otherData"]["spans"] == 0


# ----------------------------------------------------------------------
# nearest_rank (the shared quantile index)
# ----------------------------------------------------------------------


class TestNearestRank:
    @pytest.mark.parametrize(
        "q,n,expected",
        [
            (0.0, 1, 0), (0.5, 1, 0), (0.99, 1, 0), (1.0, 1, 0),
            (0.0, 2, 0), (0.5, 2, 0), (0.99, 2, 1), (1.0, 2, 1),
            (0.0, 100, 0), (0.5, 100, 49), (0.99, 100, 98), (1.0, 100, 99),
        ],
    )
    def test_textbook_ranks(self, q, n, expected):
        assert nearest_rank(q, n) == expected

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nearest_rank(0.5, 0)

    def test_not_the_biased_int_truncation(self):
        # the old int(q * n) index: at q=0.5, n=2 it picked index 1 (the
        # max); nearest-rank picks the first element (rank 1 of 2)
        assert nearest_rank(0.5, 2) == 0 != int(0.5 * 2)


# ----------------------------------------------------------------------
# LogHistogram
# ----------------------------------------------------------------------


class TestLogHistogram:
    def test_quantile_is_bucket_bound_clamped_to_max(self):
        h = LogHistogram()
        h.observe(0.3)
        # a lone 0.3s sample reports 0.3s, not the 0.5s bucket edge
        assert h.quantile(0.99) == pytest.approx(0.3)
        for _ in range(99):
            h.observe(0.04)
        assert h.quantile(0.5) == pytest.approx(0.05)  # bucket upper bound
        assert h.quantile(1.0) == pytest.approx(0.3)
        assert h.quantile(0.0) == pytest.approx(0.05)

    def test_empty_and_negative(self):
        h = LogHistogram()
        assert h.quantile(0.99) is None
        h.observe(-1.0)  # clamped to zero, lands in the first bucket
        assert h.count == 1 and h.sum == 0.0
        assert h.quantile(0.5) == pytest.approx(0.0)

    def test_overflow_bucket(self):
        h = LogHistogram(bounds=(0.1, 1.0))
        h.observe(5.0)
        snap = h.snapshot()
        assert snap["buckets"][-1]["le"] == math.inf
        assert snap["buckets"][-1]["count"] == 1
        assert snap["buckets"][0]["count"] == 0
        assert h.quantile(0.99) == pytest.approx(5.0)  # inf clamped to max

    def test_snapshot_cumulative(self):
        h = LogHistogram(bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 2.0):
            h.observe(v)
        counts = [b["count"] for b in h.snapshot()["buckets"]]
        assert counts == [1, 3, 4, 4]
        assert h.snapshot()["sum"] == pytest.approx(3.05)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LogHistogram(bounds=())
        with pytest.raises(ValueError):
            LogHistogram(bounds=(1.0, 1.0))


# ----------------------------------------------------------------------
# retry_after: live queue-age p99, EMA fallback
# ----------------------------------------------------------------------


class TestRetryAfterFromQueueAge:
    def test_cold_start_falls_back_to_ema_estimate(self):
        adm = AdmissionController(quick_cap=4, bulk_cap=4, jobs=2)
        adm.try_admit(LANE_QUICK, 4)
        adm.observe_cell_seconds(2.0)
        # no dispatches yet: backlog x EMA / jobs, the pre-histogram formula
        assert adm.retry_after(LANE_QUICK) == pytest.approx(
            (4 + 1) * 2.0 / 2, abs=0.01
        )

    def test_p99_takes_over_once_lane_dispatches(self):
        adm = AdmissionController(quick_cap=4, bulk_cap=4, jobs=2)
        for _ in range(50):
            adm.observe_queue_age(LANE_QUICK, 4.0)
        hint = adm.retry_after(LANE_QUICK)
        assert hint == pytest.approx(4.0, abs=0.01)  # not backlog-derived
        # the other lane still cold: still the EMA path
        # (empty backlog: (0+1) x default 2.0s EMA / 2 jobs)
        assert adm.retry_after(LANE_BULK) == pytest.approx(1.0)

    def test_hint_clamped(self):
        adm = AdmissionController()
        adm.observe_queue_age(LANE_QUICK, 500.0)
        assert adm.retry_after(LANE_QUICK) == 60.0
        adm2 = AdmissionController()
        adm2.observe_queue_age(LANE_QUICK, 0.001)
        assert adm2.retry_after(LANE_QUICK) == 0.5

    def test_unknown_lane_folds_to_bulk(self):
        adm = AdmissionController()
        adm.observe_queue_age("mystery", 3.0)
        assert adm.queue_age[LANE_BULK].count == 1

    def test_snapshot_carries_histograms_and_hints(self):
        adm = AdmissionController(jobs=2)
        adm.observe_queue_age(LANE_QUICK, 1.2)
        adm.observe_cell_seconds(0.8, lane=LANE_QUICK)
        snap = adm.snapshot()
        assert snap["queue_age"][LANE_QUICK]["count"] == 1
        assert snap["service_time"][LANE_QUICK]["count"] == 1
        assert snap["service_time"][LANE_BULK]["count"] == 0
        assert set(snap["retry_after"]) == {LANE_QUICK, LANE_BULK}
        assert snap["retry_after"][LANE_QUICK] == pytest.approx(1.2, abs=0.01)


# ----------------------------------------------------------------------
# Manifest compatibility: spans are invisible to every existing reader
# ----------------------------------------------------------------------


class TestManifestCompat:
    def test_span_lines_do_not_reach_records_or_scan(self, tmp_path):
        manifest = _manifest(tmp_path)
        log = SpanLog(manifest, "nodeA")
        trace = mint_trace_id()
        log.record(STAGE_QUEUE, trace, 1.0, 0.5, cell_id="c1")
        log.record(STAGE_STEAL, trace, 2.0, 0.0, cell_id="c1")
        assert manifest.records() == {}
        scan = manifest.scan()
        assert scan.records == {} and scan.claims == {}

    def test_digest_inputs_identical_with_and_without_spans(self, tmp_path):
        plain = Manifest(tmp_path / "plain.jsonl")
        plain.reset(meta={})
        traced = Manifest(tmp_path / "traced.jsonl")
        traced.reset(meta={})
        log = SpanLog(traced, "nodeA")
        from repro.campaign.manifest import CellRecord

        rec = CellRecord(
            cell_id="c1", workload="HM1", scheme="base", status="ok",
            attempts=1, elapsed=0.5, summary={"cycles": 10},
        )
        log.record(STAGE_QUEUE, mint_trace_id(), 1.0, 0.5, cell_id="c1")
        plain.append(rec)
        traced.append(rec)
        log.record(STAGE_MERGE, mint_trace_id(), 2.0, 0.01, cell_id="c1")
        assert {
            cid: r.summary for cid, r in plain.records().items()
        } == {cid: r.summary for cid, r in traced.records().items()}

    def test_claim_record_trace_round_trip(self, tmp_path):
        manifest = _manifest(tmp_path)
        trace = mint_trace_id()
        manifest.append_claim(
            ClaimRecord(
                cell_id="c1", worker="nodeA", gen=1, clock=5, lease=25,
                spec={"workload": "HM1"}, trace=trace,
            )
        )
        manifest.append_claim(
            ClaimRecord(cell_id="c2", worker="nodeA", gen=1, clock=6, lease=26)
        )
        scan = manifest.scan()
        assert scan.claims["c1"].trace == trace
        assert scan.claims["c2"].trace is None

    def test_claim_trace_survives_raw_json(self, tmp_path):
        # the wire shape is part of the cross-process contract
        manifest = _manifest(tmp_path)
        trace = mint_trace_id()
        manifest.append_claim(
            ClaimRecord(
                cell_id="c1", worker="nodeA", gen=1, clock=5, lease=25,
                trace=trace,
            )
        )
        lines = [
            json.loads(ln)
            for ln in manifest.path.read_text().splitlines()
            if '"claim"' in ln
        ]
        assert lines[-1]["trace"] == trace
