"""Every JSONL file reader skips the same damaged lines.

Manifests (their records, claims and span lines) are all read
through one line source and one line parser
(:func:`repro.campaign.manifest.read_lines` / ``parse_line``).  These tests
feed each reader the lines a crashed or garbling writer leaves behind (a
blank line, a torn line, a line of invalid UTF-8, a torn unterminated tail)
between valid lines and require exactly the valid content back; check that
the span and claim lines a service interleaves never hide a cell's record;
and bound the memory a manifest scan holds on top of its result.
"""

import json
import re
import tracemalloc

import pytest

from repro.campaign.manifest import Manifest, ManifestFollower
from repro.cli import main
from repro.obs.spans import STAGE_MERGE, STAGE_QUEUE, Span, read_spans

HEADER = {"kind": "header", "version": 1}
TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"

#: what a crashed or garbling writer leaves between (and after) valid lines
BLANK = b"\n"
TORN = b'{"kind": "span", "cell_id": "cX", "workload": "WX", "bench": "b\n'
GARBLED = b'{"kind": "span", "cell_id": "\xff\xfe", \x80 "bench": "bX"}\n'
TAIL = b'{"kind": "span", "cell_id": "cY", "workload": "WY", "v": 1, "be'


def _record(i):
    return {
        "cell_id": f"c{i}", "workload": f"W{i}", "scheme": "base",
        "status": "ok", "attempts": 1, "elapsed": 1.0,
        "summary": {"geomean_ipc": 1.0 + i},
    }


def _span(i, name=STAGE_QUEUE):
    return Span(TRACE, name, float(i), 0.5, worker="n0", cell_id=f"c{i}").to_payload()


# ----------------------------------------------------------------------
# The readers, each returning the keys of what it read
# ----------------------------------------------------------------------


def _records(path):
    return list(Manifest(path).records())


def _follow(path):
    follower = ManifestFollower(path)
    follower.poll()
    return list(follower.done)


def _spans(path):
    return [s.cell_id for s in read_spans(path)]


def _report_rows(path):
    out = path.with_name("dash.html")
    assert main(["report", "--manifest", str(path), "--out", str(out),
                 "--refs", "100", "--quiet"]) == 0
    page = out.read_text()
    assert "campaign comparison" in page
    table = page.split("campaign comparison", 1)[1].split("</table>", 1)[0]
    return re.findall(r"<td class='l'>([^<]*)</td>", table)


#: reader -> (first line, valid payload i, key of payload i)
READERS = {
    "Manifest.records": (_records, HEADER, _record, "cell_id"),
    "ManifestFollower": (_follow, HEADER, _record, "cell_id"),
    "read_spans": (_spans, HEADER, _span, "cell_id"),
    "report_rows": (_report_rows, HEADER, _record, "workload"),
}


def _jsonl(payload):
    return json.dumps(payload).encode() + b"\n"


@pytest.mark.parametrize("reader", list(READERS))
def test_reader_returns_exactly_the_valid_lines(reader, tmp_path):
    read, first, payload, key = READERS[reader]
    valid = [payload(i) for i in range(4)]
    path = tmp_path / "m.jsonl"
    with open(path, "wb") as fh:
        fh.write(_jsonl(first))
        for line, damage in zip(valid, (BLANK, TORN, GARBLED, TAIL)):
            fh.write(_jsonl(line) + damage)
    assert sorted(read(path)) == sorted(p[key] for p in valid)


@pytest.mark.parametrize(
    "reader", ["Manifest.records", "ManifestFollower", "report_rows"]
)
def test_merge_span_after_each_record_keeps_every_cell(reader, tmp_path):
    """A service appends each cell's ``merge`` span right after its record:
    the span carries the cell id but must not stand in for the record."""
    read, _first, _payload, key = READERS[reader]
    path = tmp_path / "m.jsonl"
    with open(path, "wb") as fh:
        fh.write(_jsonl(HEADER))
        for i in range(3):
            fh.write(_jsonl(_record(i)) + _jsonl(_span(i, STAGE_MERGE)))
    assert sorted(read(path)) == sorted(_record(i)[key] for i in range(3))


def _follower_poll(path):
    follower = ManifestFollower(path)
    follower.poll()
    return follower.scan


def test_scan_streams_instead_of_holding_the_file(tmp_path):
    """What a manifest scan, or a follower's first poll, allocates on top
    of its result stays a few lines' worth however big the file is (not
    copies of the file)."""
    path = tmp_path / "big.jsonl"
    summary = {f"metric_{k}": 1.0 / (k + 1) for k in range(24)}
    with open(path, "wb") as fh:
        fh.write(_jsonl(HEADER))
        for i in range(1200):
            fh.write(_jsonl({**_record(i), "summary": summary}))
            fh.write(_jsonl(_span(i, STAGE_MERGE)))
    size = path.stat().st_size
    assert size >= 1 << 20
    for scan in (lambda path: Manifest(path).scan(), _follower_poll):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = scan(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == 1200
        assert peak - held < 256 * 1024, (scan, peak - held, size)
