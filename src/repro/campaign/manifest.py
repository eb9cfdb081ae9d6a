"""Resumable campaign manifests: one JSONL record per finished cell.

The manifest is the campaign's durable progress log.  Every completed or
failed cell appends exactly one line, flushed immediately, so a campaign
killed mid-run can be re-invoked with ``resume=True`` and re-execute only
the cells that never finished (or that finished with an error).

File layout::

    {"kind": "header", "version": 1, "cells": 8, "jobs": 4, "cell_ids": [...]}
    {"cell_id": "...", "workload": "HM1", "scheme": "base", "status": "ok",
     "attempts": 1, "elapsed": 1.93, "summary": {...}}
    {"cell_id": "...", ..., "status": "timeout", "error": "..."}

The header may carry campaign metadata (cell count, worker count, the
grid's cell ids) so live monitors (``repro monitor``) can report progress
against a known total, counting only the grid's records; readers ignore
keys they do not understand.

A header with an unknown version invalidates the whole file (it is rewritten
fresh rather than mixing incompatible records); unreadable lines are skipped,
so a record truncated by a crash costs one cell, not the campaign.

Work-stealing records
---------------------
``repro serve`` extends the same file into a multi-writer, lease-based work
queue.  Two additional record kinds interleave with terminal cell records::

    {"kind": "claim", "cell_id": "...", "worker": "s0", "gen": 2,
     "clock": 17, "lease": 41, "spec": {...}}
    {"kind": "tick", "worker": "s0", "clock": 18}

A *claim* announces that one scheduler generation owns a cell until the
logical clock passes ``lease``; *ticks* are scheduler heartbeats that
advance the clock.  The clock is logical — the max ``clock`` stamped on any
claim/tick — so lease expiry is driven by surviving schedulers making
progress, never by wall-clock skew between writers.  A claim whose owner
died (no renewals) expires after ``lease - clock`` ticks of the survivors
and the cell is stolen and re-run; ``spec`` carries enough of the cell to
rebuild it in a process that never saw the original submission.

Terminal records stay the authoritative exactly-once merge: claims and
ticks are invisible to :meth:`Manifest.records`, so every pre-serve reader
(resume, monitors, the HTML report) sees exactly the layout it always did.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterator, Optional, Set, Tuple, Union

MANIFEST_VERSION = 1

#: terminal cell states recorded in the manifest
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: non-terminal record kinds (work-stealing queue overlay + tracing)
KIND_HEADER = "header"
KIND_CLAIM = "claim"
KIND_TICK = "tick"
KIND_SPAN = "span"


@dataclass
class CellRecord:
    """Terminal outcome of one cell (one manifest line)."""

    cell_id: str
    workload: str
    scheme: str
    status: str  # "ok" | "error" | "timeout"
    attempts: int
    elapsed: float
    summary: Optional[dict] = None  # _CACHED_FIELDS projection when ok
    error: Optional[str] = None
    cached: bool = False  # satisfied from the result log, not simulated
    #: structured diagnosis from the integrity layer (repro.sim.integrity):
    #: reason, stuck component, violations, crash-dump path.  A diagnosed
    #: error is deterministic - resume skips the cell instead of retrying it.
    diagnosis: Optional[dict] = None
    #: path of the RunReport artifact (repro.obs.report) written for this
    #: cell, when the campaign ran with a report directory.  Cached and
    #: resumed cells carry no report (nothing was simulated).  Optional
    #: field within MANIFEST_VERSION 1: older readers ignore unknown keys.
    report: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def settled(self) -> bool:
        """Ok or diagnosed: resume reuses the record instead of re-running
        the cell.  Undiagnosed errors and timeouts stay re-runnable."""
        return self.ok or self.diagnosis is not None


@dataclass(frozen=True)
class ClaimRecord:
    """A lease on one cell held by one scheduler generation.

    ``gen`` is the worker/scheduler generation id (monotonic across
    re-attaches to the same manifest: a restarted scheduler claims with a
    higher generation, so duplicate claims resolve deterministically —
    higher generation wins, then higher clock, then worker name).  ``clock``
    is the logical timestamp at claim time and ``lease`` the logical expiry;
    ``spec`` is an optional portable cell description so a stealing peer can
    rebuild the cell without the original submission.
    """

    cell_id: str
    worker: str
    gen: int
    clock: int
    lease: int
    spec: Optional[dict] = None
    #: trace id of the submission that created the cell (repro.obs.spans).
    #: Carried in the claim so a *stolen* cell keeps its trace across
    #: processes and restarts; optional and ignored by older readers.
    trace: Optional[str] = None

    def beats(self, other: Optional["ClaimRecord"]) -> bool:
        """Claim-conflict resolution: higher (gen, clock, worker) wins."""
        if other is None:
            return True
        return (self.gen, self.clock, self.worker) > (
            other.gen,
            other.clock,
            other.worker,
        )


@dataclass
class ManifestScan:
    """Full parse of a manifest as a work queue: terminal records, the
    winning claim per cell, and the logical-clock high-water mark."""

    records: Dict[str, CellRecord] = field(default_factory=dict)
    claims: Dict[str, ClaimRecord] = field(default_factory=dict)
    clock: int = 0
    max_gen: int = 0
    #: header fields other than ``kind`` (version, cells, jobs, ...)
    meta: Dict[str, Any] = field(default_factory=dict)

    def expired(self, cell_id: str) -> bool:
        """True when the cell is claimed, unfinished, and past its lease."""
        claim = self.claims.get(cell_id)
        if claim is None or cell_id in self.records:
            return False
        return claim.lease < self.clock


class IncompatibleManifest(ValueError):
    """The file is not a manifest this reader understands (unknown header
    version, or a headerless file predating the format): every record in it
    is disregarded."""


def _decode(data: bytes) -> str:
    # never fails: invalid UTF-8 becomes lone surrogates, so a damaged line
    # costs that line (or nothing), and decoding a whole file or one line at
    # a time gives the same lines
    return data.decode("utf-8", "surrogateescape")


def read_lines(path: Union[str, Path]) -> Iterator[str]:
    """Stream a file's lines, each decoded by :func:`_decode`: the line
    source of every JSONL file reader (manifests and their span and claim
    lines).  Holds one line at a time; a missing file yields none."""
    try:
        with open(path, "rb") as fh:
            for line in fh:
                yield _decode(line)
    except OSError:
        return


def parse_line(line: Union[str, bytes]) -> Optional[dict]:
    """The JSON object on one JSONL line, or None for a blank, torn,
    garbled or non-object line: the one line parser of every JSONL file
    reader, so each skips exactly the lines the manifest reader skips."""
    line = line.strip()
    if not line:
        return None
    try:
        raw = json.loads(line)
    except ValueError:
        return None  # torn write (crash mid-append): costs one record
    return raw if isinstance(raw, dict) else None


def fold_line(scan: ManifestScan, index: int, line: str) -> Optional[CellRecord]:
    """Fold one manifest line, parsed by :func:`parse_line`, into ``scan``.

    ``index`` is the line's position in the file (0 for the first line,
    blank lines included).  Returns the terminal record when the line is
    one, else None.  Torn or unparseable lines are skipped; raises
    :class:`IncompatibleManifest` when the file must be treated as empty.
    """
    raw = parse_line(line)
    if raw is None:
        return None
    kind = raw.get("kind")
    if kind == KIND_HEADER:
        if raw.get("version") != MANIFEST_VERSION:
            raise IncompatibleManifest(f"manifest version {raw.get('version')!r}")
        scan.meta = {k: v for k, v in raw.items() if k != "kind"}
        return None
    if index == 0:
        raise IncompatibleManifest("headerless file predates the format")
    if kind == KIND_TICK:
        try:
            scan.clock = max(scan.clock, int(raw["clock"]))
        except (KeyError, TypeError, ValueError):
            pass
        try:
            if "gen" in raw:
                scan.max_gen = max(scan.max_gen, int(raw["gen"]))
        except (TypeError, ValueError):
            pass
        return None
    if kind == KIND_CLAIM:
        trace = raw.get("trace")
        try:
            claim = ClaimRecord(
                cell_id=raw["cell_id"],
                worker=str(raw.get("worker", "?")),
                gen=int(raw["gen"]),
                clock=int(raw["clock"]),
                lease=int(raw["lease"]),
                spec=raw.get("spec"),
                trace=trace if isinstance(trace, str) else None,
            )
        except (KeyError, TypeError, ValueError):
            return None
        scan.clock = max(scan.clock, claim.clock)
        scan.max_gen = max(scan.max_gen, claim.gen)
        if claim.beats(scan.claims.get(claim.cell_id)):
            scan.claims[claim.cell_id] = claim
        return None
    if kind is not None:
        return None  # span or unknown overlay kind from a newer writer
    try:
        rec = CellRecord(
            cell_id=raw["cell_id"],
            workload=raw["workload"],
            scheme=raw["scheme"],
            status=raw["status"],
            attempts=int(raw.get("attempts", 1)),
            elapsed=float(raw.get("elapsed", 0.0)),
            summary=raw.get("summary"),
            error=raw.get("error"),
            cached=bool(raw.get("cached", False)),
            diagnosis=raw.get("diagnosis"),
            report=raw.get("report"),
        )
    except (KeyError, TypeError, ValueError):
        return None
    scan.records[rec.cell_id] = rec
    return rec


class Manifest:
    """Append-only JSONL progress log keyed by cell id."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> Dict[str, CellRecord]:
        """Parse the manifest; last record per cell wins.

        Returns ``{}`` for a missing file, a version-incompatible file, or a
        file with no parseable records.
        """
        return self.scan().records

    def scan(self) -> ManifestScan:
        """Parse the manifest as a work queue: terminal records, winning
        claims, and the logical-clock high-water mark.

        Streams the file (:func:`read_lines`).  Torn lines (a crash
        mid-append — including a torn *claim* as the very last record) are
        skipped; a duplicate claim for one cell resolves by
        :meth:`ClaimRecord.beats` (higher generation wins).
        Returns an empty scan for a missing or version-incompatible file.
        :class:`ManifestFollower` runs the same fold incrementally.
        """
        out = ManifestScan()
        try:
            for i, line in enumerate(read_lines(self.path)):
                fold_line(out, i, line)
        except IncompatibleManifest:
            return ManifestScan()
        return out

    def has_header(self) -> bool:
        """True when the first line is a header of this manifest version:
        the file is a manifest this reader understands."""
        raw = parse_line(next(read_lines(self.path), ""))
        return (
            raw is not None
            and raw.get("kind") == KIND_HEADER
            and raw.get("version") == MANIFEST_VERSION
        )

    def header(self) -> Optional[dict]:
        """The campaign header, or None for a missing/invalid manifest.

        The first line decides validity (:meth:`has_header`); the values
        come from the last header line, which is the current run's after a
        resume appended one (the fields :meth:`scan` reports as ``meta``).
        """
        if not self.has_header():
            return None
        meta = self.scan().meta
        return {"kind": KIND_HEADER, **meta} if meta else None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def reset(self, meta: Optional[dict] = None) -> None:
        """Start a fresh manifest (header only), discarding old records.

        ``meta`` keys (e.g. ``cells``, ``jobs``) are merged into the header
        for consumers that want campaign totals without scanning records.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "header", "version": MANIFEST_VERSION}
        if meta:
            header.update({k: v for k, v in meta.items() if k not in header})
        with open(self.path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def append_header(self, meta: dict) -> None:
        """Append a header line carrying ``meta`` (a resumed campaign's
        ``cells``, ``jobs`` and ``cell_ids``); readers take the last
        header's fields."""
        header = {"kind": KIND_HEADER, "version": MANIFEST_VERSION}
        self._append_line({**meta, **header}, durable=True)

    def append(self, record: CellRecord) -> None:
        """Durably append one terminal cell record."""
        payload = {k: v for k, v in asdict(record).items() if v is not None}
        self._append_line(payload, durable=True)

    def append_claim(self, claim: ClaimRecord) -> None:
        """Durably append one work-queue claim (or lease renewal)."""
        payload: dict = {
            "kind": KIND_CLAIM,
            "cell_id": claim.cell_id,
            "worker": claim.worker,
            "gen": claim.gen,
            "clock": claim.clock,
            "lease": claim.lease,
        }
        if claim.spec is not None:
            payload["spec"] = claim.spec
        if claim.trace is not None:
            payload["trace"] = claim.trace
        self._append_line(payload, durable=True)

    def append_span(self, payload: dict) -> None:
        """Append one tracing span record (:mod:`repro.obs.spans`).

        Spans are observability, not state: flushed but never fsynced (a
        crash loses at most the in-flight span), invisible to
        :meth:`records`/:meth:`scan` merging, and safe to interleave from
        many writers like every other overlay record.
        """
        if payload.get("kind") != KIND_SPAN:
            payload = {**payload, "kind": KIND_SPAN}
        self._append_line(payload, durable=False)

    def append_tick(
        self, worker: str, clock: int, gen: Optional[int] = None
    ) -> None:
        """Append one scheduler heartbeat advancing the logical clock.

        Ticks are frequent and individually disposable (the clock is a max
        over all of them), so they are flushed but not fsynced.  A tick may
        carry the writer's generation (the attach-time announcement): that
        publishes the generation even before the scheduler's first claim,
        so a later attach cannot hand the same generation out again.
        """
        payload: dict = {"kind": KIND_TICK, "worker": worker, "clock": clock}
        if gen is not None:
            payload["gen"] = gen
        self._append_line(payload, durable=gen is not None)

    def _append_line(self, payload: dict, durable: bool) -> None:
        """One-line O_APPEND write shared by every record kind.

        Multi-writer safe for the short lines the queue overlay emits:
        append-mode writes of a single buffered line land atomically on
        local filesystems, and readers tolerate torn lines regardless.
        A torn *trailing* line (a peer crashed mid-append) is healed with a
        newline first, so the tear stays confined to the crashed writer's
        record instead of corrupting ours too.  Raises ``OSError`` (e.g.
        ENOSPC) to the caller — the serve layer retries terminal records
        until they land.
        """
        if not self.path.exists():
            self.reset()
        with open(self.path, "ab") as fh:
            prefix = b""
            try:
                if fh.tell() > 0:
                    with open(self.path, "rb") as tail:
                        tail.seek(-1, os.SEEK_END)
                        if tail.read(1) != b"\n":
                            prefix = b"\n"
            except OSError:
                pass
            fh.write(prefix + json.dumps(payload).encode() + b"\n")
            fh.flush()
            if durable:
                os.fsync(fh.fileno())


class JsonlTailer:
    """Incremental reader of a growing JSONL file.

    Each :meth:`poll_lines` yields the lines appended since the last poll.
    Handles the failure shapes the manifest writers can produce:

    * **torn trailing line** — an incomplete final line (no newline yet) is
      buffered, not returned; it is emitted once the writer completes it;
    * **record appended mid-read** — only complete newline-terminated lines
      are consumed, so a concurrent append is picked up whole next poll;
    * **rotation / truncation** — an inode change or a shrink below the
      current offset resets the tailer to offset zero of the new file.  A
      truncate-and-rewrite that regrows *to or past* the current offset
      between polls (same inode, no observable shrink) is caught by two
      anchors: the first bytes of the file and the last bytes consumed are
      remembered and re-checked on every poll, so a replaced file resets
      the tailer instead of yielding bytes from a stale offset.  (A rewrite
      that reproduces both anchors byte for byte cannot be told apart
      without re-reading the whole file.)

    Every reset bumps :attr:`resets`, so a reader folding state over the
    lines knows to restart its fold.  The lines come back raw: a reader
    parses them through :func:`parse_line`, which skips the unparseable
    *complete* lines a crash mid-file leaves, like every other JSONL file
    reader.
    """

    #: bytes of the file head (and of the consumed tail) remembered to
    #: detect truncate-and-rewrite
    ANCHOR_BYTES = 64
    #: bytes per read: a first poll of a large file holds its lines, never
    #: the whole file as one buffer beside them
    CHUNK_BYTES = 1 << 16

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: times the tailer restarted from offset zero
        self.resets = 0
        self._pos = 0
        self._buf = b""
        self._sig: Optional[Tuple[int, int]] = None  # (st_dev, st_ino)
        self._head = b""  # first bytes of the file identity we are tailing
        self._tail = b""  # last bytes consumed, ending at _pos

    def _reset(self) -> None:
        self.resets += 1
        self._pos = 0
        self._buf = b""
        self._head = b""
        self._tail = b""

    def _same_file(self, fh: BinaryIO) -> bool:
        if fh.read(len(self._head)) != self._head:
            return False
        fh.seek(self._pos - len(self._tail))
        return fh.read(len(self._tail)) == self._tail

    def poll_lines(self) -> Iterator[bytes]:
        """Complete lines appended since the last poll (newline stripped),
        yielded a chunk at a time as they are read.  Any reset is taken
        before the first line comes back."""
        try:
            st = os.stat(self.path)
        except OSError:
            self._reset()
            self._sig = None
            return
        sig = (st.st_dev, st.st_ino)
        if sig != self._sig or st.st_size < self._pos:
            self._reset()
            self._sig = sig
        try:
            with open(self.path, "rb") as fh:
                if self._pos and not self._same_file(fh):
                    # same inode, size >= our offset, different bytes: the
                    # file was truncated and rewritten between polls
                    self._reset()
                fh.seek(self._pos)
                while True:
                    chunk = fh.read(self.CHUNK_BYTES)
                    if not chunk:
                        break
                    if self._pos < self.ANCHOR_BYTES:
                        self._head = (self._head + chunk)[: self.ANCHOR_BYTES]
                    self._pos += len(chunk)
                    self._tail = (self._tail + chunk)[-self.ANCHOR_BYTES :]
                    lines = (self._buf + chunk).split(b"\n")
                    # torn trailing line (b"" when newline-final)
                    self._buf = lines.pop()
                    yield from lines
        except OSError:
            pass  # the lines of the chunks read so far stay consumed


class ManifestFollower:
    """:meth:`Manifest.scan` kept current from a byte offset.

    Each :meth:`poll` folds only the lines appended since the previous one
    (through :func:`fold_line`, the parser :meth:`Manifest.scan` runs over
    the whole file), so following a manifest costs O(new lines), not
    O(file).  A tailer reset (rotation, truncation, rewrite) restarts the
    fold from the new header.

    :attr:`done` keeps only the ids of terminal cells; the parsed records
    wait in ``scan.records`` until :meth:`take_records` hands them out, so
    a long-lived follower holds each summary once, briefly.  A reader that
    never takes them (the telemetry aggregator) keeps the file's
    last-record-wins map there instead.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._tailer = JsonlTailer(path)
        self._resets = self._tailer.resets
        self._index = 0  # file line number of the next line folded
        self._valid = True
        #: winning claims, clock and max_gen of the whole file; ``records``
        #: holds only terminal records not yet taken
        self.scan = ManifestScan()
        #: ids of every terminal cell in the file
        self.done: Set[str] = set()

    def poll(self) -> None:
        """Fold the lines appended since the previous poll, each as the
        tailer reads it (a first poll of a large file never holds all of
        its lines at once)."""
        lines = self._tailer.poll_lines()
        first = next(lines, None)  # any tailer reset is taken by now
        if self._tailer.resets != self._resets:
            self._resets = self._tailer.resets
            self._restart()
        if first is None:
            return
        for line in chain((first,), lines):
            if not self._valid:
                continue  # incompatible file: nothing in it counts until a reset
            try:
                rec = fold_line(self.scan, self._index, _decode(line))
            except IncompatibleManifest:
                self._restart()
                self._valid = False
                continue
            self._index += 1
            if rec is not None:
                self.done.add(rec.cell_id)

    def take_records(self) -> Dict[str, CellRecord]:
        """Terminal records folded since the previous call."""
        out, self.scan.records = self.scan.records, {}
        return out

    def _restart(self) -> None:
        self._index = 0
        self._valid = True
        self.scan = ManifestScan()
        self.done = set()
