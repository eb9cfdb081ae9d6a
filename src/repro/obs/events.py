"""Typed trace events for the observability subsystem.

Every recordable occurrence in the simulator is one :class:`TraceEvent` with
a dot-namespaced ``kind`` drawn from the constants below.  Kinds are plain
strings (not enums) so the hot emit path pays no attribute lookups and the
exporters can group by prefix (``bank.*``, ``pf.*``) with a split.

Prefetch events carry a **provenance tag** identifying which decision path
issued the prefetch - the paper's two trigger mechanisms:

* :data:`PROV_UTILIZATION` - the RUT utilization counter crossed the
  threshold (a high-utilization open row was moved to the buffer).
* :data:`PROV_CONFLICT` - the activated row had a Conflict Table entry
  (a conflict-prone row was fetched preemptively).

Other schemes use their own tags (``"base"``, ``"queue"``, ``"mmd"``) so a
trace always answers *why* each row entered the buffer.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

# --- bank command / row-buffer events ---------------------------------------
BANK_ACT = "bank.act"  # ACTIVATE command
BANK_PRE = "bank.pre"  # PRECHARGE command
BANK_READ = "bank.read"  # column READ
BANK_WRITE = "bank.write"  # column WRITE
BANK_REFRESH = "bank.refresh"  # per-bank REFRESH
BANK_CONFLICT = "bank.conflict"  # demand access found a different row open

# --- CAMPS profiling-table events -------------------------------------------
RUT_THRESHOLD = "rut.threshold"  # utilization counter crossed the threshold
CT_INSERT = "ct.insert"  # displaced row entered the Conflict Table
CT_HIT = "ct.hit"  # activated row found in the CT (conflict-prone)
CT_EVICT = "ct.evict"  # LRU eviction from a full CT

# --- prefetch lifecycle ------------------------------------------------------
PF_ISSUE = "pf.issue"  # decision made: fetch this row to the buffer
PF_FILL = "pf.fill"  # row streaming over the TSVs into the buffer
PF_HIT = "pf.hit"  # demand access served from the prefetch buffer
PF_EVICT = "pf.evict"  # row left the buffer (replacement / invalidate)
BUF_REPLACE = "buf.replace"  # replacement decision (victim choice)

# --- transfers ---------------------------------------------------------------
LINK_TX = "link.tx"  # packet serialized onto an external serial link
LINK_RETRY = "link.retry"  # CRC/drop episode: NAK'd packet replayed from the retry buffer
LINK_RETRAIN = "link.retrain"  # bounded retries exhausted: link retraining penalty
TSV_XFER = "tsv.xfer"  # row/line transfer over a vault's internal TSVs

# --- scheduler ---------------------------------------------------------------
SCHED_DRAIN = "sched.drain"  # write-drain mode toggled

# --- provenance tags ---------------------------------------------------------
PROV_UTILIZATION = "utilization"
PROV_CONFLICT = "conflict"

#: every kind the exporters know how to label, in display order
ALL_KINDS = (
    BANK_ACT,
    BANK_PRE,
    BANK_READ,
    BANK_WRITE,
    BANK_REFRESH,
    BANK_CONFLICT,
    RUT_THRESHOLD,
    CT_INSERT,
    CT_HIT,
    CT_EVICT,
    PF_ISSUE,
    PF_FILL,
    PF_HIT,
    PF_EVICT,
    BUF_REPLACE,
    LINK_TX,
    LINK_RETRY,
    LINK_RETRAIN,
    TSV_XFER,
    SCHED_DRAIN,
)


class TraceEvent:
    """One recorded occurrence.

    ``time`` and ``dur`` are in CPU cycles (the engine's clock).  ``vault``
    and ``bank`` place the event on a track; ``-1`` means device-level (no
    vault) or controller-level (no bank).  ``args`` carries event-specific
    payload (row, provenance, byte counts, ...) and may be None.
    """

    __slots__ = ("kind", "time", "dur", "vault", "bank", "args")

    def __init__(
        self,
        kind: str,
        time: int,
        dur: int = 0,
        vault: int = -1,
        bank: int = -1,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.time = time
        self.dur = dur
        self.vault = vault
        self.bank = bank
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form (the JSONL exporter's record shape)."""
        d: Dict[str, Any] = {"kind": self.kind, "time": self.time}
        if self.dur:
            d["dur"] = self.dur
        if self.vault >= 0:
            d["vault"] = self.vault
        if self.bank >= 0:
            d["bank"] = self.bank
        if self.args:
            d.update(self.args)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        loc = f"v{self.vault}" + (f"b{self.bank}" if self.bank >= 0 else "")
        return f"<TraceEvent {self.kind} t={self.time} {loc} {self.args or ''}>"
