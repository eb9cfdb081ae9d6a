"""Live campaign progress and ETA.

The reporter counts cell outcomes (done / ok / failed / cached / resumed /
retried) and hands them to telemetry consumers as :meth:`status`.  When
``enabled`` it also prints one line per finished cell with a wall-clock ETA
extrapolated from the mean cell runtime divided by the worker count.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO


def _fmt_duration(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"


class CampaignProgress:
    """Counts cell outcomes; optionally narrates them with an ETA."""

    def __init__(
        self,
        total: int,
        jobs: int = 1,
        enabled: bool = False,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.enabled = enabled
        self.stream = stream or sys.stdout
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.cached = 0
        self.resumed = 0
        self.retried = 0
        self._executed = 0
        self._elapsed_sum = 0.0
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    def cell_done(self, record: Any, source: str = "executed") -> None:
        """Count one terminal cell; ``source`` is executed/cached/resumed."""
        self.done += 1
        if record.ok:
            self.ok += 1
        else:
            self.failed += 1
        # Cache hits and resumed cells must never feed the rate estimate:
        # they complete in ~0s, so folding them into the mean would make
        # ETAs on resumed/warm-cache campaigns wildly optimistic.  The
        # record's own ``cached`` flag is honoured too, so a mislabelled
        # source cannot leak a 0s sample into the mean.
        if source == "cached" or getattr(record, "cached", False):
            self.cached += 1
        elif source == "resumed":
            self.resumed += 1
        else:
            self._executed += 1
            self._elapsed_sum += record.elapsed
        if not self.enabled:
            return
        note = "" if source == "executed" else f" ({source})"
        status = record.status if record.ok else record.status.upper()
        line = (
            f"  [{self.done}/{self.total}] {record.workload}/{record.scheme} "
            f"{status}{note} {record.elapsed:.1f}s"
        )
        diagnosis = getattr(record, "diagnosis", None)
        if diagnosis:
            line += f"  [{diagnosis.get('reason', 'integrity')}]"
        eta = self.eta_seconds()
        if eta is not None and self.done < self.total:
            line += f"  eta {_fmt_duration(eta)}"
        print(line, file=self.stream, flush=True)

    def retry(self, cell: Any, attempt: int, reason: str) -> None:
        self.retried += 1
        if self.enabled:
            print(
                f"  retrying {cell.describe()} (attempt {attempt} failed: "
                f"{reason})",
                file=self.stream,
                flush=True,
            )

    # ------------------------------------------------------------------
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall-clock estimate; None until one cell has *run*.

        The mean cell runtime is computed over executed cells only — cached
        and resumed cells are excluded (they finish in ~0s and would drag
        the mean toward zero).  The mean is divided by the *effective*
        parallelism ``min(jobs, remaining)``: with 3 cells left an 8-worker
        pool runs at most 3 of them, so dividing by 8 would understate the
        tail of every campaign.
        """
        if self._executed == 0:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        mean = self._elapsed_sum / self._executed
        return remaining * mean / min(self.jobs, remaining)

    def wall_seconds(self) -> float:
        """Wall-clock seconds since the campaign started."""
        return time.monotonic() - self._t0

    def status(self) -> dict:
        """JSON-ready campaign totals for telemetry consumers."""
        eta = self.eta_seconds()
        return {
            "total": self.total,
            "done": self.done,
            "ok": self.ok,
            "failed": self.failed,
            "cached": self.cached,
            "resumed": self.resumed,
            "retried": self.retried,
            "executed": self._executed,
            "jobs": self.jobs,
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "wall_seconds": round(self.wall_seconds(), 3),
        }
