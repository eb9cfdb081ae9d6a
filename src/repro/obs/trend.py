"""Benchmark history store and rolling-median regression detection.

Every benchmark run appends one JSONL record to ``BENCH_history.jsonl`` via
:func:`append_entry` (digest, wall time, calibration-normalized wall time,
git SHA, timestamp).  ``repro bench-trend`` loads the history and flags any
benchmark whose newest normalized time regressed against the rolling median
of its previous runs — the median absorbs the occasional noisy run that a
latest-vs-previous comparison would misread.

Normalization: benchmarks that measure a calibration score (dict-churn ops/s
on the host, see ``benchmarks/bench_hotpath.py``) record
``normalized = wall * calibration / 1e6`` so entries from machines of
different speeds share one scale; benchmarks without calibration record the
raw wall time and trend analysis is only meaningful per-machine.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

HISTORY_VERSION = 1

#: default history file, next to the BENCH_*.json artifacts at the repo root
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: how many prior runs feed the rolling median
DEFAULT_WINDOW = 8

#: latest/median ratio above which a benchmark is flagged (25 % — wall-time
#: medians on shared CI runners jitter by ~10 %, so a tighter gate would cry
#: wolf)
DEFAULT_TOLERANCE = 0.25


def git_sha() -> str:
    """Short commit SHA of the working tree, or "unknown" outside git."""
    env_sha = os.environ.get("GITHUB_SHA")
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env_sha[:12] if env_sha else "unknown"


def append_entry(
    path: Union[str, Path],
    bench: str,
    wall_seconds: float,
    normalized: Optional[float] = None,
    digest: Optional[str] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Append one benchmark result to the history file; returns the record."""
    record = {
        "v": HISTORY_VERSION,
        "bench": bench,
        "wall_seconds": round(float(wall_seconds), 6),
        "normalized": round(float(normalized), 6)
        if normalized is not None
        else round(float(wall_seconds), 6),
        "digest": digest,
        "git_sha": git_sha(),
        "ts": time.time(),
    }
    if meta:
        record["meta"] = meta
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps({k: v for k, v in record.items() if v is not None}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return record


def load_history(path: Union[str, Path]) -> List[dict]:
    """Read the history tolerantly, order kept: lines the manifest reader
    skips (blank, torn, garbled) and records of another version or with a
    bad value are skipped.  A missing file is an empty history."""
    from repro.campaign.manifest import parse_line, read_lines

    out: List[dict] = []
    for line in read_lines(path):
        rec = parse_line(line)
        if rec is None or rec.get("v") != HISTORY_VERSION:
            continue
        if not isinstance(rec.get("bench"), str):
            continue
        try:
            rec["normalized"] = float(rec.get("normalized", rec.get("wall_seconds")))
        except (TypeError, ValueError):
            continue
        if not math.isfinite(rec["normalized"]) or rec["normalized"] <= 0:
            continue
        out.append(rec)
    return out


@dataclass
class BenchTrend:
    """Trend verdict for one benchmark name."""

    bench: str
    runs: int
    latest: float  # newest normalized time
    median: Optional[float]  # rolling median of the prior window
    ratio: Optional[float]  # latest / median
    regressed: bool
    latest_sha: str

    def describe(self) -> str:
        if self.median is None:
            return (
                f"{self.bench}: {self.latest:.3f}s normalized "
                f"({self.runs} run(s), no baseline yet)"
            )
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.bench}: {self.latest:.3f}s vs median {self.median:.3f}s "
            f"over {self.runs - 1} prior run(s) "
            f"(x{self.ratio:.2f}, {verdict}, {self.latest_sha})"
        )


def trend_report(
    entries: List[dict],
    window: int = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[BenchTrend]:
    """Per-benchmark rolling-median verdicts, sorted by name.

    The newest entry per benchmark is compared against the median of up to
    ``window`` runs immediately before it.  A single run has no baseline
    and can never regress.
    """
    by_bench: Dict[str, List[dict]] = {}
    for rec in entries:
        by_bench.setdefault(rec["bench"], []).append(rec)
    out: List[BenchTrend] = []
    for bench in sorted(by_bench):
        runs = by_bench[bench]
        latest = runs[-1]
        prior = [r["normalized"] for r in runs[:-1]][-window:]
        median = statistics.median(prior) if prior else None
        ratio = (latest["normalized"] / median) if median else None
        out.append(
            BenchTrend(
                bench=bench,
                runs=len(runs),
                latest=latest["normalized"],
                median=median,
                ratio=ratio,
                regressed=bool(ratio is not None and ratio > 1.0 + tolerance),
                latest_sha=str(latest.get("git_sha", "unknown")),
            )
        )
    return out
