"""Plain-text and CSV rendering of figure data.

The benchmark harness prints each figure the way the paper's plots read: one
row per workload mix, one column per scheme, plus the HM / LM / MX / AVG
summary rows the paper quotes in the text.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union


def format_table(
    per_workload: Dict[str, Dict[str, float]],
    schemes: Sequence[str],
    title: str,
    value_format: str = "{:.3f}",
    summary: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render ``{workload: {scheme: value}}`` as an aligned text table."""
    col_w = max(9, max((len(s) for s in schemes), default=9) + 1)
    name_w = max(8, max((len(w) for w in per_workload), default=8) + 1)
    lines: List[str] = [title, "=" * len(title)]
    header = "".join([f"{'workload':<{name_w}}"] + [f"{s:>{col_w}}" for s in schemes])
    lines.append(header)
    lines.append("-" * len(header))
    for w, row in per_workload.items():
        cells = "".join(f"{value_format.format(row[s]):>{col_w}}" for s in schemes)
        lines.append(f"{w:<{name_w}}{cells}")
    if summary:
        lines.append("-" * len(header))
        for g, row in summary.items():
            cells = "".join(f"{value_format.format(row[s]):>{col_w}}" for s in schemes)
            lines.append(f"{g:<{name_w}}{cells}")
    return "\n".join(lines)


def write_csv(
    per_workload: Dict[str, Dict[str, float]],
    schemes: Sequence[str],
    path: Union[str, Path],
    summary: Optional[Dict[str, Dict[str, float]]] = None,
) -> Path:
    """Dump the same data as CSV (one header row, one row per workload)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["workload"] + list(schemes))
        for w, row in per_workload.items():
            writer.writerow([w] + [row[s] for s in schemes])
        if summary:
            for g, row in summary.items():
                writer.writerow([g] + [row[s] for s in schemes])
    return path

