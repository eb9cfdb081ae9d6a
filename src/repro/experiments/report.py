"""Markdown run report: measured vs. paper, generated from a result matrix.

``generate_report`` renders the claims table (:data:`~repro.experiments.
figures.CLAIMS`) against the matrix, then every figure's per-mix table.
Exposed on the CLI as ``python -m repro report``.

The measured-vs-paper tables in EXPERIMENTS.md are the same renderer's
output over the committed ``benchmarks/results/*.csv``, between
``<!-- claims ... -->`` markers; regenerate them with
``PYTHONPATH=src python -m repro.experiments``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional

from repro.experiments.figures import (
    CLAIMS,
    Claim,
    FigureData,
    Summary,
    fmt,
    paper_figures,
)
from repro.metrics.collectors import ResultMatrix

#: one generated block: ``<!-- claims fig5_speedup ... -->`` ... ``<!-- /claims -->``
_BLOCK = re.compile(r"(<!-- claims ([\w ]+) -->\n).*?(<!-- /claims -->)", re.S)


def claims_markdown(summaries: Dict[str, Summary], claims: Iterable[Claim]) -> List[str]:
    """The claims as a markdown table measured against ``summaries``."""
    lines = [
        "| quantity | paper | measured | must be | from scale | holds |",
        "|---|---|---|---|---|---|",
    ]
    for c in claims:
        holds = {True: "yes", False: "**no**", None: "—"}[c.holds(summaries)]
        scale = c.scale if c.relation else "—"
        lines.append(
            f"| {c.quantity} | {fmt(c.paper)} | {fmt(c.measured(summaries))} "
            f"| {c.rule} | {scale} | {holds} |"
        )
    return lines


def _md_table(data: FigureData, value_format: str = "{:.3f}") -> List[str]:
    lines = [f"### {data.figure}: {data.title}", ""]
    header = "| workload | " + " | ".join(data.schemes) + " |"
    sep = "|" + "---|" * (len(data.schemes) + 1)
    lines += [header, sep]
    for w, row in data.per_workload.items():
        cells = " | ".join(value_format.format(row[s]) for s in data.schemes)
        lines.append(f"| {w} | {cells} |")
    for g, row in data.summary.items():
        cells = " | ".join(value_format.format(row[s]) for s in data.schemes)
        lines.append(f"| **{g}** | {cells} |")
    lines.append("")
    return lines


def generate_report(
    matrix: ResultMatrix,
    title: str = "CAMPS reproduction report",
    scale_note: Optional[str] = None,
) -> str:
    """Render the full measured-vs-paper markdown report."""
    figures = paper_figures(matrix)
    summaries = {key: data.summary for key, data in figures.items()}
    claims = [c for c in CLAIMS if c.figure in figures]
    # rankings (their measured value is an ordering) get a section of their own
    ordering = [c for c in claims if isinstance(c.measured(summaries), str)]

    lines: List[str] = [f"# {title}", ""]
    if scale_note:
        lines += [scale_note, ""]
    lines += ["## Headline comparison (measured vs paper)", ""]
    lines += claims_markdown(summaries, [c for c in claims if c not in ordering])
    lines += ["", "## Scheme ordering", ""]
    lines += claims_markdown(summaries, ordering)
    lines += ["", "## Figures", ""]
    for data in figures.values():
        lines += _md_table(data)
        lines += [f"> {note}" for note in data.notes]
        lines.append("")
    return "\n".join(lines)


def render_experiments(text: str, summaries: Dict[str, Summary]) -> str:
    """``text`` with every generated claims block re-rendered."""

    def block(m: "re.Match[str]") -> str:
        keys = m.group(2).split()
        rows = [c for c in CLAIMS if c.figure in keys]
        return m.group(1) + "\n".join(claims_markdown(summaries, rows)) + "\n" + m.group(3)

    return _BLOCK.sub(block, text)

