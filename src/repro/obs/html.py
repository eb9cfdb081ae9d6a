"""Self-contained HTML dashboard for run reports.

Renders one or more :class:`~repro.obs.report.RunReport` artifacts into a
single HTML file with **no external assets** - styles are inline CSS and
every chart is inline SVG, so the file opens offline and attaches cleanly to
a CI run.  Charts:

* per-metric sparklines for the headline time series (buffer hit rate,
  prefetch accuracy, queue occupancy, link/TSV utilization, drain
  residency);
* a per-vault grid of row-conflict-rate sparklines;
* a vaults x banks conflict heatmap from the final counter tree;
* a summary table across all reports, and - given a campaign, serve or
  fleet manifest - a workload x scheme table of its ok cells, read by
  :meth:`repro.campaign.manifest.Manifest.records`.

Series are downsampled to at most :data:`MAX_POINTS` polyline points per
sparkline, which keeps even many-report dashboards well under 2 MB.
"""

from __future__ import annotations

import html as _html
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.report import RunReport

if TYPE_CHECKING:  # importing the dashboard loads no repro.campaign
    from repro.campaign.manifest import CellRecord

#: maximum polyline points per sparkline (stride-downsampled above this)
MAX_POINTS = 240

#: headline series drawn at the top of each report section, in order
HEADLINE_SERIES = (
    "buffer.hit_rate",
    "prefetch.row_accuracy",
    "queues.occupancy",
    "link.utilization",
    "tsv.utilization",
    "sched.drain_residency",
)

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 24px; color: #1a1a2e; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
h3 { font-size: 13px; margin: 12px 0 4px; color: #444; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { border: 1px solid #d5d5e0; padding: 3px 9px; text-align: right; }
th { background: #eef0f6; font-weight: 600; }
td.l, th.l { text-align: left; }
.spark { display: inline-block; margin: 2px 10px 6px 0; vertical-align: top; }
.spark .t { font-size: 11px; color: #555; }
.grid { display: flex; flex-wrap: wrap; }
.muted { color: #888; font-size: 11px; }
svg { background: #fafbfd; border: 1px solid #e3e5ee; }
"""


def _esc(text: Any) -> str:
    return _html.escape(str(text))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _downsample(xs: Sequence[float], ys: Sequence[float]) -> Tuple[List[float], List[float]]:
    n = len(xs)
    if n <= MAX_POINTS:
        return list(xs), list(ys)
    stride = -(-n // MAX_POINTS)  # ceil division
    keep = list(range(0, n, stride))
    if keep[-1] != n - 1:
        keep.append(n - 1)  # the final sample anchors the line's end
    return [xs[i] for i in keep], [ys[i] for i in keep]


def sparkline(
    times: Sequence[float],
    values: Sequence[float],
    width: int = 220,
    height: int = 42,
) -> str:
    """One series as an inline SVG polyline with a min-max label."""
    times, values = _downsample(times, values)
    finite = [v for v in values if v == v]  # drop NaNs
    if not times or not finite:
        return '<svg width="%d" height="%d"></svg>' % (width, height)
    t0, t1 = times[0], times[-1]
    lo, hi = min(finite), max(finite)
    tspan = (t1 - t0) or 1
    vspan = (hi - lo) or 1
    pad = 3
    pts = []
    for t, v in zip(times, values):
        if v != v:
            continue
        x = pad + (t - t0) / tspan * (width - 2 * pad)
        y = height - pad - (v - lo) / vspan * (height - 2 * pad)
        pts.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline fill="none" stroke="#3b6ecc" stroke-width="1.3" '
        f'points="{" ".join(pts)}"/></svg>'
    )


def _spark_block(name: str, payload: Dict[str, Any], **kw: Any) -> str:
    times = payload.get("times", [])
    values = payload.get("values", [])
    finite = [v for v in values if v == v]
    lo = _fmt(min(finite)) if finite else "-"
    hi = _fmt(max(finite)) if finite else "-"
    last = _fmt(finite[-1]) if finite else "-"
    return (
        '<div class="spark">'
        f'<div class="t">{_esc(name)}</div>'
        f"{sparkline(times, values, **kw)}"
        f'<div class="muted">min {lo} &middot; max {hi} &middot; last {last}</div>'
        "</div>"
    )


def _heat_color(frac: float) -> str:
    """White -> deep red ramp; frac in [0, 1]."""
    frac = min(1.0, max(0.0, frac))
    r = 255 - int(75 * frac)
    g = int(245 * (1 - frac))
    b = int(240 * (1 - frac))
    return f"rgb({r},{g},{b})"


def bank_conflict_heatmap(report: RunReport, cell: int = 11) -> str:
    """Vaults x banks grid of final per-bank conflict counts as SVG."""
    grid: Dict[Tuple[int, int], float] = {}
    for name, value in report.counters.items():
        parts = name.split(".")
        if len(parts) != 3 or parts[2] != "conflicts":
            continue
        v, b = parts[0], parts[1]
        if not (v.startswith("vault") and b.startswith("bank")):
            continue
        try:
            grid[(int(v[5:]), int(b[4:]))] = value
        except ValueError:
            continue
    if not grid:
        return '<p class="muted">no per-bank counters in this report</p>'
    nv = max(k[0] for k in grid) + 1
    nb = max(k[1] for k in grid) + 1
    peak = max(grid.values()) or 1.0
    left, top = 46, 16
    width = left + nb * cell + 4
    height = top + nv * cell + 4
    rects = []
    for (v, b), count in grid.items():
        rects.append(
            f'<rect x="{left + b * cell}" y="{top + v * cell}" '
            f'width="{cell - 1}" height="{cell - 1}" '
            f'fill="{_heat_color(count / peak)}">'
            f"<title>vault{v} bank{b}: {count:.0f} conflicts</title></rect>"
        )
    labels = [
        f'<text x="4" y="{top + v * cell + cell - 2}" font-size="8" '
        f'fill="#666">v{v}</text>'
        for v in range(0, nv, max(1, nv // 8))
    ]
    labels.append(
        f'<text x="{left}" y="11" font-size="8" fill="#666">'
        f"banks 0-{nb - 1} &rarr; (peak {peak:.0f})</text>"
    )
    return (
        f'<svg width="{width}" height="{height}">'
        + "".join(labels)
        + "".join(rects)
        + "</svg>"
    )


def _summary_table(reports: Sequence[RunReport]) -> str:
    keys: List[str] = []
    for r in reports:
        for k in r.summary:
            if k not in keys:
                keys.append(k)
    head = "<tr><th class='l'>run</th>" + "".join(f"<th>{_esc(k)}</th>" for k in keys)
    rows = [head + "</tr>"]
    for r in reports:
        cells = "".join(
            f"<td>{_fmt(r.summary[k]) if k in r.summary else '-'}</td>" for k in keys
        )
        rows.append(f"<tr><td class='l'>{_esc(r.label)}</td>{cells}</tr>")
    return "<table>" + "".join(rows) + "</table>"


def _campaign_table(records: Sequence[CellRecord], metric: str = "geomean_ipc") -> str:
    workloads = sorted({r.workload for r in records})
    schemes = sorted({r.scheme for r in records})
    cell: Dict[Tuple[str, str], float] = {}
    for r in records:
        summary = r.summary or {}
        if metric in summary:
            cell[(r.workload, r.scheme)] = summary[metric]
    head = (
        f"<tr><th class='l'>workload \\ scheme ({_esc(metric)})</th>"
        + "".join(f"<th>{_esc(s)}</th>" for s in schemes)
        + "</tr>"
    )
    body = []
    for w in workloads:
        cells = "".join(
            f"<td>{_fmt(cell[(w, s)]) if (w, s) in cell else '-'}</td>"
            for s in schemes
        )
        body.append(f"<tr><td class='l'>{_esc(w)}</td>{cells}</tr>")
    return "<table>" + head + "".join(body) + "</table>"


def _report_section(report: RunReport) -> str:
    parts = [f"<h2>{_esc(report.label)}</h2>"]
    if report.meta:
        meta = " &middot; ".join(f"{_esc(k)}={_esc(v)}" for k, v in report.meta.items())
        parts.append(f'<p class="muted">{meta}</p>')
    series = report.series.get("series", {}) if report.series else {}
    headliners = [n for n in HEADLINE_SERIES if n in series]
    if headliners:
        epoch = report.series.get("epoch")
        parts.append(f"<h3>headline series (epoch {epoch} cycles)</h3>")
        parts.append(
            '<div class="grid">'
            + "".join(_spark_block(n, series[n]) for n in headliners)
            + "</div>"
        )
    vault_series = sorted(
        (n for n in series if n.startswith("vault") and n.endswith(".conflict_rate")),
        key=lambda n: int(n[5:].split(".", 1)[0]),
    )
    if vault_series:
        parts.append("<h3>per-vault row-conflict rate</h3>")
        parts.append(
            '<div class="grid">'
            + "".join(
                _spark_block(n, series[n], width=120, height=30)
                for n in vault_series
            )
            + "</div>"
        )
    parts.append("<h3>bank-conflict heatmap (final counts)</h3>")
    parts.append(bank_conflict_heatmap(report))
    return "".join(parts)


def render_html(
    reports: Iterable[RunReport],
    manifest_rows: Optional[Sequence[CellRecord]] = None,
    title: str = "repro run report",
) -> str:
    """Render the dashboard from reports and ``manifest_rows`` (a
    manifest's ok cell records); returns the complete HTML document."""
    reports = list(reports)
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if reports:
        parts.append("<h2>summary</h2>")
        parts.append(_summary_table(reports))
    if manifest_rows:
        parts.append("<h2>campaign comparison</h2>")
        parts.append(_campaign_table(manifest_rows))
    for report in reports:
        parts.append(_report_section(report))
    parts.append("</body></html>")
    return "".join(parts)


def write_html(
    path: Union[str, Path],
    reports: Iterable[RunReport],
    manifest: Optional[Union[str, Path]] = None,
    title: str = "repro run report",
) -> Path:
    """Render and write the dashboard; returns the path written.  The
    ``manifest``'s ok records fill the campaign comparison table."""
    rows = None
    if manifest:
        from repro.campaign.manifest import Manifest

        rows = [r for r in Manifest(manifest).records().values() if r.ok]
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_html(reports, manifest_rows=rows, title=title))
    return p
