"""Terminal charts for figure data (no plotting library required).

The environment this reproduction targets is offline and matplotlib-free, so
the figure benches and CLI render grouped horizontal bar charts in plain
text.  Charts deliberately mirror the look of the paper's figures: one group
of bars per workload mix, one bar per scheme.  :func:`sparkline` renders a
series (e.g. a :class:`~repro.obs.timeseries.Series`' values) on one line.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

#: Fill characters per scheme position, cycled - distinguishable in any font.
_FILLS = "#=+*o%@"

_SPARK = "▁▂▃▄▅▆▇█"  # 8 levels


def sparkline(values: Sequence[float], width: int = 64) -> str:
    """Render a series as a fixed-width unicode sparkline (mean-pooled)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        # mean-pool into `width` buckets
        pooled = []
        step = len(vals) / width
        for i in range(width):
            lo, hi = int(i * step), max(int(i * step) + 1, int((i + 1) * step))
            chunk = vals[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        vals = pooled
    vmin, vmax = min(vals), max(vals)
    span = vmax - vmin
    if span == 0:
        return _SPARK[0] * len(vals)
    return "".join(
        _SPARK[min(7, int((v - vmin) / span * 8))] for v in vals
    )


def bar_chart(
    per_workload: Dict[str, Dict[str, float]],
    schemes: Sequence[str],
    title: str,
    width: int = 48,
    value_format: str = "{:.3f}",
    baseline: Optional[float] = None,
) -> str:
    """Render grouped horizontal bars.

    ``baseline`` draws a reference column (e.g. 1.0 for normalized speedups)
    as a ``|`` marker inside each bar row.
    """
    values = [v for row in per_workload.values() for v in row.values()]
    if not values:
        raise ValueError("nothing to plot")
    vmax = max(values + ([baseline] if baseline is not None else []))
    if vmax <= 0:
        raise ValueError("bar charts need at least one positive value")
    scale = width / vmax
    name_w = max(len(s) for s in schemes) + 2

    lines = [title, "=" * len(title)]
    for workload, row in per_workload.items():
        lines.append(workload)
        for i, scheme in enumerate(schemes):
            v = row[scheme]
            n = max(0, int(round(v * scale)))
            bar = _FILLS[i % len(_FILLS)] * n
            if baseline is not None:
                pos = int(round(baseline * scale))
                if 0 <= pos <= width:
                    bar = (bar + " " * (width - len(bar)))[:width]
                    bar = bar[:pos] + "|" + bar[pos + 1 :]
            lines.append(
                f"  {scheme:<{name_w}}{bar.rstrip():<{width}} {value_format.format(v)}"
            )
        lines.append("")
    legend = "  ".join(
        f"{_FILLS[i % len(_FILLS)]} {s}" for i, s in enumerate(schemes)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def summary_bars(
    summary: Dict[str, Dict[str, float]],
    schemes: Sequence[str],
    title: str,
    width: int = 48,
    baseline: Optional[float] = None,
) -> str:
    """Bar chart of just the HM/LM/MX/AVG summary groups."""
    return bar_chart(summary, schemes, title, width=width, baseline=baseline)
