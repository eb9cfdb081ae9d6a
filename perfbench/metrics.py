"""End-to-end and per-layer metrics, computed from timed and traced runs.

Units name which clock a number uses: ``s`` is host (wall-clock) time on
the machine running the benchmark; ``cycles`` is simulated time; ``count``
and ``ratio`` are counts made by the benchmark or read from
``SimulationResult``.
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench.spans import Span, self_times
from perfbench.workloads import SCHEMES, Run, Workload

Metrics = Dict[str, Tuple[float, str]]

#: tail percentiles tried from the highest down; one is reported only when
#: at least ten samples lie beyond it
TAIL_LADDER = (0.99, 0.9)


def nearest_rank(values: Sequence[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def latency_summary(values: Sequence[float]) -> Tuple[float, float, str]:
    """(median, tail, tail label): the tail is the highest ladder
    percentile with >= 10 samples beyond it, else the median again."""
    p50 = statistics.median(values)
    for q in TAIL_LADDER:
        if len(values) * (1 - q) >= 10:
            return p50, nearest_rank(values, q), f"p{q * 100:g}"
    return p50, p50, "p50"


def peak_rss_mb() -> float:
    """Max RSS of this process or of any child it has reaped (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup_s: float) -> Tuple[Metrics, Dict[str, str]]:
    """Metrics of an untraced timed run, plus notes for the printed table."""
    done = [o for o in run.outcomes if o.ok]
    executed = [o.latency for o in done if not o.repeat and o.latency is not None]
    p50, tail, label = latency_summary(executed) if executed else (0.0, 0.0, "-")
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (len(done) / run.wall, "cells/s"),
        "sim_instr_per_s": (sum(o.instructions for o in done) / run.wall, "instr/s"),
        "cell_latency_p50_s": (p50, "s"),
        "cell_latency_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "tail": f"{label} of n={len(executed)} executed cells",
        "wall": f"{run.wall:.3f} s timed",
    }
    return metrics, notes


def _sum(spans: List[Span], key: str) -> float:
    return sum(s.args.get(key, 0) for s in spans)


#: layer of each span name; ``self.<layer>_s`` totals their self time
SELF_LAYERS = {
    "campaign": "campaign",
    "cell": "cell",
    "workloads.mix": "workloads",
    "system.build": "system",
    "sim.run": "sim",
    "obs.report": "obs",
    "manifest.append": "manifest",
    "manifest.records": "manifest",
    "serve.request": "serve",
    "serve.submit": "serve",
    "serve.wait": "serve",
    "serve.metrics_scrape": "serve",
}


def per_layer(
    w: Workload,
    untraced: Run,
    traced: Run,
    spans: List[Span],
    probe_parts: Dict[str, float],
) -> Metrics:
    """Per-layer metrics.  Span-derived numbers come from the traced run;
    numbers derived from wall time and record ``elapsed`` come from the
    paired untraced run, which tracing does not perturb.  A layer the
    workload does not exercise reads 0."""
    by_name: Dict[str, List[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    # worker cell spans of the timed cells (the service warm-up is not load)
    roots = {
        sp.span_id: sp for sp in by_name.get("cell", []) if sp.trace in traced.cells
    }

    def durs(name: str, scheme: str = "") -> List[float]:
        return [
            sp.dur
            for sp in by_name.get(name, [])
            if not scheme
            or (sp.parent in roots and roots[sp.parent].args.get("scheme") == scheme)
        ]

    m: Metrics = {
        "import_s": (probe_parts.get("import_s", 0.0), "s"),
        "setup.service_start_s": (probe_parts.get("service_start_s", 0.0), "s"),
        "setup.pool_warmup_s": (probe_parts.get("pool_warmup_s", 0.0), "s"),
        "workloads.mix_s": (_median(durs("workloads.mix")), "s"),
        "workloads.refs": (_sum(list(roots.values()), "refs"), "count"),
        "system.build_s": (_median(durs("system.build")), "s"),
        "obs.report_s": (_median(durs("obs.report")), "s"),
    }
    for scheme in ("",) + SCHEMES:
        cells = [r for r in roots.values() if not scheme or r.args["scheme"] == scheme]
        run_s = durs("sim.run", scheme)
        events = _sum(cells, "events")
        suffix = f".{scheme}" if scheme else ""
        m[f"sim.run_s{suffix}"] = (_median(run_s), "s")
        m[f"sim.events{suffix}"] = (events, "count")
        m[f"sim.ns_per_event{suffix}"] = (
            sum(run_s) / events * 1e9 if events else 0.0,
            "ns",
        )
        m[f"sim.cycles{suffix}"] = (_sum(cells, "cycles"), "cycles")
        m[f"sim.idle_cycles_skipped{suffix}"] = (
            _sum(cells, "idle_cycles_skipped"),
            "cycles",
        )

    summaries = list(traced.summaries.values())
    outcomes = _sum(list(roots.values()), "bank_outcomes")
    for key in ("row_conflicts", "demand_accesses", "buffer_hits", "prefetches_issued"):
        m[f"model.{key}"] = (sum(s[key] for s in summaries), "count")
    m["model.line_accuracy"] = (_mean([s["line_accuracy"] for s in summaries]), "ratio")
    m["model.bank_hit_frac"] = (
        _sum(list(roots.values()), "bank_hits") / outcomes if outcomes else 0.0,
        "ratio",
    )
    m["model.read_latency_cycles"] = (
        _mean([s["mean_read_latency"] for s in summaries]),
        "cycles",
    )

    fabric = [r for r in roots.values() if r.args.get("cubes", 1) > 1]
    fabric_ids = {r.span_id for r in fabric}
    cubes = _sum(fabric, "cubes")
    fabric_run = sum(
        sp.dur for sp in by_name.get("sim.run", []) if sp.parent in fabric_ids
    )
    m["fabric.hop_flits"] = (_sum(fabric, "hop_flits"), "count")
    m["fabric.mean_hops"] = (_mean([r.args["mean_hops"] for r in fabric]), "hops")
    m["fabric.run_s_per_cube"] = (fabric_run / cubes if cubes else 0.0, "s")

    executed = [o for o in untraced.outcomes if o.ok and not o.repeat]
    busy = sum(o.elapsed for o in executed)
    n = len(executed)
    campaign = w.name != "serve_closed"
    m["campaign.overhead_s"] = (
        (min(w.jobs, n) * untraced.wall - busy) / n if campaign and n else 0.0,
        "s",
    )
    m["campaign.worker_busy_frac"] = (
        busy / (w.jobs * untraced.wall) if campaign else 0.0,
        "ratio",
    )
    m["manifest.append_s"] = (
        _median(durs("manifest.append") if campaign else untraced.merge_s),
        "s",
    )
    m["manifest.records_s"] = (_median(untraced.records_s), "s")

    submits = [o for o in untraced.outcomes if o.ok]
    traced_submits = len(traced.outcomes)
    m["serve.submit_s"] = (
        _median([o.submit_s for o in submits]) if not campaign else 0.0,
        "s",
    )
    m["serve.execute_s"] = (
        _median([o.elapsed for o in executed]) if not campaign else 0.0,
        "s",
    )
    m["serve.overhead_s"] = (
        _median([o.latency - o.elapsed for o in executed if o.latency is not None])
        if not campaign
        else 0.0,
        "s",
    )
    m["serve.metrics_scrape_s"] = (_median(untraced.scrapes), "s")
    m["serve.dedup_frac"] = (
        1.0 - len(roots) / traced_submits if not campaign and traced_submits else 0.0,
        "ratio",
    )
    m["serve.pool_busy_frac"] = (
        busy / (w.jobs * untraced.wall) if not campaign else 0.0,
        "ratio",
    )
    m["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "ratio")

    selfs = self_times(spans)
    for layer in dict.fromkeys(SELF_LAYERS.values()):
        total = sum(v for k, v in selfs.items() if SELF_LAYERS.get(k) == layer)
        m[f"self.{layer}_s"] = (total, "s")
    return m


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
