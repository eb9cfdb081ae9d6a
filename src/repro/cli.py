"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``      simulate one Table II mix under one scheme and print the summary
``profile``  run one cell under cProfile; report events/sec and hot callbacks
``figure``   regenerate one of the paper's figures (5-9) as a table/CSV
``campaign`` run a (mixes x schemes) grid sharded across worker processes
``serve``    long-running campaign service: HTTP/JSONL submissions, admission
             control, lease-based work stealing, graceful drain
``submit``   send a grid to a running ``serve`` node (and optionally wait)
``monitor``  tail a running campaign's telemetry spools from another terminal
``report``   markdown figure report, or an HTML dashboard from RunReports
``diff``     compare two RunReport artifacts (deltas + subsystem attribution)
``bench-trend`` flag benchmark regressions against BENCH_history.jsonl
``table``    print Table I (configuration) or Table II (workload mixes)
``schemes``  list the registered prefetching schemes
``trace``    generate a synthetic benchmark trace and print its statistics

Examples::

    python -m repro run HM1 --scheme camps-mod --refs 5000
    python -m repro run HM1 --scheme camps-mod --refs 3000 --trace out.json
    python -m repro run HM1 --refs 2000 --json
    python -m repro run HM1 --refs 3000 --report a.json
    python -m repro diff a.json b.json
    python -m repro report a.json b.json --out dash.html
    python -m repro profile HM1 --refs 3000
    python -m repro figure 5 --mixes HM1,LM1 --refs 3000 --csv fig5.csv
    python -m repro campaign --jobs 4 --refs 4000 --timeout 600 --retries 1
    python -m repro campaign --resume --jobs 4   # pick up where it stopped
    python -m repro campaign --report-dir reports --refs 2000
    python -m repro campaign --jobs 4 --watch --telemetry-port 9100
    python -m repro monitor .repro_campaign.jsonl      # from a 2nd terminal
    python -m repro serve --manifest svc.jsonl --port 9200 --jobs 4
    python -m repro submit --url http://127.0.0.1:9200 --mixes HM1 --wait
    python -m repro bench-trend --check
    python -m repro table 1
    python -m repro trace lbm --refs 10000
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, List, Optional

from repro.core.schemes import PAPER_SCHEMES, scheme_names
from repro.experiments.figures import FIG5_SCHEMES, paper_figures, run_scale
from repro.experiments.runner import ExperimentConfig, run_matrix
from repro.experiments.tables import table1_text, table2_text
from repro.faults import LinkFaultConfig
from repro.hmc.config import HMCConfig
from repro.metrics.report import write_csv
from repro.workloads.mixes import mix_names
from repro.workloads.spec import PROFILES
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import trace_stats

#: figure number -> its key in paper_figures() (the bench CSV name)
_FIGURES = {
    "5": "fig5_speedup",
    "6": "fig6_conflicts",
    "7": "fig7_accuracy",
    "8": "fig8_amat",
    "9": "fig9_energy",
}


def _parse_mixes(raw: Optional[str]) -> List[str]:
    if not raw:
        return mix_names()
    names = [m.strip() for m in raw.split(",") if m.strip()]
    unknown = [m for m in names if m not in mix_names()]
    if unknown:
        raise SystemExit(f"unknown mixes: {', '.join(unknown)}")
    return names


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    hmc = HMCConfig()
    ber = getattr(args, "ber", 0.0) or 0.0
    drop = getattr(args, "drop", 0.0) or 0.0
    if ber or drop:
        hmc = hmc.with_overrides(
            faults=LinkFaultConfig(
                ber=ber, drop_prob=drop, seed=getattr(args, "fault_seed", 0)
            )
        )
    return ExperimentConfig(
        refs_per_core=args.refs,
        seed=args.seed,
        hmc=hmc,
        integrity=bool(getattr(args, "integrity", False)),
    )


def _result_json(result, cfg) -> str:
    """One-line machine-readable summary (CI harnesses scrape this)."""
    payload = {
        "mix": result.workload,
        "scheme": result.scheme,
        "refs_per_core": cfg.refs_per_core,
        "seed": cfg.seed,
        "cycles": result.cycles,
        "geomean_ipc": result.geomean_ipc,
        "core_ipc": result.core_ipc,
        "conflict_rate": result.conflict_rate,
        "row_conflicts": result.row_conflicts,
        "demand_accesses": result.demand_accesses,
        "buffer_hits": result.buffer_hits,
        "prefetches_issued": result.prefetches_issued,
        "row_accuracy": result.row_accuracy,
        "line_accuracy": result.line_accuracy,
        "mean_read_latency": result.mean_read_latency,
        "energy_pj": result.energy_pj,
        "link_utilization": result.link_utilization,
    }
    if "link_faults" in result.extra:
        payload["link_faults"] = result.extra["link_faults"]
    if "trace_summary" in result.extra:
        payload["trace_summary"] = result.extra["trace_summary"]
    return json.dumps(payload)


def _check_output_dirs(*paths: Optional[str]) -> None:
    """Fail on bad output paths *before* simulating, not after."""
    from pathlib import Path

    for raw in paths:
        if raw and not Path(raw).resolve().parent.is_dir():
            raise SystemExit(
                f"output directory does not exist: {Path(raw).resolve().parent}"
            )


def _event_tracer(args: argparse.Namespace) -> Optional[Any]:
    """A Tracer when an output consumes trace events (``--trace``,
    ``--log-json``); a report reads its counters from the finished system."""
    if not (args.trace or args.log_json):
        return None
    from repro.obs import Tracer

    return Tracer()


def _write_run_outputs(
    args: argparse.Namespace,
    tracer: Optional[Any],
    system: Any,
    result: Any,
    **meta: Any,
) -> None:
    """Write the trace, JSONL log and run report a ``run`` asked for."""
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.trace:
            path = write_chrome_trace(tracer, args.trace)
            if not args.json:
                print(f"  wrote Chrome trace  {path} "
                      f"({len(tracer.events)} events; open in ui.perfetto.dev)")
        if args.log_json:
            path = write_jsonl(tracer, args.log_json)
            if not args.json:
                print(f"  wrote JSONL log     {path}")
    report_path = getattr(args, "report", None)
    if report_path:
        from repro.obs import build_run_report

        path = build_run_report(system, result, **meta).save(report_path)
        if not args.json:
            print(f"  wrote run report    {path} (diff/render with "
                  f"`repro diff` / `repro report`)")
    if tracer is not None and not args.json:
        from repro.obs import text_summary

        print()
        print(text_summary(tracer))


def _run_cached(cell: Any) -> Any:
    """One cell through the result log (a hit simulates nothing)."""
    from repro.campaign import run_campaign
    from repro.experiments.runner import default_cache

    res = run_campaign([cell], cache=default_cache())
    res.raise_on_failure()
    return res.result_for(cell.cell_id)


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one mix on one cube, or with ``--topology chain:4``
    replicated one stream per cube across a routed multi-cube fabric."""
    from repro.campaign import Cell, build_cell_system

    cfg = _experiment_config(args)
    cell = Cell(args.mix, args.scheme, cfg, topology=args.topology or None)
    fabric = None
    if cell.topology:
        from repro.fabric import FabricConfig

        try:
            fabric = FabricConfig.from_spec(cell.topology, hmc=cfg.hmc)
        except ValueError as exc:
            raise SystemExit(str(exc))
    tracer = _event_tracer(args)
    system = None
    report_path = getattr(args, "report", None)
    epoch = getattr(args, "epoch", None)
    if report_path and epoch is None:
        from repro.obs.timeseries import DEFAULT_EPOCH

        epoch = DEFAULT_EPOCH
    # Fabrics, tracing, reports, time series and link-fault counters need a
    # live System (the result log stores only the persisted summary fields).
    if fabric or tracer is not None or epoch is not None or cfg.hmc.faults.enabled:
        _check_output_dirs(args.trace, args.log_json, report_path)
        system = build_cell_system(cell, tracer=tracer, timeseries_epoch=epoch)
        result = system.run()
    else:
        result = _run_cached(cell)
    fx = result.extra.get("fabric")

    if args.json:
        payload = json.loads(_result_json(result, cfg))
        if fabric is not None:
            payload["mix"] = args.mix  # the result names it "<mix>@<spec>"
            payload["topology"] = fabric.spec
            payload["fabric"] = {
                key: fx[key]
                for key in (
                    "cubes",
                    "mean_hops",
                    "hop_histogram",
                    "hop_flits",
                    "fabric_link_utilization",
                    "per_cube",
                )
            }
        print(json.dumps(payload))
    else:
        if fabric is None:
            print(f"{args.mix} / {args.scheme} ({cfg.refs_per_core} refs/core, "
                  f"seed {cfg.seed})")
        else:
            print(f"{args.mix} @ {fabric.spec} / {args.scheme} "
                  f"({cfg.refs_per_core} refs/core x {fabric.cubes} stream(s), "
                  f"seed {cfg.seed})")
        print(f"  cycles              {result.cycles}")
        print(f"  geomean IPC         {result.geomean_ipc:.3f}")
        if fabric is None:
            print(f"  per-core IPC        "
                  f"{', '.join(f'{i:.2f}' for i in result.core_ipc)}")
        print(f"  conflict rate       {result.conflict_rate:.3f}")
        print(f"  prefetches issued   {result.prefetches_issued}")
        print(f"  prefetch accuracy   {result.row_accuracy:.1%} (rows) / "
              f"{result.line_accuracy:.1%} (lines)")
        print(f"  mean read latency   {result.mean_read_latency:.0f} cycles")
        print(f"  HMC energy          {result.energy_pj / 1e6:.1f} uJ")
        if fabric is not None:
            hist = " ".join(
                f"{h}:{n}" for h, n in sorted(fx["hop_histogram"].items())
            )
            print(f"  mean hops           {fx['mean_hops']:.2f}  ({hist})")
            print(f"  host link util      {result.link_utilization:.1%}")
            if fabric.cubes > 1:
                print(f"  fabric link util    "
                      f"{fx['fabric_link_utilization']:.1%}")
                rates = ", ".join(
                    f"q{p['cube']}:{p['conflict_rate']:.3f}"
                    for p in fx["per_cube"]
                )
                print(f"  per-cube conflicts  {rates}")
        if args.baseline and args.baseline != args.scheme:
            base = _run_cached(dataclasses.replace(cell, scheme=args.baseline))
            print(f"  speedup vs {args.baseline:<9} {result.speedup_vs(base):.3f}x")

    if system is not None:
        meta = {} if fabric is None else {"topology": fabric.spec}
        _write_run_outputs(
            args, tracer, system, result,
            mix=args.mix, **meta,
            refs_per_core=cfg.refs_per_core, seed=cfg.seed,
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one simulation cell: engine throughput, per-subsystem
    breakdown, and hot callbacks."""
    import cProfile
    import pstats

    from repro.sim.profiling import (
        breakdown_table,
        profile_payload,
        subsystem_breakdown,
    )

    from repro.campaign import Cell, build_cell_system

    cfg = _experiment_config(args)
    system = build_cell_system(Cell(args.mix, args.scheme, cfg))
    profiler = cProfile.Profile()
    profiler.enable()
    result = system.run()
    profiler.disable()

    eng = system.engine
    breakdown = subsystem_breakdown(profiler)
    if args.json:
        payload = profile_payload(
            breakdown,
            cycles=result.cycles,
            events_fired=eng.events_fired,
            wall_seconds=eng.wall_seconds,
        )
        payload.update(
            mix=args.mix, scheme=args.scheme,
            refs_per_core=cfg.refs_per_core, seed=cfg.seed,
        )
        print(json.dumps(payload))
        if args.out:
            pstats.Stats(profiler).dump_stats(args.out)
        return 0
    print(f"{args.mix} / {args.scheme} ({cfg.refs_per_core} refs/core, seed {cfg.seed})")
    print(f"  simulated cycles    {result.cycles}")
    print(f"  events fired        {eng.events_fired}")
    print(f"  wall time           {eng.wall_seconds:.3f} s (engine loop)")
    print(f"  events/sec          {eng.events_per_sec:,.0f}")
    print()
    print("per-subsystem breakdown (profiled wall time):")
    print(breakdown_table(breakdown))
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    print(f"top {args.top} callbacks by {args.sort} time:")
    stats.print_stats(r"repro", args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote profile data to {args.out} (inspect with snakeviz/pstats)")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    mixes = _parse_mixes(args.mixes)
    cfg = _experiment_config(args)
    # Every figure's schemes are a subset of the fig-5 set; running the full
    # set keeps the cache warm across figure invocations.
    matrix = run_matrix(mixes, FIG5_SCHEMES, cfg, progress=not args.quiet)
    data = paper_figures(matrix)[_FIGURES[args.number]]
    print(data.text())
    if args.chart:
        from repro.metrics.plot import summary_bars

        baseline = 1.0 if args.number in ("5", "9") else None
        print()
        print(
            summary_bars(
                data.summary, data.schemes, f"{data.figure} (summary)",
                baseline=baseline,
            )
        )
    if args.csv:
        path = write_csv(data.per_workload, data.schemes, args.csv, summary=data.summary)
        print(f"\nwrote {path}")
    return 0


def _parse_schemes(raw: Optional[str]) -> List[str]:
    if not raw:
        return list(FIG5_SCHEMES)
    names = [s.strip() for s in raw.split(",") if s.strip()]
    unknown = [s for s in names if s not in scheme_names()]
    if unknown:
        raise SystemExit(f"unknown schemes: {', '.join(unknown)}")
    return names


def cmd_campaign(args: argparse.Namespace) -> int:
    """Sharded grid run with manifest, timeouts, retry and resume."""
    from repro.campaign import (
        CampaignOptions,
        Manifest,
        fabric_grid_cells,
        grid_cells,
        matrix_digest,
        run_campaign,
    )
    from repro.experiments.runner import default_cache

    mixes = _parse_mixes(args.mixes)
    schemes = _parse_schemes(args.schemes)
    cfg = _experiment_config(args)
    topologies = [
        t.strip()
        for t in (getattr(args, "topology", None) or "").split(",")
        if t.strip()
    ]
    if topologies:
        try:
            cells = fabric_grid_cells(topologies, mixes, schemes, cfg)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        cells = grid_cells(mixes, schemes, cfg)
    if not args.quiet:
        shape = f"{len(mixes)} mixes x {len(schemes)} schemes"
        if topologies:
            shape = f"{len(topologies)} topologies x " + shape
        print(
            f"campaign: {len(cells)} cells ({shape}), "
            f"{args.jobs} worker(s), "
            f"{cfg.refs_per_core} refs/core, seed {cfg.seed}"
        )
    res = run_campaign(
        cells,
        CampaignOptions(
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            resume=args.resume,
            # the live board replaces the per-cell progress lines
            progress=not args.quiet and not args.watch,
            telemetry=args.telemetry,
            telemetry_port=args.telemetry_port,
            telemetry_interval=args.telemetry_interval,
            watch=args.watch,
        ),
        # per-cell RunReports invalidate nothing, but a cache hit skips the
        # simulation that would write them - so reported campaigns bypass
        # the cache to guarantee one artifact per requested cell
        cache=None if args.report_dir else default_cache(),
        manifest=Manifest(args.manifest),
        report_dir=args.report_dir,
    )
    st = res.stats
    print(
        f"campaign finished in {res.wall_seconds:.1f}s: "
        f"{st['ok']}/{st['total']} ok "
        f"({st['executed']} simulated, {st['cached']} cached, "
        f"{st['resumed']} resumed, {st['retried']} retries), "
        f"{st['failed']} failed"
    )
    print(f"manifest: {args.manifest}")
    if args.telemetry or args.watch or args.telemetry_port is not None:
        from repro.obs.telemetry import spool_dir_for

        print(
            f"telemetry spools: {spool_dir_for(args.manifest)}/ "
            f"(live-tail with `repro monitor {args.manifest}`)"
        )
    if args.report_dir:
        n = sum(1 for r in res.records.values() if r.report)
        print(f"run reports: {n} in {args.report_dir}/ "
              f"(render with `repro report --manifest {args.manifest}`)")
    for rec in res.failures:
        tail = (rec.error or "").strip().splitlines()
        print(f"  FAILED {rec.workload}/{rec.scheme}: {rec.status}"
              f" ({tail[-1] if tail else 'no detail'})")
    if res.failures:
        return 1
    # one-line determinism fingerprint: serial and sharded runs of the same
    # cells must print the same digest (see repro.campaign.matrix_digest)
    print(f"matrix digest: {matrix_digest(res.matrix())}")
    if not args.quiet:
        matrix = res.matrix()
        # fabric cells record topology-qualified workloads ("MX1@chain:4")
        rows = (
            [f"{w}@{t}" for t in topologies for w in mixes]
            if topologies
            else mixes
        )
        width = max(10, max(len(r) for r in rows) + 2)
        print()
        print(f"{'workload':<{width}}" + "".join(f"{s:>12}" for s in schemes))
        for w in rows:
            cells_txt = "".join(
                f"{matrix.get(w, s).geomean_ipc:>12.3f}" for s in schemes
            )
            print(f"{w:<{width}}{cells_txt}")
        print("(geomean IPC per cell)")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Watch a running (or finished) campaign from outside its process.

    Tails the per-worker telemetry spools and the manifest; exits once the
    manifest reports every cell terminal (or immediately with ``--once``).
    """
    from repro.obs.watch import run_monitor

    try:
        run_monitor(
            args.target,
            interval=args.interval,
            once=args.once,
            as_json=args.json,
            stale_after=args.stale_after,
            max_seconds=args.max_seconds,
        )
    except FileNotFoundError as exc:
        print(f"monitor: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived campaign service (see docs/API.md, Service mode).

    Accepts simulation jobs over HTTP and newline-delimited JSON on one
    port, multiplexes them onto a persistent worker pool, and records
    terminal cells in the manifest exactly like ``repro campaign`` —
    ``repro monitor <manifest>`` works unchanged against a serving node.
    SIGTERM drains: in-flight cells finish, the pending queue checkpoints
    to ``<manifest>.checkpoint.jsonl``, and a restart with ``--resume``
    (or a peer sharing the manifest) picks the work back up.
    """
    from repro.serve import ServeConfig, run_serve

    cfg = ServeConfig(
        manifest=args.manifest,
        jobs=args.jobs,
        host=args.host,
        port=args.port,
        resume=args.resume,
        retries=args.retries,
        timeout=args.timeout,
        quick_cap=args.quick_cap,
        bulk_cap=args.bulk_cap,
        lease_ticks=args.lease_ticks,
        tick_interval=args.tick_interval,
        worker_name=args.name,
        use_cache=not args.no_cache,
        exit_when_complete=args.exit_when_complete,
        spans=not args.no_spans,
        report_dir=args.report_dir,
    )
    return run_serve(cfg)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a grid to a running service; optionally wait for results."""
    from urllib.parse import urlparse

    from repro.serve import DrainingError, ServeClient, Shed

    parsed = urlparse(args.url if "//" in args.url else f"http://{args.url}")
    client = ServeClient(
        parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=args.timeout
    )
    mixes = _parse_mixes(args.mixes)
    schemes = _parse_schemes(args.schemes)
    grid: dict = {
        "mixes": mixes,
        "schemes": schemes,
        "refs": args.refs,
        "seed": args.seed,
    }
    if args.topology:
        grid["topologies"] = [
            t.strip() for t in args.topology.split(",") if t.strip()
        ]
    if getattr(args, "ber", 0.0):
        grid["ber"] = args.ber
    if getattr(args, "drop", 0.0):
        grid["drop"] = args.drop
    try:
        out = client.submit(
            grid=grid,
            lane=args.lane,
            deadline_s=args.deadline,
            traceparent=args.traceparent,
        )
    except Shed as exc:
        print(f"submit: shed by admission control; retry in "
              f"{exc.retry_after:g}s", file=sys.stderr)
        return 75  # EX_TEMPFAIL
    except DrainingError:
        print("submit: service is draining", file=sys.stderr)
        return 75
    print(f"job {out['job']}: {len(out['cells'])} cells "
          f"({out['lane']} lane) -> {args.url}")
    if out.get("trace"):
        print(f"  trace {out['trace']} (repro trace <manifest> "
              f"--trace-id {out['trace']})")
    if not args.wait:
        return 0
    info = client.wait(out["job"], timeout=args.wait_timeout)
    bad = [
        (cid, entry)
        for cid, entry in info.get("cells", {}).items()
        if entry.get("status") != "ok"
    ]
    print(f"job {out['job']}: {info['status']} "
          f"({info['done']}/{info['total']} cells, {len(bad)} failed)")
    if info.get("critical_path_text"):
        print(f"  critical path: {info['critical_path_text']}")
    if args.json:
        print(json.dumps(info))
    for cid, entry in bad:
        print(f"  FAILED {cid}: {entry.get('status')} "
              f"({str(entry.get('error', ''))[:120]})")
    return 1 if bad or info["status"] != "done" else 0


def cmd_bench_trend(args: argparse.Namespace) -> int:
    """Report benchmark trends from BENCH_history.jsonl; flag regressions
    of the newest run against the rolling median of its predecessors."""
    from repro.obs.trend import load_history, trend_report

    entries = load_history(args.history)
    if not entries:
        print(f"bench-trend: no history at {args.history}", file=sys.stderr)
        return 1 if args.check else 0
    trends = trend_report(entries, window=args.window, tolerance=args.tolerance)
    if args.json:
        print(json.dumps([
            {
                "bench": t.bench,
                "runs": t.runs,
                "latest": t.latest,
                "median": t.median,
                "ratio": t.ratio,
                "regressed": t.regressed,
                "git_sha": t.latest_sha,
            }
            for t in trends
        ]))
    else:
        print(f"bench history: {args.history} ({len(entries)} entries)")
        for t in trends:
            print(f"  {t.describe()}")
    regressed = [t for t in trends if t.regressed]
    if regressed and args.check:
        print(
            f"bench-trend: {len(regressed)} benchmark(s) regressed beyond "
            f"{args.tolerance:.0%} of the rolling median",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.number == "1":
        print(table1_text())
    else:
        print(table2_text(measure_mpki=args.measure, refs=args.refs, seed=args.seed))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two RunReport artifacts: metric deltas, subsystem
    attribution, and where the sampled series pull apart."""
    from repro.obs import RunReport, diff_reports, has_series

    ra, rb = RunReport.load(args.a), RunReport.load(args.b)
    # A one-sided series payload makes the series comparison meaningless
    # (and used to crash on null payloads): degrade to the metric diff with
    # a clear message and a nonzero exit so pipelines notice.
    missing = [
        path
        for path, report in ((args.a, ra), (args.b, rb))
        if not has_series(report)
    ]
    series_comparable = len(missing) != 1
    d = diff_reports(ra, rb)
    if args.json:
        print(json.dumps({
            "a": d.a_label,
            "b": d.b_label,
            "top_subsystem": d.top_subsystem(),
            "series_comparable": series_comparable,
            "subsystems": [
                {"name": n, "score": s, "metrics": k} for n, s, k in d.subsystems
            ],
            "metrics": [
                {"name": m.name, "a": m.a, "b": m.b, "delta": m.delta, "rel": m.rel}
                for m in d.metrics
            ],
        }))
    else:
        print(d.to_text(max_counters=args.top))
    if not series_comparable:
        print(
            f"diff: {missing[0]} has no series payload; series comparison "
            "skipped (re-run it with `repro run --report` or `repro "
            "campaign --report-dir` to sample series)",
            file=sys.stderr,
        )
        return 2
    return 0


def _report_html(args: argparse.Namespace) -> int:
    """HTML dashboard mode of ``repro report``."""
    from pathlib import Path

    from repro.obs import RunReport, render_html
    from repro.obs.html import load_manifest_rows

    reports = [RunReport.load(p) for p in args.inputs]
    rows = None
    if args.manifest:
        rows = load_manifest_rows(args.manifest)
        # cells executed with --report-dir point at their artifacts; fold
        # them in (bounded: each adds sparkline sections to the page)
        for row in rows:
            if len(reports) >= 8:
                break
            rpath = row.get("report")
            if rpath and Path(rpath).exists():
                reports.append(RunReport.load(rpath))
    if not reports and not rows:
        # nothing to render was supplied: simulate one sampled cell so
        # `repro report --out r.html` works out of the box
        from repro.campaign import Cell, build_cell_system
        from repro.obs import build_run_report
        from repro.obs.timeseries import DEFAULT_EPOCH

        cfg = _experiment_config(args)
        mix_name = _parse_mixes(args.mixes)[0]
        if not args.quiet:
            print(f"no inputs; simulating {mix_name}/camps-mod "
                  f"({cfg.refs_per_core} refs/core)")
        system = build_cell_system(
            Cell(mix_name, "camps-mod", cfg), timeseries_epoch=DEFAULT_EPOCH
        )
        result = system.run()
        reports = [build_run_report(system, result, refs_per_core=cfg.refs_per_core,
                                    seed=cfg.seed)]
    out = Path(args.out or "report.html")
    html = render_html(reports, manifest_rows=rows)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html)
    print(f"wrote {out} ({len(html) / 1024:.0f} KiB, "
          f"{len(reports)} report(s); self-contained, opens offline)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.inputs or args.manifest or (args.out or "").endswith((".html", ".htm")):
        return _report_html(args)
    from repro.experiments.report import generate_report

    mixes = _parse_mixes(args.mixes)
    cfg = _experiment_config(args)
    matrix = run_matrix(mixes, FIG5_SCHEMES, cfg, progress=not args.quiet)
    scale = run_scale(cfg.refs_per_core, mixes) or "below tier1"
    note = (
        f"Scale: {cfg.refs_per_core} post-LLC references per core, "
        f"seed {cfg.seed}, mixes: {', '.join(mixes)} (claim scale: {scale})."
    )
    report = generate_report(matrix, scale_note=note)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Fast end-to-end self-check: tiny simulations across every scheme,
    asserting the structural invariants a correct install must satisfy."""
    from repro.system import run_system
    from repro.workloads.synthetic import generate_trace

    traces = [generate_trace("gems", 400, seed=i, core_id=i) for i in range(2)]
    failures = []
    base_result = None
    for scheme in scheme_names():
        try:
            r = run_system(traces, scheme=scheme, workload="selftest")
            assert r.cycles > 0, "no cycles"
            assert all(i > 0 for i in r.core_ipc), "zero IPC"
            assert 0.0 <= r.row_accuracy <= 1.0, "accuracy out of range"
            if scheme == "base":
                assert r.row_conflicts == 0, "BASE must have zero conflicts"
                base_result = r
            if scheme == "none":
                assert r.prefetches_issued == 0, "none must not prefetch"
            # determinism
            r2 = run_system(traces, scheme=scheme, workload="selftest")
            assert r2.cycles == r.cycles, "nondeterministic"
            print(f"  {scheme:<10} ok  (cycles={r.cycles}, "
                  f"ipc={r.geomean_ipc:.3f})")
        except AssertionError as e:
            failures.append((scheme, str(e)))
            print(f"  {scheme:<10} FAILED: {e}")
    if base_result is not None:
        camps = run_system(traces, scheme="camps-mod", workload="selftest")
        print(f"  camps-mod speedup over base: "
              f"{camps.speedup_vs(base_result):.3f}x")
    if failures:
        print(f"selftest FAILED: {len(failures)} scheme(s)")
        return 1
    print("selftest passed")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import Sweep

    values = []
    for raw in args.values.split(","):
        raw = raw.strip()
        try:
            values.append(int(raw))
        except ValueError:
            try:
                values.append(float(raw))
            except ValueError:
                values.append(raw)
    sweep = Sweep(args.knob, values)
    result = sweep.run(
        args.mix,
        scheme=args.scheme,
        refs_per_core=args.refs,
        seed=args.seed,
        baseline_scheme=args.baseline or None,
    )
    print(result.text())
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    print("registered prefetching schemes:")
    for name in scheme_names():
        marker = "*" if name in PAPER_SCHEMES else " "
        print(f"  {marker} {name}")
    print("(* = evaluated in the paper's figures)")
    return 0


def _trace_manifest(args: argparse.Namespace) -> int:
    """Span-timeline mode of ``repro trace``: read service spans out of a
    campaign manifest, print per-trace critical-path attribution, and
    optionally merge them with simulator Chrome traces into one timeline.
    """
    from repro.obs.spans import (
        attribution,
        critical_path_text,
        merge_chrome,
        read_spans,
        spans_to_chrome,
    )

    spans = read_spans(args.benchmark, trace_id=args.trace_id)
    if args.cell:
        spans = [s for s in spans if s.cell_id == args.cell]
    if not spans:
        where = f" for trace {args.trace_id}" if args.trace_id else ""
        print(f"trace: no spans in {args.benchmark}{where}", file=sys.stderr)
        return 1
    by_trace: dict = {}
    for span in spans:
        stages = by_trace.setdefault(span.trace_id, {})
        stages[span.name] = stages.get(span.name, 0.0) + span.dur
    workers = sorted({s.worker for s in spans if s.worker})
    print(
        f"{args.benchmark}: {len(spans)} spans, {len(by_trace)} traces, "
        f"{len(workers)} workers ({', '.join(workers)})"
    )
    for tid, stages in sorted(by_trace.items()):
        path = critical_path_text(attribution(stages))
        print(f"  {tid}  {path or '(instant spans only)'}")
    if args.out:
        sims = []
        for sim_path in args.sim or []:
            try:
                with open(sim_path) as fh:
                    sims.append(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"trace: skipping sim trace {sim_path}: {exc}",
                      file=sys.stderr)
        merged = merge_chrome(spans_to_chrome(spans), sims)
        with open(args.out, "w") as fh:
            json.dump(merged, fh)
        print(f"  wrote {args.out} ({len(merged['traceEvents'])} events; "
              f"open in ui.perfetto.dev)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.benchmark not in PROFILES and os.path.exists(args.benchmark):
        return _trace_manifest(args)
    if args.benchmark not in PROFILES:
        raise SystemExit(
            f"unknown benchmark {args.benchmark!r} (and no such manifest "
            f"file); available: {', '.join(sorted(PROFILES))}"
        )
    trace = generate_trace(args.benchmark, args.refs, seed=args.seed)
    stats = trace_stats(trace)
    prof = PROFILES[args.benchmark]
    print(f"{args.benchmark}: {args.refs} references, seed {args.seed}")
    print(f"  class               {prof.memory_intensity} (target MPKI {prof.mpki})")
    for key, fmt in [
        ("mpki", "{:.1f}"),
        ("write_fraction", "{:.1%}"),
        ("footprint_bytes", "{:,.0f}"),
        ("distinct_rows", "{:,.0f}"),
        ("lines_per_row", "{:.1f}"),
        ("row_switch_rate", "{:.2f}"),
    ]:
        print(f"  {key:<19} {fmt.format(stats[key])}")
    if args.out:
        trace.save(args.out)
        print(f"  saved to {args.out}")
    return 0


def _add_robustness_args(parser: argparse.ArgumentParser) -> None:
    """Fault-injection and integrity flags shared by run/campaign."""
    parser.add_argument(
        "--ber", type=float, default=0.0, metavar="P",
        help="link bit-error rate (e.g. 1e-6); enables fault injection",
    )
    parser.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="link packet-drop probability; enables fault injection",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="base seed for the fault-injection RNG streams",
    )
    parser.add_argument(
        "--integrity", action="store_true",
        help="enable the integrity layer (watchdog, invariants, crash dumps)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAMPS (ICPP 2018) reproduction - simulate, regenerate figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one mix under one scheme")
    p_run.add_argument("mix", choices=mix_names())
    p_run.add_argument("--scheme", default="camps-mod", choices=scheme_names())
    p_run.add_argument("--baseline", default="base", choices=scheme_names())
    p_run.add_argument("--refs", type=int, default=4000)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--trace", metavar="PATH",
                       help="write a Chrome trace-event JSON (ui.perfetto.dev)")
    p_run.add_argument("--log-json", metavar="PATH",
                       help="write every trace event as one JSON object per line")
    p_run.add_argument("--json", action="store_true",
                       help="print a one-line machine-readable JSON summary")
    p_run.add_argument("--report", metavar="PATH",
                       help="write a RunReport artifact (counters + time "
                       "series; input to `repro diff` / `repro report`)")
    p_run.add_argument("--epoch", type=int, metavar="N",
                       help="time-series sampling period in cycles "
                       "(default 1024 when --report is given)")
    p_run.add_argument("--topology", metavar="SPEC",
                       help="run a multi-cube fabric instead of one cube: "
                       "'chain:4', 'ring:2', 'star:8' (one independent "
                       "stream of the mix per cube)")
    _add_robustness_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_prof = sub.add_parser(
        "profile", help="run one cell under cProfile; report hot callbacks"
    )
    p_prof.add_argument("mix", choices=mix_names())
    p_prof.add_argument("--scheme", default="camps-mod", choices=scheme_names())
    p_prof.add_argument("--refs", type=int, default=4000)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--top", type=int, default=15,
                        help="number of hot functions to print")
    p_prof.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="pstats sort key")
    p_prof.add_argument("--out", help="also dump raw pstats data to this file")
    p_prof.add_argument(
        "--json", action="store_true",
        help="print a machine-readable summary (throughput + per-subsystem "
        "slices; the format bench_hotpath.py embeds in BENCH_hotpath.json)",
    )
    p_prof.set_defaults(fn=cmd_profile)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", choices=sorted(_FIGURES))
    p_fig.add_argument("--mixes", help="comma-separated subset (default: all 12)")
    p_fig.add_argument("--refs", type=int, default=4000)
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument("--csv", help="also write the table to this CSV path")
    p_fig.add_argument("--chart", action="store_true",
                       help="also render a terminal bar chart of the summary")
    p_fig.add_argument("--quiet", action="store_true")
    p_fig.set_defaults(fn=cmd_figure)

    p_camp = sub.add_parser(
        "campaign",
        help="run a (mixes x schemes) grid sharded across worker processes",
    )
    p_camp.add_argument("--mixes", help="comma-separated subset (default: all 12)")
    p_camp.add_argument(
        "--schemes",
        help="comma-separated schemes (default: the 5 paper schemes)",
    )
    p_camp.add_argument("--refs", type=int, default=4000)
    p_camp.add_argument("--seed", type=int, default=1)
    p_camp.add_argument(
        "--jobs", type=int, default=max(1, os.cpu_count() or 1),
        help="worker processes (default: CPU count)",
    )
    p_camp.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds (needs --jobs >= 2)",
    )
    p_camp.add_argument(
        "--retries", type=int, default=0,
        help="retry crashed/raising cells this many times",
    )
    p_camp.add_argument(
        "--manifest", default=".repro_campaign.jsonl",
        help="JSONL progress log (one record per finished cell)",
    )
    p_camp.add_argument(
        "--resume", action="store_true",
        help="skip cells the manifest already records as ok",
    )
    p_camp.add_argument(
        "--report-dir", dest="report_dir", metavar="DIR",
        help="write one RunReport artifact per executed cell into DIR "
        "(manifest records point at them; disables the result log)",
    )
    p_camp.add_argument(
        "--watch", action="store_true",
        help="live terminal status board (per-worker rows, ETA, stall "
        "highlighting); replaces the per-cell progress lines",
    )
    p_camp.add_argument(
        "--telemetry", action="store_true",
        help="write per-worker heartbeat spools next to the manifest "
        "(implied by --watch / --telemetry-port; tail with `repro monitor`)",
    )
    p_camp.add_argument(
        "--telemetry-port", dest="telemetry_port", type=int, metavar="N",
        help="serve live /snapshot JSON and /metrics Prometheus text on "
        "this port (0 picks a free port)",
    )
    p_camp.add_argument(
        "--telemetry-interval", dest="telemetry_interval", type=float,
        default=0.5, metavar="SECONDS",
        help="seconds between worker heartbeats (default 0.5)",
    )
    p_camp.add_argument(
        "--topology", metavar="SPECS",
        help="comma-separated fabric topologies ('chain:2,chain:4,ring:4'): "
        "runs the (topology x mix x scheme) scenario grid on multi-cube "
        "fabrics instead of the single-cube grid",
    )
    _add_robustness_args(p_camp)
    p_camp.add_argument("--quiet", action="store_true")
    p_camp.set_defaults(fn=cmd_campaign)

    p_mon = sub.add_parser(
        "monitor",
        help="tail a campaign's telemetry spools from another terminal/host",
    )
    p_mon.add_argument(
        "target",
        help="campaign manifest path, its .telemetry spool directory, or a "
        "directory containing exactly one of either",
    )
    p_mon.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds (default 1)")
    p_mon.add_argument("--once", action="store_true",
                       help="render one snapshot and exit")
    p_mon.add_argument("--json", action="store_true",
                       help="print the final snapshot as JSON")
    p_mon.add_argument("--stale-after", dest="stale_after", type=float,
                       default=5.0,
                       help="flag a worker stalled after this many seconds "
                       "without a heartbeat (default 5)")
    p_mon.add_argument("--max-seconds", dest="max_seconds", type=float,
                       default=None,
                       help="stop monitoring after this long even if the "
                       "campaign is still running")
    p_mon.set_defaults(fn=cmd_monitor)

    p_srv = sub.add_parser(
        "serve",
        help="run the campaign service: submit jobs over HTTP/JSONL, "
        "work-stealing recovery, graceful drain",
    )
    p_srv.add_argument(
        "--manifest", default=".repro_serve.jsonl",
        help="shared manifest/work-queue file (peers attach to the same "
        "path to steal work)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=9200,
        help="listen port (0 picks a free port; default 9200)",
    )
    p_srv.add_argument(
        "--jobs", type=int, default=max(1, os.cpu_count() or 1),
        help="worker processes (default: CPU count)",
    )
    p_srv.add_argument(
        "--resume", action="store_true",
        help="attach to an existing manifest (and its drain checkpoint) "
        "instead of starting fresh",
    )
    p_srv.add_argument("--retries", type=int, default=1,
                       help="retries for raising cells (crashes always requeue)")
    p_srv.add_argument("--timeout", type=float, default=None,
                       help="per-attempt wall-clock budget in seconds")
    p_srv.add_argument("--quick-cap", dest="quick_cap", type=int, default=64,
                       help="max queued cells in the quick lane (default 64)")
    p_srv.add_argument("--bulk-cap", dest="bulk_cap", type=int, default=256,
                       help="max queued cells in the bulk lane (default 256)")
    p_srv.add_argument("--lease-ticks", dest="lease_ticks", type=int,
                       default=24,
                       help="logical-clock ticks before an orphaned claim "
                       "is stealable (default 24)")
    p_srv.add_argument("--tick-interval", dest="tick_interval", type=float,
                       default=0.25,
                       help="seconds between scheduler ticks (default 0.25)")
    p_srv.add_argument("--name", default=None,
                       help="work-queue worker name (default s<pid>)")
    p_srv.add_argument("--no-cache", dest="no_cache", action="store_true",
                       help="bypass the shared result log (REPRO_CACHE)")
    p_srv.add_argument(
        "--exit-when-complete", dest="exit_when_complete",
        action="store_true",
        help="fleet mode: exit once every claimed cell in the manifest is "
        "terminal (used by headless peers)",
    )
    p_srv.add_argument(
        "--no-spans", dest="no_spans", action="store_true",
        help="disable causal span tracing (no span records in the manifest)",
    )
    p_srv.add_argument(
        "--report-dir", dest="report_dir", default=None, metavar="DIR",
        help="write per-cell RunReport artifacts here and serve them via "
        "GET /jobs/<id>/report and /jobs/<id>/dash.html",
    )
    p_srv.set_defaults(fn=cmd_serve)

    p_sub = sub.add_parser(
        "submit",
        help="submit a (mixes x schemes) grid to a running `repro serve`",
    )
    p_sub.add_argument("--url", default="http://127.0.0.1:9200",
                       help="service address (default http://127.0.0.1:9200)")
    p_sub.add_argument("--mixes", help="comma-separated subset (default: all)")
    p_sub.add_argument("--schemes",
                       help="comma-separated schemes (default: paper schemes)")
    p_sub.add_argument("--refs", type=int, default=4000)
    p_sub.add_argument("--seed", type=int, default=1)
    p_sub.add_argument("--topology", metavar="SPECS",
                       help="comma-separated fabric topologies for a "
                       "multi-cube scenario grid")
    p_sub.add_argument("--ber", type=float, default=0.0)
    p_sub.add_argument("--drop", type=float, default=0.0)
    p_sub.add_argument("--lane", choices=["quick", "bulk"], default=None,
                       help="priority lane override (default: inferred)")
    p_sub.add_argument("--deadline", type=float, default=None,
                       help="seconds after which still-queued cells of this "
                       "job are abandoned")
    p_sub.add_argument("--traceparent", default=None,
                       help="W3C traceparent (or bare hex trace id) to join "
                       "this submission to an existing trace")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the job is terminal; exit non-zero "
                       "on any failed cell")
    p_sub.add_argument("--wait-timeout", dest="wait_timeout", type=float,
                       default=600.0)
    p_sub.add_argument("--timeout", type=float, default=30.0,
                       help="per-request HTTP timeout")
    p_sub.add_argument("--json", action="store_true",
                       help="print the final job state as JSON")
    p_sub.set_defaults(fn=cmd_submit)

    p_bt = sub.add_parser(
        "bench-trend",
        help="flag benchmark regressions against the rolling median of "
        "BENCH_history.jsonl",
    )
    p_bt.add_argument("--history", default="BENCH_history.jsonl",
                      help="history file benchmarks append to")
    p_bt.add_argument("--window", type=int, default=8,
                      help="prior runs feeding the rolling median (default 8)")
    p_bt.add_argument("--tolerance", type=float, default=0.25,
                      help="regression threshold as a fraction over the "
                      "median (default 0.25)")
    p_bt.add_argument("--check", action="store_true",
                      help="exit nonzero when any benchmark regressed "
                      "(or the history is missing)")
    p_bt.add_argument("--json", action="store_true",
                      help="machine-readable per-benchmark verdicts")
    p_bt.set_defaults(fn=cmd_bench_trend)

    p_tab = sub.add_parser("table", help="print Table I or II")
    p_tab.add_argument("number", choices=["1", "2"])
    p_tab.add_argument("--measure", action="store_true",
                       help="Table II: measure constituent MPKI")
    p_tab.add_argument("--refs", type=int, default=2000)
    p_tab.add_argument("--seed", type=int, default=1)
    p_tab.set_defaults(fn=cmd_table)

    p_sw = sub.add_parser("sweep", help="sweep one configuration knob")
    p_sw.add_argument("knob", help="HMCConfig field, 'timings.<field>' or "
                      "'scheme:<CampsParams field>'")
    p_sw.add_argument("values", help="comma-separated values, e.g. 4,8,16")
    p_sw.add_argument("--mix", default="HM1", choices=mix_names())
    p_sw.add_argument("--scheme", default="camps-mod", choices=scheme_names())
    p_sw.add_argument("--baseline", default="base")
    p_sw.add_argument("--refs", type=int, default=2500)
    p_sw.add_argument("--seed", type=int, default=1)
    p_sw.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser(
        "report",
        help="measured-vs-paper markdown report, or (with RunReport inputs, "
        "--manifest, or an .html --out) a self-contained HTML dashboard",
    )
    p_rep.add_argument(
        "inputs", nargs="*", metavar="REPORT.json",
        help="RunReport artifacts (from `run --report` / `campaign "
        "--report-dir`) to render as an HTML dashboard",
    )
    p_rep.add_argument("--mixes", help="comma-separated subset (default: all 12)")
    p_rep.add_argument("--refs", type=int, default=4000)
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--out", help="write the report to this file "
                       "(*.html selects the dashboard mode)")
    p_rep.add_argument("--manifest", metavar="PATH",
                       help="campaign manifest: adds the scheme-comparison "
                       "table and folds in per-cell reports")
    p_rep.add_argument("--quiet", action="store_true")
    p_rep.set_defaults(fn=cmd_report)

    p_diff = sub.add_parser(
        "diff", help="compare two RunReport artifacts (deltas + attribution)"
    )
    p_diff.add_argument("a", help="baseline RunReport JSON")
    p_diff.add_argument("b", help="comparison RunReport JSON")
    p_diff.add_argument("--top", type=int, default=10,
                        help="rows per section in the text output")
    p_diff.add_argument("--json", action="store_true",
                        help="machine-readable summary")
    p_diff.set_defaults(fn=cmd_diff)

    p_st = sub.add_parser("selftest", help="fast end-to-end install check")
    p_st.set_defaults(fn=cmd_selftest)

    p_s = sub.add_parser("schemes", help="list prefetching schemes")
    p_s.set_defaults(fn=cmd_schemes)

    p_tr = sub.add_parser(
        "trace",
        help="inspect a synthetic trace (benchmark name) or a service "
        "span timeline (manifest path)",
    )
    p_tr.add_argument(
        "benchmark",
        help="benchmark name (synthetic-trace mode) or a campaign manifest "
        "path (span-timeline mode)",
    )
    p_tr.add_argument("--refs", type=int, default=10_000)
    p_tr.add_argument("--seed", type=int, default=1)
    p_tr.add_argument(
        "--out",
        help="save the synthetic trace (.npz) or, in span-timeline mode, "
        "the merged Chrome trace-event JSON",
    )
    p_tr.add_argument(
        "--trace-id", dest="trace_id", default=None,
        help="span-timeline mode: only this trace id",
    )
    p_tr.add_argument(
        "--cell", default=None,
        help="span-timeline mode: only spans of this cell id",
    )
    p_tr.add_argument(
        "--sim", action="append", metavar="PATH",
        help="span-timeline mode: merge a simulator Chrome trace "
        "(repro run --trace) into the same timeline; repeatable",
    )
    p_tr.set_defaults(fn=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro table 1 | head`
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
