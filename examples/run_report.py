#!/usr/bin/env python3
"""Run reports: artifacts -> diff -> HTML dashboard.

Every run can leave behind a :class:`~repro.obs.RunReport` - a versioned
JSON artifact holding the config digest, summary metrics, the full counter
tree, and epoch-sampled time series.  This example

1. runs the MX1 mix under CAMPS twice, identical except for the
   prefetch-buffer size (16 vs 4 row entries),
2. saves both runs as RunReport artifacts,
3. diffs them - per-metric deltas, the first cycle the sampled series
   pull apart, and subsystem attribution (which correctly blames the
   buffer/prefetch subsystem, since that is all that changed),
4. renders a self-contained HTML dashboard with sparklines and a
   bank-conflict heatmap.

Run:  python examples/run_report.py
"""

from pathlib import Path

from repro import mix
from repro.obs import build_run_report, diff_reports, write_html
from repro.hmc.config import HMCConfig
from repro.obs.timeseries import DEFAULT_EPOCH
from repro.system import System, SystemConfig

OUT = Path("run_report_out")


def simulate(pf_entries: int):
    """One MX1/CAMPS run with epoch sampling enabled; the report reads its
    counters from the finished system, so no tracer is attached."""
    traces = mix("MX1", refs_per_core=3000, seed=1)
    cfg = SystemConfig(
        hmc=HMCConfig(pf_buffer_entries=pf_entries),
        scheme="camps",
        timeseries_epoch=DEFAULT_EPOCH,
    )
    system = System(traces, cfg, workload="MX1")
    result = system.run()
    return build_run_report(system, result, pf_buffer_entries=pf_entries)


def main() -> None:
    OUT.mkdir(exist_ok=True)

    # --- 1-2. two runs differing only in buffer size, saved as artifacts --
    big = simulate(pf_entries=16)
    small = simulate(pf_entries=4)
    big.save(OUT / "buffer16.json")
    small.save(OUT / "buffer4.json")
    print(f"wrote {OUT}/buffer16.json and {OUT}/buffer4.json")
    for r in (big, small):
        print(
            f"  {r.label}: ipc={r.summary['geomean_ipc']:.3f} "
            f"hit_rate_series={len(r.series['series']['buffer.hit_rate']['values'])} samples"
        )

    # --- 3. what changed, and which subsystem did it? ---------------------
    diff = diff_reports(big, small)
    print()
    print(diff.to_text(max_counters=5))
    print(f"\ntop subsystem: {diff.top_subsystem()}  "
          "(expected buffer/prefetch - the only knob we turned)")

    # --- 4. the dashboard -------------------------------------------------
    dash = write_html(
        OUT / "dashboard.html",
        [big, small],
        title="CAMPS buffer-size ablation",
    )
    print(f"\nwrote {dash} ({dash.stat().st_size / 1024:.0f} KiB; "
          "single file, opens offline)")


if __name__ == "__main__":
    main()
