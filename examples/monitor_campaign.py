#!/usr/bin/env python3
"""Watch a campaign from outside its process (repro.obs.telemetry demo).

Launches a small campaign in a background thread with telemetry armed,
then monitors it the way a second process would:

1. poll the worker state files and the manifest with
   :class:`TelemetryAggregator` and print a status line per refresh (what
   ``repro monitor`` does under the hood);
2. serve the merged view with :class:`repro.serve.server.HttpFront` on a
   loop thread and scrape ``/snapshot`` (JSON) and ``/metrics``
   (Prometheus text, validated by
   :func:`repro.obs.promtext.parse_exposition`) — exactly what
   ``repro campaign --telemetry-port N`` serves;
3. after the campaign finishes, render the final board with
   :func:`repro.obs.watch.render_board` and check that the view's
   ``campaign`` block, derived from the manifest alone, equals the
   campaign's own stats.

Against a *real* long campaign you would skip the launcher and simply run
``python -m repro monitor path/to/manifest.jsonl`` — the aggregation below
is exactly what that command does.

Run:  python examples/monitor_campaign.py [--refs N] [--jobs N]
"""

import argparse
import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.campaign import CampaignOptions, Manifest, grid_cells, run_campaign
from repro.experiments.runner import ExperimentConfig
from repro.obs.promtext import parse_exposition
from repro.obs.telemetry import TelemetryAggregator, spool_dir_for
from repro.obs.watch import render_board, render_status_line
from repro.serve.server import HttpFront


def launch_campaign(manifest: Path, refs: int, jobs: int) -> dict:
    """Run a (2 mixes x 2 schemes) grid in a background thread."""
    cells = grid_cells(
        ["HM1", "MX1"],
        ["base", "camps"],
        ExperimentConfig(refs_per_core=refs, seed=1),
    )
    out: dict = {}

    def run() -> None:
        res = run_campaign(
            cells,
            CampaignOptions(
                jobs=jobs,
                progress=False,
                telemetry=True,
                telemetry_interval=0.2,
            ),
            cache=None,
            manifest=Manifest(manifest),
        )
        out["stats"] = res.stats

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    out["thread"] = thread
    return out


def scrape(url: str) -> None:
    with urllib.request.urlopen(f"{url}/snapshot", timeout=5) as resp:
        snap = json.loads(resp.read())
    print(f"  GET /snapshot -> campaign {snap['campaign']}")
    with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
        families = parse_exposition(resp.read().decode())
    print(f"  GET /metrics  -> {len(families)} metric families, "
          "valid Prometheus exposition")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", type=int, default=600,
                        help="memory references per core (default 600)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="campaign worker processes (default 2)")
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="repro-monitor-demo-"))
    manifest = tmp / "campaign.jsonl"
    print(f"launching campaign (manifest {manifest}) ...")
    handle = launch_campaign(manifest, args.refs, args.jobs)

    # -- 1. poll the state files like `repro monitor` does --------------
    aggregator = TelemetryAggregator(
        spool_dir_for(manifest), manifest_path=manifest
    )

    # -- 2. and expose the merged view over HTTP ------------------------
    server = HttpFront(aggregator.snapshot).start_thread()
    print(f"serving telemetry at {server.url}")

    scraped = False
    while handle["thread"].is_alive():
        snapshot = aggregator.snapshot()
        print("  " + render_status_line(snapshot))
        if not scraped and snapshot["workers"]:
            scrape(server.url)
            scraped = True
        time.sleep(0.3)
    handle["thread"].join()
    if not scraped:  # tiny grids can finish before the first heartbeat
        scrape(server.url)
    server.stop_thread()

    # -- 3. final board + exactly-once reconciliation -------------------
    snapshot = aggregator.snapshot()
    print("\nfinal board:")
    for line in render_board(snapshot):
        print("  " + line)

    stats = handle["stats"]
    manifest_records = Manifest(manifest).records()
    print(f"\ncampaign stats:      {stats}")
    print(f"manifest records:    {len(manifest_records)} terminal cells")
    print(f"merged view:         {snapshot['campaign']}")
    assert len(manifest_records) == stats["total"], "exactly-once violated"
    view = snapshot["campaign"]
    assert all(view[k] == v for k, v in stats.items() if k != "resumed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
