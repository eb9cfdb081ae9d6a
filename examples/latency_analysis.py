#!/usr/bin/env python3
"""Where do a request's cycles go?  Latency breakdown by service source.

Runs one memory-intensive mix under BASE and CAMPS-MOD with request
recording on, then slices end-to-end read latency by how each request was
served: a DRAM bank (queue + ACT/RD), the prefetch buffer (22-cycle hit), or
a merge with an in-flight row fetch.  This is the view that explains Figure
8: CAMPS-MOD moves traffic from the slow bank population to the fast buffer
population.

Run:  python examples/latency_analysis.py
"""

from repro import mix
from repro.metrics.latency import (
    format_latency_table,
    latency_by_source,
    latency_segments,
)
from repro.system import System, SystemConfig


def main() -> None:
    traces = mix("HM2", refs_per_core=3000, seed=1)

    for scheme in ("base", "camps-mod"):
        sysm = System(
            traces,
            SystemConfig(scheme=scheme, record_requests=True, timeseries_epoch=2000),
        )
        # extra gauges on the epoch sampler, registered before run()
        vaults = sysm.device.vaults
        host = sysm.host
        ts = sysm.timeseries
        depth = ts.track("queue_depth", lambda: sum(len(vc.queues) for vc in vaults))
        occupancy = ts.track(
            "buffer_occupancy",
            lambda: sum(len(vc.buffer) for vc in vaults if vc.buffer is not None),
        )
        outstanding = ts.track("host_outstanding", lambda: host.outstanding)
        result = sysm.run()
        reqs = host.completed_requests

        print(f"\n=== {scheme}  (mean read latency {result.mean_read_latency:.0f} cycles)")
        print(format_latency_table(latency_by_source(reqs), "by service source"))
        print()
        print(format_latency_table(latency_segments(reqs), "by path segment"))
        print(
            f"\nsampled state: mean queue depth {depth.values.mean():.1f}, "
            f"mean buffer occupancy {occupancy.values.mean():.1f} rows, "
            f"outstanding at host {outstanding.values.mean():.1f}"
        )

    print(
        "\nReading: under CAMPS-MOD a large share of reads moves into the "
        "'buffer' population\n(~60-90 cycle round trips) that under BASE "
        "either waits in bank queues or stalls\non whole-row fetches "
        "('in_flight')."
    )


if __name__ == "__main__":
    main()
