"""``repro.serve``: the crash-tolerant campaign service.

A long-running asyncio job server over the pooled campaign executor:
admission-controlled bounded queues with priority lanes and 429 load
shedding, a lease-based work-stealing queue layered onto the campaign
manifest, graceful SIGTERM drain that hands unfinished cells back to the
manifest as expired claims, and the chaos harness that proves all of it
(:mod:`repro.serve.chaos`).

Quickstart::

    repro serve --manifest svc.jsonl --port 9200 --jobs 4   # terminal 1
    repro submit --url http://127.0.0.1:9200 --mixes HM1 \\
        --schemes base,camps --wait                          # terminal 2
    repro monitor svc.jsonl                                  # terminal 3

See ``docs/API.md`` ("Service mode") for the wire protocol, lease
semantics, and the degradation ladder.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "AdmissionController": "admission",
        "CellState": "jobs",
        "DEFAULT_LEASE_TICKS": "steal",
        "Draining": "server",
        "DrainingError": "client",
        "Job": "jobs",
        "JobRegistry": "jobs",
        "LANE_BULK": "admission",
        "LANE_QUICK": "admission",
        "LatencyTracker": "admission",
        "LoadGenerator": "client",
        "LogHistogram": "admission",
        "Saturated": "server",
        "ServeClient": "client",
        "ServeConfig": "server",
        "ServeError": "client",
        "ServeScheduler": "server",
        "ServeService": "server",
        "Shed": "client",
        "SpecError": "jobs",
        "WorkQueue": "steal",
        "cell_from_spec": "jobs",
        "cell_to_spec": "jobs",
        "infer_lane": "admission",
        "nearest_rank": "admission",
        "run_serve": "server",
    },
)
