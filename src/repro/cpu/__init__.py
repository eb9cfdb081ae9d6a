"""Processor-side substrate: cache hierarchy and trace-driven cores.

The paper evaluates on gem5 with 8 out-of-order x86 cores and a three-level
hierarchy (Table I).  Here the hierarchy is modeled functionally (hits cost
fixed latencies, misses become :class:`~repro.request.MemoryRequest`s) and
each core replays a workload trace under a reorder-buffer/MLP timing model
that preserves how memory stalls translate into lost IPC - the quantity
Figure 5 compares across prefetching schemes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "Cache": "cache",
        "CacheParams": "cache",
        "MSHRFile": "mshr",
        "CacheHierarchy": "hierarchy",
        "HierarchyParams": "hierarchy",
        "HierarchyResult": "hierarchy",
        "Core": "core",
        "CoreParams": "core",
    },
)
