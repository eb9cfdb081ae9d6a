"""Workload synthesis: SPEC-CPU2006-like memory traces and the Table II mixes.

The paper drives gem5 with SPEC CPU2006 binaries; those binaries and their
traces are not redistributable, so this package synthesizes post-LLC memory
reference streams whose *memory-side* statistics match each benchmark's
published character: misses-per-kilo-instruction class (the paper's HM/LM
split at MPKI 20 and 1), spatial locality within DRAM rows, row-buffer
conflict propensity, and write fraction.  Those are exactly the properties
CAMPS's mechanisms (RUT utilization threshold, CT conflict detection) key
off, so the substitution preserves the comparison the paper makes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "Trace": "trace",
        "trace_stats": "trace",
        "BenchmarkProfile": "spec",
        "PROFILES": "spec",
        "profile": "spec",
        "TraceGenerator": "synthetic",
        "generate_trace": "synthetic",
        "MIXES": "mixes",
        "HM_MIXES": "mixes",
        "LM_MIXES": "mixes",
        "MX_MIXES": "mixes",
        "mix": "mixes",
        "mix_names": "mixes",
        "MultiStreamSpec": "multistream",
        "StreamSpec": "multistream",
        "build_stream_traces": "multistream",
        "RowBufferProfile": "analysis",
        "analyze_mix": "analysis",
        "analyze_row_buffer": "analysis",
    },
)
