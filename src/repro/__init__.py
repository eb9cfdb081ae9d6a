"""repro - reproduction of CAMPS (Rafique & Zhu, ICPP 2018).

CAMPS is a conflict-aware memory-side prefetching scheme for the Hybrid
Memory Cube: whole DRAM rows are prefetched over a vault's internal TSVs
into a small buffer in the vault controller, selected by row utilization
(RUT) and row-buffer conflict history (CT), and replaced by a combined
utilization+recency policy (CAMPS-MOD).

Quick start::

    from repro import run_system, mix

    traces = mix("HM1", refs_per_core=20_000, seed=1)
    base = run_system(traces, scheme="base", workload="HM1")
    camps = run_system(traces, scheme="camps-mod", workload="HM1")
    print(f"speedup: {camps.speedup_vs(base):.3f}x")

Package layout:

* :mod:`repro.core` - the prefetching schemes (the paper's contribution)
* :mod:`repro.dram`, :mod:`repro.vault`, :mod:`repro.interconnect`,
  :mod:`repro.hmc` - the Hybrid Memory Cube substrate
* :mod:`repro.cpu` - cache hierarchy and trace-driven cores
* :mod:`repro.workloads` - SPEC-like synthetic traces and Table II mixes
* :mod:`repro.experiments` - one runner per paper table/figure
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "HMCConfig": "hmc.config",
        "SimulationResult": "system",
        "System": "system",
        "SystemConfig": "system",
        "Tracer": "obs.tracer",
        "run_system": "system",
        "mix": "workloads.mixes",
        "mix_names": "workloads.mixes",
        "generate_trace": "workloads.synthetic",
        "PAPER_SCHEMES": "core.schemes",
        "scheme_names": "core.schemes",
    },
)
__all__.append("__version__")
