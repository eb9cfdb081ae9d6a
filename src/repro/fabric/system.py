"""Fabric-system assembly: N stream cores + routed multi-cube HMC fabric.

:class:`FabricSystem` is the multi-cube counterpart of
:class:`~repro.system.System`: one engine, one :class:`HMCDevice` per cube
(CAMPS - or any scheme - running per-vault in every cube), a
:class:`~repro.fabric.host.FabricHost` multiplexing all stream cores onto
the fabric, and the same observability surface (tracer wiring, epoch time
series, telemetry duck-typing) so campaign workers, RunReports and the
``/metrics`` endpoint work unchanged.

``run()`` returns a plain :class:`~repro.system.SimulationResult` with every
summary field aggregated fabric-wide, plus ``extra["fabric"]`` carrying the
hop-count histogram, per-cube conflict statistics, router forwarding
counters and inter-cube link utilization.  A one-cube fabric reproduces the
single-cube ``System`` result field for field (including the event count) -
the degenerate-fabric parity the pinned hot-path digests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cpu.core import Core, CoreParams
from repro.fabric.host import FabricHost
from repro.fabric.topology import FabricConfig, Topology
from repro.hmc.device import HMCDevice
from repro.system import DirectPort, SimulationResult
from repro.sim.engine import Engine
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class FabricSystemConfig:
    """Everything needed to build one simulated fabric."""

    fabric: FabricConfig = field(default_factory=FabricConfig)
    core_params: CoreParams = field(default_factory=CoreParams)
    scheme: str = "camps-mod"
    #: see SystemConfig.stats_warmup_cycles
    stats_warmup_cycles: Optional[int] = None
    #: see SystemConfig.timeseries_epoch
    timeseries_epoch: Optional[int] = None
    #: keep every completed MemoryRequest for post-run analysis
    record_requests: bool = False

    @property
    def hmc(self):
        """The per-cube HMC config (convenience for config-digest readers)."""
        return self.fabric.hmc

    @property
    def scheme_name(self) -> str:  # pragma: no cover - trivial
        return self.scheme


class FabricSystem:
    """One simulated multi-cube machine: build, run once, read the result."""

    def __init__(
        self,
        traces: List[Trace],
        config: Optional[FabricSystemConfig] = None,
        workload: str = "custom",
        scheme_kwargs: Optional[Dict[str, Any]] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one core trace")
        self.config = config or FabricSystemConfig()
        fabric = self.config.fabric
        self.fabric = fabric
        self.workload = workload
        self.engine = Engine()
        self.topology = Topology(fabric)
        self.devices: List[HMCDevice] = [
            HMCDevice(
                fabric.hmc,
                self.engine,
                scheme=self.config.scheme,
                scheme_kwargs=scheme_kwargs,
            )
            for _ in range(fabric.cubes)
        ]
        self.host = FabricHost(
            fabric,
            self.engine,
            self.devices,
            self.topology,
            record_requests=self.config.record_requests,
        )
        port = DirectPort(self.host, self.engine)
        # Post-LLC front-end, no recording: the host is the last holder of a
        # delivered request, so the pool recycles (same proof as System).
        if not self.config.record_requests:
            self.host.recycle_requests = True
        self.cores: List[Core] = [
            Core(
                core_id=i,
                engine=self.engine,
                mem=port,
                gaps=t.gaps,
                addrs=t.addrs,
                writes=t.writes,
                params=self.config.core_params,
            )
            for i, t in enumerate(traces)
        ]
        self.tracer = tracer
        if tracer is not None:
            tracer.wire_fabric(self)
        self.timeseries = None
        if self.config.timeseries_epoch is not None:
            from repro.obs.timeseries import TimeseriesSampler  # local: keep
            # the unsampled build path free of the obs timeseries import

            self.timeseries = TimeseriesSampler(
                self.engine, epoch=self.config.timeseries_epoch
            )
            self.timeseries.attach_fabric(self)
        self._ran = False

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Run to completion (all stream cores retire all trace records)."""
        if self._ran:
            raise RuntimeError("FabricSystem.run() may only be called once")
        self._ran = True
        if self.config.stats_warmup_cycles is not None:
            self.engine.schedule(
                self.config.stats_warmup_cycles,
                self._warmup_boundary,
                priority=-10,
                weak=True,
            )
        if self.timeseries is not None:
            self.timeseries.start()
        for core in self.cores:
            core.start()
        self.engine.run(max_events=max_events)
        stuck = [c.core_id for c in self.cores if not c.done]
        if stuck:
            raise RuntimeError(
                f"fabric simulation drained with unfinished cores {stuck}; "
                f"events={self.engine.events_fired}"
            )
        for dev in self.devices:
            dev.finalize()
        return self._collect()

    def _warmup_boundary(self) -> None:
        for dev in self.devices:
            dev.reset_statistics()
        self.host.reset_statistics()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _collect(self) -> SimulationResult:
        devices = self.devices
        host = self.host
        fabric = self.fabric

        demand = sum(dev.demand_accesses for dev in devices)
        conflicts = sum(dev.row_conflicts for dev in devices)
        buf_hits = sum(dev.buffer_hits for dev in devices)
        accesses = demand + buf_hits
        # prefetch accuracies pool the raw used/unused counts across every
        # cube's vaults (a ratio-of-sums, not a mean of per-cube ratios)
        rows_used = rows_unused = lines_ins = lines_used = 0
        for dev in devices:
            for vc in dev.vaults:
                if vc.buffer is not None:
                    rows_used += vc.buffer.rows_retired_used
                    rows_unused += vc.buffer.rows_retired_unused
                    lines_ins += vc.buffer.lines_inserted
                    lines_used += vc.buffer.lines_used
        rows_n = rows_used + rows_unused

        breakdown: Dict[str, float] = {}
        for dev in devices:
            for key, value in dev.energy.breakdown_pj().items():
                breakdown[key] = breakdown.get(key, 0.0) + value
        hop_flits = host.hop_flits()
        if fabric.cubes > 1:
            # the key only exists on real fabrics: a one-cube breakdown must
            # stay dict-equal to the single-cube System's
            breakdown["fabric_hops"] = hop_flits * fabric.hop_energy_pj
        energy_pj = sum(breakdown.values())

        extra: Dict[str, Any] = {
            "events_fired": self.engine.events_fired,
            "core_stall_cycles": [c.stall_cycles for c in self.cores],
            "core_rob_stalls": [c.rob_stalls for c in self.cores],
            "core_mlp_stalls": [c.mlp_stalls for c in self.cores],
        }
        hits = empties = bank_conflicts = 0
        tsv_util = 0.0
        nvaults = 0
        for dev in devices:
            for vc in dev.vaults:
                nvaults += 1
                tsv_util += vc.tsv_bus.utilization(self.engine.now)
                for b in vc.banks:
                    hits += b.hits
                    empties += b.empties
                    bank_conflicts += b.conflicts
        extra["bank_outcomes"] = {
            "hits": hits,
            "empties": empties,
            "conflicts": bank_conflicts,
        }
        extra["tsv_bus_utilization"] = (
            tsv_util / nvaults if self.engine.now else 0.0
        )
        pf0 = devices[0].vaults[0].prefetcher
        if hasattr(pf0, "utilization_prefetches"):
            extra["utilization_prefetches"] = sum(
                vc.prefetcher.utilization_prefetches
                for dev in devices
                for vc in dev.vaults
            )
            extra["conflict_prefetches"] = sum(
                vc.prefetcher.conflict_prefetches
                for dev in devices
                for vc in dev.vaults
            )
        if hasattr(pf0, "degree"):
            extra["mmd_final_degrees"] = [
                vc.prefetcher.degree for dev in devices for vc in dev.vaults
            ]
        if host.faults_enabled:
            extra["link_faults"] = host.link_fault_summary()
        if self.tracer is not None:
            extra["trace_summary"] = self.tracer.summary()
        if self.timeseries is not None:
            extra["timeseries"] = self.timeseries.to_payload()
        extra["fabric"] = self._fabric_extra(hop_flits)

        return SimulationResult(
            scheme=self.config.scheme,
            workload=self.workload,
            cycles=self.engine.now,
            core_ipc=[c.ipc for c in self.cores],
            core_instructions=[c.instr for c in self.cores],
            conflict_rate=conflicts / accesses if accesses else 0.0,
            row_conflicts=conflicts,
            demand_accesses=demand,
            buffer_hits=buf_hits,
            prefetches_issued=sum(dev.prefetches_issued() for dev in devices),
            row_accuracy=rows_used / rows_n if rows_n else 0.0,
            line_accuracy=lines_used / lines_ins if lines_ins else 0.0,
            mean_memory_latency=host.mean_memory_latency(),
            mean_read_latency=host.mean_read_latency(),
            energy_pj=energy_pj,
            energy_breakdown=breakdown,
            link_utilization=host.link_utilization(),
            extra=extra,
        )

    def _fabric_extra(self, hop_flits: int) -> Dict[str, Any]:
        host = self.host
        fabric = self.fabric
        per_cube = []
        for c, dev in enumerate(self.devices):
            router = host.routers[c]
            per_cube.append(
                {
                    "cube": c,
                    "demand_accesses": dev.demand_accesses,
                    "row_conflicts": dev.row_conflicts,
                    "buffer_hits": dev.buffer_hits,
                    "conflict_rate": dev.conflict_rate(),
                    "prefetches_issued": dev.prefetches_issued(),
                    "crossbar_traversals": dev.crossbar.traversals,
                    "router": router.counters(),
                }
            )
        cycles = self.engine.now
        fabric_links = {
            f"link{l.link_id}": {
                "cubes": [l.cube_a, l.cube_b],
                "flits": l.total_flits,
                "busy_cycles": l.total_busy_cycles,
                "utilization": (
                    (l.request.utilization(cycles) + l.response.utilization(cycles))
                    / 2.0
                    if cycles
                    else 0.0
                ),
            }
            for l in host.fabric_links
        }
        return {
            "topology": fabric.topology,
            "cubes": fabric.cubes,
            "hop_latency": fabric.hop_latency,
            "hop_histogram": host.hop_histogram(),
            "mean_hops": host.mean_hops(),
            "hop_flits": hop_flits,
            "fabric_link_utilization": host.fabric_link_utilization(),
            "fabric_links": fabric_links,
            "per_cube": per_cube,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FabricSystem {self.fabric.spec} scheme={self.config.scheme} "
            f"cores={len(self.cores)}>"
        )
