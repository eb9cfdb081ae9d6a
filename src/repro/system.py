"""Full-system assembly: cores + (optional) cache hierarchy + HMC cubes.

:class:`System` wires one :class:`~repro.sim.engine.Engine` to the
trace-driven cores, the host controller
(:class:`~repro.fabric.host.FabricHost`) and one
:class:`~repro.hmc.device.HMCDevice` per cube running a chosen prefetching
scheme, runs the simulation to completion, and returns a
:class:`SimulationResult` with everything the paper's figures need
(per-core IPC, conflict rate, prefetch accuracy, AMAT, energy), aggregated
as ratios of sums over every cube.

Without a fabric (``SystemConfig.fabric=None``) the machine is the paper's
single cube.  With one (``FabricConfig.from_spec("chain:4")``) requests
route over 1-8 cubes and ``extra["fabric"]`` carries the hop accounting.

Two memory front-ends are available:

* ``use_caches=False`` (default for experiments) - traces are *post-LLC*
  reference streams (the generators are calibrated at that level); cores
  talk straight to the HMC host controller.  This matches how the paper's
  numbers are produced: every evaluated statistic lives below the LLC.
* ``use_caches=True`` - traces are raw reference streams filtered through
  the full L1/L2/L3 hierarchy of Table I (used by integration tests and the
  cache-mode example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cpu.core import Core, CoreParams, MemoryPort
from repro.cpu.hierarchy import CacheHierarchy, HierarchyParams
from repro.fabric.host import FabricHost
from repro.fabric.topology import FabricConfig
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.sim.sampler import Sampler
from repro.sim.stats import geomean
from repro.workloads.trace import Trace


class DirectPort(MemoryPort):
    """Post-LLC front-end: every trace record is one HMC transaction."""

    #: The host delivers the same request object to ``on_fill`` that this
    #: port created, so per-load context can ride on ``req.meta`` and the
    #: core can reuse one bound fill method instead of a closure per load.
    fill_via_meta = True

    def __init__(self, host: FabricHost, engine: Engine) -> None:
        self.host = host
        self.engine = engine

    def load(
        self,
        core_id: int,
        addr: int,
        on_fill: Callable[[MemoryRequest], None],
        meta: Optional[Any] = None,
    ) -> Optional[int]:
        # MemoryRequest.acquire inlined: this runs once per traced load and
        # the classmethod frame was visible in the hot-loop profile.
        pool = MemoryRequest._pool
        if pool:
            req = pool.pop()
            MemoryRequest._next_id = rid = MemoryRequest._next_id + 1
            req.req_id = rid
            req.addr = addr
            req.is_write = False
            req.core_id = core_id
            req.issue_cycle = self.engine.now
            req.callback = on_fill
        else:
            req = MemoryRequest(addr, False, core_id, self.engine.now, on_fill)
        req.meta = meta
        self.host.send(req)
        return None

    def store(self, core_id: int, addr: int) -> None:
        pool = MemoryRequest._pool
        if pool:
            req = pool.pop()
            MemoryRequest._next_id = rid = MemoryRequest._next_id + 1
            req.req_id = rid
            req.addr = addr
            req.is_write = True
            req.core_id = core_id
            req.issue_cycle = self.engine.now
            req.callback = None
        else:
            req = MemoryRequest(addr, True, core_id, self.engine.now)
        self.host.send(req)


class HierarchyPort(MemoryPort):
    """Full-hierarchy front-end: records filter through L1/L2/L3 first."""

    def __init__(self, hierarchy: CacheHierarchy, engine: Engine) -> None:
        self.hierarchy = hierarchy
        self.engine = engine

    def load(
        self,
        core_id: int,
        addr: int,
        on_fill: Callable[[MemoryRequest], None],
        meta: Optional[Any] = None,
    ) -> Optional[int]:
        # meta is unused: MSHR merging means the request delivered to
        # on_fill may not be the one this load created, so context cannot
        # ride on it (fill_via_meta stays False).
        res = self.hierarchy.access(core_id, addr, is_write=False, on_fill=on_fill)
        if res.level == "MEM":
            return None
        return self.engine.now + res.latency

    def store(self, core_id: int, addr: int) -> None:
        self.hierarchy.access(core_id, addr, is_write=True, on_fill=None)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system."""

    #: the per-cube HMC; with a ``fabric`` it mirrors ``fabric.hmc``
    hmc: HMCConfig = field(default_factory=HMCConfig)
    #: routed multi-cube fabric (None = one cube built from ``hmc``);
    #: selects the per-cube observability wiring and ``extra["fabric"]``
    fabric: Optional[FabricConfig] = None
    core_params: CoreParams = field(default_factory=CoreParams)
    hierarchy_params: HierarchyParams = field(default_factory=HierarchyParams)
    scheme: str = "camps-mod"
    use_caches: bool = False
    record_commands: bool = False
    #: zero all measurement counters at this cycle (warmup boundary); the
    #: paper warms its caches before detailed simulation - this is the
    #: equivalent knob for the memory-side statistics.  Core IPC is always
    #: whole-run.
    stats_warmup_cycles: Optional[int] = None
    #: sample queue depth / buffer occupancy every N cycles (None = off);
    #: results appear in SimulationResult.extra["samples"]
    sample_interval: Optional[int] = None
    #: epoch-windowed time series (repro.obs.timeseries): snapshot the
    #: standard derived gauges every N cycles into ring-buffered series
    #: (None = off).  The payload appears in
    #: SimulationResult.extra["timeseries"] and in RunReport artifacts;
    #: sampling never perturbs simulation order or result digests.
    timeseries_epoch: Optional[int] = None
    #: keep every completed MemoryRequest on the host for post-run latency
    #: analysis (repro.metrics.latency); costs memory proportional to trace
    record_requests: bool = False
    #: enable the simulation integrity layer (repro.sim.integrity): a
    #: forward-progress watchdog, structural invariant checks, and a crash
    #: dump + IntegrityError on any violation or engine exception
    integrity: bool = False
    #: where crash dumps land (None = $REPRO_CRASH_DIR or ./crash_dumps)
    crash_dump_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fabric is not None and self.hmc != self.fabric.hmc:
            if self.hmc != HMCConfig():
                raise ValueError(
                    "hmc and fabric.hmc disagree; set the cube config on the fabric"
                )
            object.__setattr__(self, "hmc", self.fabric.hmc)


@dataclass
class SimulationResult:
    """Outcome of one System.run()."""

    scheme: str
    workload: str
    cycles: int
    core_ipc: List[float]
    core_instructions: List[int]
    conflict_rate: float
    row_conflicts: int
    demand_accesses: int
    buffer_hits: int
    prefetches_issued: int
    row_accuracy: float
    line_accuracy: float
    mean_memory_latency: float
    mean_read_latency: float
    energy_pj: float
    energy_breakdown: Dict[str, float]
    link_utilization: float
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def geomean_ipc(self) -> float:
        return geomean(self.core_ipc)

    def speedup_vs(self, baseline: "SimulationResult") -> float:
        """Geometric-mean per-core IPC ratio against a baseline run (the
        paper's Figure 5 metric, normalized per workload)."""
        if len(self.core_ipc) != len(baseline.core_ipc):
            raise ValueError("core counts differ")
        return geomean(
            [a / b for a, b in zip(self.core_ipc, baseline.core_ipc)]
        )

    def summary(self) -> Dict[str, float]:
        return {
            "geomean_ipc": self.geomean_ipc,
            "conflict_rate": self.conflict_rate,
            "row_accuracy": self.row_accuracy,
            "mean_read_latency": self.mean_read_latency,
            "energy_pj": self.energy_pj,
        }


class System:
    """One simulated machine: build, run once, read the result."""

    def __init__(
        self,
        traces: List[Trace],
        config: Optional[SystemConfig] = None,
        workload: str = "custom",
        scheme_kwargs: Optional[Dict[str, Any]] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one core trace")
        cfg = self.config = config or SystemConfig()
        self.workload = workload
        #: the configured fabric (None: the plain one-cube machine)
        self.fabric = cfg.fabric
        fabric = cfg.fabric or FabricConfig(hmc=cfg.hmc)
        self.engine = Engine()
        self.devices: List[HMCDevice] = [
            HMCDevice(
                cfg.hmc,
                self.engine,
                scheme=cfg.scheme,
                scheme_kwargs=scheme_kwargs,
                record_commands=cfg.record_commands,
            )
            for _ in range(fabric.cubes)
        ]
        #: cube 0 - the whole memory of a machine without a fabric
        self.device = self.devices[0]
        self.host = FabricHost(
            fabric, self.engine, self.devices, record_requests=cfg.record_requests
        )
        self.hierarchy: Optional[CacheHierarchy] = None
        port: MemoryPort
        if cfg.use_caches:
            self.hierarchy = CacheHierarchy(
                cfg.hierarchy_params,
                num_cores=len(traces),
                engine=self.engine,
                send_fn=self.host.send,
            )
            port = HierarchyPort(self.hierarchy, self.engine)
        else:
            port = DirectPort(self.host, self.engine)
            # Post-LLC front-end with no request recording: the host is the
            # last holder of a delivered request (core fills ignore the
            # object), so completed requests recycle through the pool.
            if not cfg.record_requests:
                self.host.recycle_requests = True
        self.cores: List[Core] = [
            Core(
                core_id=i,
                engine=self.engine,
                mem=port,
                gaps=t.gaps,
                addrs=t.addrs,
                writes=t.writes,
                params=cfg.core_params,
            )
            for i, t in enumerate(traces)
        ]
        vaults = [vc for dev in self.devices for vc in dev.vaults]
        self.sampler: Optional[Sampler] = None
        if cfg.sample_interval is not None:
            self.sampler = Sampler(self.engine, cfg.sample_interval)
            self.sampler.probe(
                "queue_depth", lambda: sum(len(vc.queues) for vc in vaults)
            )
            self.sampler.probe(
                "buffer_occupancy",
                lambda: sum(len(vc.buffer) for vc in vaults if vc.buffer),
            )
            self.sampler.probe("host_outstanding", lambda: self.host.outstanding)
        #: observability tracer (repro.obs.Tracer); wiring installs its event
        #: hooks on the engine, host, links, vaults, schedulers, prefetchers
        #: and banks (counters need none: see repro.obs.system_counters)
        self.tracer = tracer
        if tracer is not None:
            tracer.wire_system(self)
        #: epoch-windowed time series (repro.obs.timeseries.TimeseriesSampler)
        self.timeseries = None
        if cfg.timeseries_epoch is not None:
            from repro.obs.timeseries import TimeseriesSampler  # local: keep
            # the unsampled build path free of the obs timeseries import

            self.timeseries = TimeseriesSampler(self.engine, epoch=cfg.timeseries_epoch)
            if self.fabric is None:
                self.timeseries.attach(self)
            else:
                self.timeseries.attach_fabric(self)
        self.monitor = None
        if cfg.integrity:
            from repro.sim.integrity import IntegrityMonitor  # local: keep the
            # default build path free of the integrity import

            self.monitor = IntegrityMonitor(self, crash_dump_dir=cfg.crash_dump_dir)
        self._ran = False

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Run to completion (all cores retire all trace records).

        With ``integrity`` enabled, any wedge, invariant violation or
        engine exception writes a crash dump and raises
        :class:`~repro.sim.integrity.IntegrityError` with the diagnosis
        attached (the campaign layer records it in the manifest).
        """
        if self._ran:
            raise RuntimeError("System.run() may only be called once")
        self._ran = True
        if self.monitor is None:
            return self._run_inner(max_events)
        from repro.sim.integrity import IntegrityError

        try:
            result = self._run_inner(max_events)
            self.monitor.check_final()
            return result
        except IntegrityError as exc:
            # Watchdog/invariant raises arrive undressed (no dump yet);
            # check_final raises fully dressed (dump_path set).
            if exc.dump_path is None:
                raise self.monitor.failed(exc) from None
            raise
        except Exception as exc:
            raise self.monitor.failed(exc) from exc

    def _run_inner(self, max_events: Optional[int] = None) -> SimulationResult:
        if self.config.stats_warmup_cycles is not None:
            self.engine.schedule(
                self.config.stats_warmup_cycles,
                self._warmup_boundary,
                priority=-10,
                weak=True,
            )
        if self.sampler is not None:
            self.sampler.start()
        if self.timeseries is not None:
            self.timeseries.start()
        for core in self.cores:
            core.start()
        self.engine.run(max_events=max_events)
        stuck = [c.core_id for c in self.cores if not c.done]
        if stuck:
            raise RuntimeError(
                f"simulation drained with unfinished cores {stuck}; "
                f"events={self.engine.events_fired}"
            )
        for dev in self.devices:
            dev.finalize()
        return self._collect()

    def _warmup_boundary(self) -> None:
        for dev in self.devices:
            dev.reset_statistics()
        self.host.reset_statistics()

    def _collect(self) -> SimulationResult:
        devices = self.devices
        host = self.host
        now = self.engine.now
        vaults = [vc for dev in devices for vc in dev.vaults]
        demand = sum(dev.demand_accesses for dev in devices)
        conflicts = sum(dev.row_conflicts for dev in devices)
        buf_hits = sum(dev.buffer_hits for dev in devices)
        accesses = demand + buf_hits
        # prefetch accuracies pool the raw used/unused counts across every
        # cube's vaults (a ratio-of-sums, not a mean of per-cube ratios)
        rows_used = rows_unused = lines_ins = lines_used = 0
        for vc in vaults:
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
        if self.fabric is not None and self.fabric.cubes > 1:
            # only real fabrics pay (and report) inter-cube hop energy
            breakdown["fabric_hops"] = host.hop_flits() * self.fabric.hop_energy_pj

        extra: Dict[str, Any] = {
            "events_fired": self.engine.events_fired,
            "core_stall_cycles": [c.stall_cycles for c in self.cores],
            "core_rob_stalls": [c.rob_stalls for c in self.cores],
            "core_mlp_stalls": [c.mlp_stalls for c in self.cores],
        }
        if self.hierarchy is not None:
            extra["llc_misses"] = self.hierarchy.llc_misses()
            extra["llc_hit_rate"] = self.hierarchy.l3.hit_rate()
        if self.sampler is not None:
            extra["samples"] = {
                name: {"mean": h.mean, "max": h.max, "n": h.n}
                for name, h in self.sampler.histograms().items()
            }
        # bank row-buffer outcome distribution (hit / empty / conflict)
        hits = empties = bank_conflicts = 0
        for vc in vaults:
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
            sum(vc.tsv_bus.utilization(now) for vc in vaults) / len(vaults)
            if now
            else 0.0
        )
        # scheme-specific decision breakdown (CAMPS's two trigger paths)
        pf0 = vaults[0].prefetcher
        if hasattr(pf0, "utilization_prefetches"):
            extra["utilization_prefetches"] = sum(
                vc.prefetcher.utilization_prefetches for vc in vaults
            )
            extra["conflict_prefetches"] = sum(
                vc.prefetcher.conflict_prefetches for vc in vaults
            )
        if hasattr(pf0, "degree"):
            extra["mmd_final_degrees"] = [vc.prefetcher.degree for vc in vaults]
        if host.faults_enabled:
            extra["link_faults"] = host.link_fault_summary()
        if self.tracer is not None:
            extra["trace_summary"] = self.tracer.summary()
        if self.timeseries is not None:
            extra["timeseries"] = self.timeseries.to_payload()
        if self.fabric is not None:
            extra["fabric"] = self._fabric_extra()
        return SimulationResult(
            scheme=self.config.scheme,
            workload=self.workload,
            cycles=now,
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
            energy_pj=sum(breakdown.values()),
            energy_breakdown=breakdown,
            link_utilization=host.link_utilization(),
            extra=extra,
        )

    def _fabric_extra(self) -> Dict[str, Any]:
        """``extra["fabric"]``: hop accounting, per-cube statistics, router
        forwarding counters and inter-cube link utilization."""
        host = self.host
        fabric = self.fabric
        per_cube = [
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
            for c, (dev, router) in enumerate(zip(self.devices, host.routers))
        ]
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
            "hop_flits": host.hop_flits(),
            "fabric_link_utilization": host.fabric_link_utilization(),
            "fabric_links": fabric_links,
            "per_cube": per_cube,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec = self.fabric.spec if self.fabric is not None else "1 cube"
        return (
            f"<System {spec} scheme={self.config.scheme} cores={len(self.cores)}>"
        )


def run_system(
    traces: List[Trace],
    scheme: str,
    workload: str = "custom",
    hmc: Optional[HMCConfig] = None,
    use_caches: bool = False,
    core_params: Optional[CoreParams] = None,
    scheme_kwargs: Optional[Dict[str, Any]] = None,
    tracer: Optional[Any] = None,
    integrity: bool = False,
    crash_dump_dir: Optional[str] = None,
) -> SimulationResult:
    """Build-and-run convenience wrapper (the main public entry point)."""
    cfg = SystemConfig(
        hmc=hmc or HMCConfig(),
        core_params=core_params or CoreParams(),
        scheme=scheme,
        use_caches=use_caches,
        integrity=integrity,
        crash_dump_dir=crash_dump_dir,
    )
    return System(
        traces, cfg, workload=workload, scheme_kwargs=scheme_kwargs, tracer=tracer
    ).run()
