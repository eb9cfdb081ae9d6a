"""The Tracer: near-zero-overhead structured event recording.

Design rules, in priority order:

1. **Cost nothing when absent.**  Every instrumented component holds a
   ``tracer`` attribute that defaults to ``None``; each hook site is guarded
   by a single ``if self.tracer is not None`` check, so an un-traced
   simulation does exactly one attribute load + identity test per hook.
   ``benchmarks/bench_obs_overhead.py`` holds this to within noise of the
   uninstrumented engine loop.
2. **Cost little when present.**  ``_push`` appends one ``__slots__`` object
   to a list; no dict merging, no formatting, no I/O.  Export happens after
   the run.
3. **Answer "why".**  Prefetch events carry the provenance tag of the
   decision path that issued them (utilization- vs conflict-triggered for
   CAMPS), so a trace is a complete audit log of the scheme's choices.

Wiring is duck-typed: :meth:`Tracer.wire_system` walks a built
:class:`~repro.system.System` and installs itself on the engine, host,
vault controllers, schedulers, prefetchers and banks, then registers the
existing statistics counters into the hierarchical
:class:`~repro.obs.counters.CounterRegistry` (device → vault → bank).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs import events as ev
from repro.obs.counters import CounterRegistry
from repro.obs.events import TraceEvent

#: CommandKind.value -> trace event kind (see repro.dram.commands)
_COMMAND_KINDS: Dict[str, str] = {
    "ACT": ev.BANK_ACT,
    "PRE": ev.BANK_PRE,
    "RD": ev.BANK_READ,
    "WR": ev.BANK_WRITE,
    "ROWF": ev.TSV_XFER,
    "ROWR": ev.TSV_XFER,
    "REF": ev.BANK_REFRESH,
}


class Tracer:
    """Collects :class:`TraceEvent` records plus a counter registry.

    ``capacity`` bounds memory: once the event list is full further events
    are counted in ``dropped`` instead of stored (the counters keep
    aggregating regardless).  ``engine_spans`` additionally records one
    event per engine callback fired - complete visibility, high volume -
    and is off by default.
    """

    def __init__(self, capacity: int = 2_000_000, engine_spans: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.engine_spans = engine_spans
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self.counters = CounterRegistry()
        self.meta: Dict[str, Any] = {}
        self._engine = None  # set by wire_system; used for summary()

    # ------------------------------------------------------------------
    # Core emit path
    # ------------------------------------------------------------------
    def _push(
        self,
        kind: str,
        time: int,
        dur: int = 0,
        vault: int = -1,
        bank: int = -1,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(kind, time, dur, vault, bank, args))

    # ------------------------------------------------------------------
    # Typed hooks (thin wrappers so call sites stay one-liners)
    # ------------------------------------------------------------------
    def bank_command(self, vault: int, bank: int, command: Any, row: int, time: int) -> None:
        """One DRAM command primitive (``command`` is a CommandKind)."""
        kind = _COMMAND_KINDS.get(command.value, ev.BANK_ACT)
        self._push(kind, time, vault=vault, bank=bank, args={"row": row})

    def bank_conflict(
        self, vault: int, bank: int, open_row: int, new_row: int, time: int
    ) -> None:
        self._push(
            ev.BANK_CONFLICT,
            time,
            vault=vault,
            bank=bank,
            args={"open_row": open_row, "row": new_row},
        )

    def rut_threshold(
        self, vault: int, bank: int, row: int, utilization: int, time: int
    ) -> None:
        self._push(
            ev.RUT_THRESHOLD,
            time,
            vault=vault,
            bank=bank,
            args={"row": row, "utilization": utilization},
        )

    def ct_insert(self, vault: int, bank: int, row: int, time: int) -> None:
        self._push(ev.CT_INSERT, time, vault=vault, bank=bank, args={"row": row})

    def ct_hit(self, vault: int, bank: int, row: int, time: int) -> None:
        self._push(ev.CT_HIT, time, vault=vault, bank=bank, args={"row": row})

    def ct_evict(self, vault: int, bank: int, row: int, time: int) -> None:
        self._push(ev.CT_EVICT, time, vault=vault, bank=bank, args={"row": row})

    def prefetch_issue(
        self, vault: int, bank: int, row: int, provenance: str, time: int
    ) -> None:
        self._push(
            ev.PF_ISSUE,
            time,
            vault=vault,
            bank=bank,
            args={"row": row, "provenance": provenance},
        )

    def prefetch_fill(
        self, vault: int, bank: int, row: int, provenance: str, start: int, finish: int
    ) -> None:
        """The row streaming into the buffer (a span: start → finish)."""
        self._push(
            ev.PF_FILL,
            start,
            dur=max(0, finish - start),
            vault=vault,
            bank=bank,
            args={"row": row, "provenance": provenance},
        )

    def prefetch_hit(
        self,
        vault: int,
        bank: int,
        row: int,
        provenance: str,
        time: int,
        in_flight: bool = False,
    ) -> None:
        self._push(
            ev.PF_HIT,
            time,
            vault=vault,
            bank=bank,
            args={"row": row, "provenance": provenance, "in_flight": in_flight},
        )

    def prefetch_evict(
        self,
        vault: int,
        bank: int,
        row: int,
        provenance: str,
        used: bool,
        utilization: int,
        time: int,
    ) -> None:
        self._push(
            ev.PF_EVICT,
            time,
            vault=vault,
            bank=bank,
            args={
                "row": row,
                "provenance": provenance,
                "used": used,
                "utilization": utilization,
            },
        )

    def buffer_replace(
        self,
        vault: int,
        new_bank: int,
        new_row: int,
        victim_bank: int,
        victim_row: int,
        policy: str,
        time: int,
    ) -> None:
        """A replacement decision: which resident row made room for which."""
        self._push(
            ev.BUF_REPLACE,
            time,
            vault=vault,
            bank=new_bank,
            args={
                "row": new_row,
                "victim_bank": victim_bank,
                "victim_row": victim_row,
                "policy": policy,
            },
        )

    def link_tx(
        self, link: int, direction: str, nbytes: int, start: int, finish: int
    ) -> None:
        self._push(
            ev.LINK_TX,
            start,
            dur=max(0, finish - start),
            args={"link": link, "direction": direction, "bytes": nbytes},
        )

    def link_retry(self, direction: str, replays: int, nbytes: int, time: int) -> None:
        """One packet's error episode: NAK'd and replayed ``replays`` times."""
        self._push(
            ev.LINK_RETRY,
            time,
            args={"direction": direction, "replays": replays, "bytes": nbytes},
        )

    def link_retrain(self, direction: str, time: int) -> None:
        """Bounded retries exhausted: the link paid a retraining penalty."""
        self._push(ev.LINK_RETRAIN, time, args={"direction": direction})

    def sched_drain(self, vault: int, draining: bool, pending_writes: int, time: int) -> None:
        self._push(
            ev.SCHED_DRAIN,
            time,
            vault=vault,
            args={"draining": draining, "pending_writes": pending_writes},
        )

    def engine_fire(self, time: int, fn: Callable[..., Any]) -> None:
        """One engine callback fired (only recorded in ``engine_spans`` mode)."""
        name = getattr(fn, "__qualname__", None) or repr(fn)
        self._push(ev.ENGINE_FIRE, time, args={"fn": name})

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def wire_system(self, system: Any) -> None:
        """Install this tracer on every instrumented component of a built
        (not yet run) :class:`~repro.system.System` and register the
        component counters into the device → vault → bank registry."""
        engine = system.engine
        engine.tracer = self
        self._engine = engine
        self.meta.setdefault("scheme", system.config.scheme)
        self.meta.setdefault("workload", system.workload)

        device = system.device
        host = system.host
        host.tracer = self

        dev_scope = self.counters.scope("device")
        dev_scope.register("events_fired", lambda: engine.events_fired)
        dev_scope.register("cycles", lambda: engine.now)
        dev_scope.register("crossbar_traversals", lambda: device.crossbar.traversals)
        host_scope = self.counters.scope("host")
        for name, counter in host.stats.counters.items():
            host_scope.register(name, counter)
        for link in host.links:
            ls = host_scope.scope(f"link{link.link_id}")
            for d in (link.request, link.response):
                d.tracer = self
                direction = d.name.rsplit(".", 1)[-1]
                ls.register(f"{direction}_packets", (lambda d=d: d.packets))
                ls.register(f"{direction}_bytes", (lambda d=d: d.bytes_sent))
                if d.retry is not None:
                    ls.register(f"{direction}_replays", (lambda d=d: d.retry.replays))
                    ls.register(f"{direction}_retrains", (lambda d=d: d.retry.retrains))

        for vc in device.vaults:
            vc.tracer = self
            vc.scheduler.tracer = self
            vc.prefetcher.tracer = self
            for bank in vc.banks:
                bank.tracer = self
            vs = self.counters.scope(f"vault{vc.vault_id}")
            for name, counter in vc.stats.counters.items():
                vs.register(name, counter)
            vs.register("sched_row_hit_issues", lambda vc=vc: vc.scheduler.row_hit_issues)
            vs.register("sched_fcfs_issues", lambda vc=vc: vc.scheduler.fcfs_issues)
            vs.register("sched_drain_entries", lambda vc=vc: vc.scheduler.drain_entries)
            vs.register("tsv_busy_cycles", lambda vc=vc: vc.tsv_bus.busy_cycles)
            vs.register("prefetches_issued", lambda vc=vc: vc.prefetcher.prefetches_issued)
            for stat_name, fn in vc.prefetcher.observed_stats().items():
                vs.register(stat_name, fn)
            for bank in vc.banks:
                bs = vs.scope(f"bank{bank.bank_id}")
                for attr in ("acts", "pres", "reads", "writes", "conflicts", "hits", "empties"):
                    bs.register(attr, (lambda b=bank, a=attr: getattr(b, a)))

    def wire_fabric(self, fsys: Any) -> None:
        """Install this tracer on a built (not yet run)
        :class:`~repro.system.System` with a fabric.

        The registry is kept bounded for 8-cube fabrics: per-link counters
        for host and inter-cube links, per-cube aggregates plus router
        forwarding counters - no per-bank fan-out (32 vaults x 16 banks x 8
        cubes would dwarf every other scope combined).
        """
        engine = fsys.engine
        engine.tracer = self
        self._engine = engine
        self.meta.setdefault("scheme", fsys.config.scheme)
        self.meta.setdefault("workload", fsys.workload)
        self.meta.setdefault("topology", fsys.fabric.spec)

        host = fsys.host
        host.tracer = self
        dev_scope = self.counters.scope("device")
        dev_scope.register("events_fired", lambda: engine.events_fired)
        dev_scope.register("cycles", lambda: engine.now)
        host_scope = self.counters.scope("host")
        for name, counter in host.stats.counters.items():
            host_scope.register(name, counter)
        for link in (*host.links, *host.fabric_links):
            ls = host_scope.scope(f"link{link.link_id}")
            for d in (link.request, link.response):
                d.tracer = self
                direction = d.name.rsplit(".", 1)[-1]
                ls.register(f"{direction}_packets", (lambda d=d: d.packets))
                ls.register(f"{direction}_bytes", (lambda d=d: d.bytes_sent))
                if d.retry is not None:
                    ls.register(f"{direction}_replays", (lambda d=d: d.retry.replays))
                    ls.register(f"{direction}_retrains", (lambda d=d: d.retry.retrains))

        for c, device in enumerate(fsys.devices):
            router = host.routers[c]
            cs = self.counters.scope(f"cube{c}")
            cs.register("demand_accesses", (lambda dev=device: dev.demand_accesses))
            cs.register("row_conflicts", (lambda dev=device: dev.row_conflicts))
            cs.register("buffer_hits", (lambda dev=device: dev.buffer_hits))
            cs.register(
                "prefetches_issued", (lambda dev=device: dev.prefetches_issued())
            )
            cs.register(
                "crossbar_traversals", (lambda dev=device: dev.crossbar.traversals)
            )
            cs.register("router_local_requests", (lambda r=router: r.local_requests))
            cs.register(
                "router_forwarded_requests", (lambda r=router: r.forwarded_requests)
            )
            cs.register(
                "router_forwarded_responses",
                (lambda r=router: r.forwarded_responses),
            )
            cs.register("router_hop_flits", (lambda r=router: r.hop_flits))
            for vc in device.vaults:
                vc.tracer = self
                vc.scheduler.tracer = self
                vc.prefetcher.tracer = self
                for bank in vc.banks:
                    bank.tracer = self

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def event_counts(self) -> Dict[str, int]:
        """Recorded events per kind (display order, zero-kinds omitted)."""
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return {k: counts[k] for k in ev.ALL_KINDS if k in counts}

    def provenance_counts(self) -> Dict[str, int]:
        """Issued prefetches per provenance tag."""
        counts: Dict[str, int] = {}
        for e in self.events:
            if e.kind == ev.PF_ISSUE and e.args:
                tag = e.args.get("provenance", "?")
                counts[tag] = counts.get(tag, 0) + 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """Compact end-of-run digest (lands in SimulationResult.extra)."""
        out: Dict[str, Any] = {
            "events_recorded": len(self.events),
            "events_dropped": self.dropped,
            "by_kind": self.event_counts(),
            "prefetch_provenance": self.provenance_counts(),
        }
        out.update(self.meta)
        if self._engine is not None and self._engine.wall_seconds:
            out["engine_events_per_sec"] = round(self._engine.events_per_sec)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer events={len(self.events)} dropped={self.dropped} "
            f"counters={len(self.counters)}>"
        )
