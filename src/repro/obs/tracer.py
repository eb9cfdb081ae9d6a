"""The Tracer: near-zero-overhead structured event recording.

Design rules, in priority order:

1. **Cost nothing when absent.**  Instrumented components never test for a
   tracer on their hot paths: each hook site calls a per-site emit
   attribute that wiring rebinds to a bound tracer method, and that is
   :func:`repro.obs.hooks.noop` otherwise (the contract is documented in
   :mod:`repro.obs.hooks`).  The engine hoists its one ``engine_spans``
   check out of the run loop.  ``benchmarks/bench_obs_overhead.py`` holds
   an un-traced run to within noise of the uninstrumented engine loop.
2. **Cost little when present.**  ``_push`` appends one ``__slots__`` object
   to a list; no dict merging, no formatting, no I/O.  Export happens after
   the run.
3. **Answer "why".**  Prefetch events carry the provenance tag of the
   decision path that issued them (utilization- vs conflict-triggered for
   CAMPS), so a trace is a complete audit log of the scheme's choices.

Wiring is duck-typed: :meth:`Tracer.wire_system` walks a built
:class:`~repro.system.System` and installs the tracer's hooks on the engine,
host, links, vault controllers, schedulers, prefetchers and banks.  Counter
registration lives apart, in :func:`~repro.obs.counters.system_counters`:
:attr:`Tracer.counters` is that function's registry for the wired system,
and a RunReport builds the same registry itself, traced or not.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs import events as ev
from repro.obs.counters import CounterRegistry, system_counters
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
    """Collects :class:`TraceEvent` records; carries the wired system's
    counter registry for the text summary and the exporters.

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
        (not yet run) :class:`~repro.system.System` - engine, host, host and
        inter-cube link directions, and in every cube the vault controllers,
        schedulers, prefetchers and banks - and fill :attr:`counters` from
        :func:`~repro.obs.counters.system_counters`."""
        engine = system.engine
        engine.tracer = self
        self._engine = engine
        self.meta.setdefault("scheme", system.config.scheme)
        self.meta.setdefault("workload", system.workload)
        if system.fabric is not None:
            self.meta.setdefault("topology", system.fabric.spec)

        host = system.host
        host.tracer = self
        for link in (*host.links, *host.fabric_links):
            link.request.tracer = self
            link.response.tracer = self
        for device in system.devices:
            for vc in device.vaults:
                vc.tracer = self
                vc.scheduler.tracer = self
                vc.prefetcher.tracer = self
                for bank in vc.banks:
                    bank.tracer = self
        self.counters = system_counters(system)

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
