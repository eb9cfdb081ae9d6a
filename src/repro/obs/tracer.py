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

``Tracer(engine_spans=True)`` is the simulator's one host-time attribution:
:meth:`Tracer.host_time` splits an engine run's wall time by subsystem, the
callbacks' owner modules, with the prefetch engine's hooks timed apart
(``python -m repro profile`` prints it).  It costs time on every event, so
it is opt-in; results and ``events_fired`` are the same with it on or off.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

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

#: ``repro`` subpackage owning a callback -> its host-time subsystem; a
#: callback from any other module is charged to its module name
_SUBSYSTEMS: Dict[str, str] = {
    "vault": "vault",
    "core": "prefetcher",
    "cpu": "core",
    "hmc": "host",
    "interconnect": "host",
    "fabric": "host",
}


def _subsystem(fn: Callable[..., Any]) -> str:
    """Host-time subsystem of one callback function, from its owner module."""
    module = getattr(fn, "__module__", None) or repr(fn)
    package, _, rest = module.partition(".")
    if package == "repro" and rest:
        return _SUBSYSTEMS.get(rest.partition(".")[0], module)
    return module


class Tracer:
    """Collects :class:`TraceEvent` records; carries the wired system's
    counter registry for the text summary and the exporters.

    ``capacity`` bounds memory: once the event list is full further events
    are counted in ``dropped`` instead of stored (the counters keep
    aggregating regardless).  ``engine_spans`` additionally splits the
    engine run's host time by subsystem (see the module docstring and
    :meth:`host_time`); it is off by default.
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
        self._engine = None  # set by wire_host_time; used for summary()
        # engine_spans split: host ns and events per subsystem, the
        # subsystem of each callback function seen, and the subsystem
        # charged since the perf_counter_ns mark
        self._span_ns: Dict[str, int] = defaultdict(int)
        self._span_events: Dict[str, int] = defaultdict(int)
        self._owners: Dict[Any, str] = {}
        self._span_sub: Optional[str] = None
        self._span_mark = 0

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
        """The engine is about to call ``fn`` (``engine_spans`` mode only).

        Charges the host time since the previous callback started to that
        callback's subsystem.  The mark is taken again on the way out, so
        this bookkeeping itself stays in the ``engine`` bucket.
        """
        start = perf_counter_ns()
        sub = self._span_sub
        if sub is not None:
            self._span_ns[sub] += start - self._span_mark
        key = getattr(fn, "__func__", fn)
        sub = self._owners.get(key)
        if sub is None:
            sub = self._owners[key] = _subsystem(key)
        self._span_events[sub] += 1
        self._span_sub = sub
        self._span_mark = perf_counter_ns()

    def timed(self, subsystem: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so the host time inside it is charged to
        ``subsystem`` rather than to the callback that calls it; each call
        counts as one of ``subsystem``'s events.  Wrappers nest."""
        ns = self._span_ns
        events = self._span_events

        def timed_call(*args: Any) -> Any:
            start = perf_counter_ns()
            outer = self._span_sub
            if outer is not None:
                ns[outer] += start - self._span_mark
            self._span_sub = subsystem
            self._span_mark = start
            events[subsystem] += 1
            out = fn(*args)
            end = perf_counter_ns()
            ns[subsystem] += end - self._span_mark
            self._span_sub = outer
            self._span_mark = end
            return out

        return timed_call

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def wire_host_time(self, system: Any) -> None:
        """Install this tracer on the engine and every vault controller of a
        built (not yet run) :class:`~repro.system.System` only: all the
        ``engine_spans`` split needs, with no bank, link or host events
        recorded to distort it.  :meth:`host_time` assumes one
        ``Engine.run`` (what ``System.run`` makes): the host time between
        two runs would be charged to the last callback of the first."""
        system.engine.tracer = self
        self._engine = system.engine
        for device in system.devices:
            for vc in device.vaults:
                vc.tracer = self

    def wire_system(self, system: Any) -> None:
        """Install this tracer on every instrumented component of a built
        (not yet run) :class:`~repro.system.System` - engine, host, host and
        inter-cube link directions, and in every cube the vault controllers,
        schedulers, prefetchers and banks - and fill :attr:`counters` from
        :func:`~repro.obs.counters.system_counters`."""
        self.wire_host_time(system)
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

    def host_time(self) -> Dict[str, Dict[str, float]]:
        """The ``engine_spans`` split: ``{subsystem: {"seconds", "events"}}``
        by descending seconds (``prefetcher`` events are its timed hook
        calls, which run inside ``vault`` events).  Once wired to a system,
        an ``engine`` bucket holds what is left of ``Engine.wall_seconds``
        (the loop around the first and last callbacks plus this split's own
        bookkeeping), so the buckets sum to the engine's wall time."""
        split: Dict[str, Dict[str, float]] = {
            sub: {"seconds": self._span_ns.get(sub, 0) / 1e9, "events": n}
            for sub, n in self._span_events.items()
        }
        if self._engine is not None:
            charged = sum(row["seconds"] for row in split.values())
            split["engine"] = {
                "seconds": self._engine.wall_seconds - charged,
                "events": 0,
            }
        return dict(sorted(split.items(), key=lambda kv: -kv[1]["seconds"]))

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
        if self.engine_spans:
            out["host_time"] = self.host_time()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer events={len(self.events)} dropped={self.dropped} "
            f"counters={len(self.counters)}>"
        )


def profile_run(system: Any) -> Tuple[Any, Dict[str, Any]]:
    """Run a built system with the host-time split on (wired by
    :meth:`Tracer.wire_host_time`); returns the result and the payload
    ``repro profile --json`` prints."""
    tracer = Tracer(engine_spans=True)
    tracer.wire_host_time(system)
    result = system.run()
    return result, {
        "cycles": result.cycles,
        "events_fired": system.engine.events_fired,
        "wall_seconds": system.engine.wall_seconds,
        "subsystems": tracer.host_time(),
    }
