"""Opt-in simulation integrity layer: watchdog, invariants, crash dumps.

Long campaign runs (repro.campaign) execute thousands of cells behind
per-cell timeouts.  A deterministic hang - a livelock where events keep
firing at one cycle, or a component that stops retiring requests - burns
the whole timeout, gets retried, and burns it again, all without a word of
diagnosis.  This module makes such failures loud and cheap instead:

* :class:`Watchdog` - a forward-progress monitor polled from the engine's
  hot loop every ``check_interval`` fired events.  If simulated time has
  not advanced for ``stall_polls`` consecutive polls, the run is wedged
  (real workloads always advance time within a few thousand events); the
  watchdog raises :class:`ForwardProgressError` with a histogram of the
  same-cycle callbacks naming the stuck component.
* :class:`InvariantChecker` - structural checks: queue occupancy within
  the configured bounds, prefetch-buffer occupancy within capacity, bank
  state-machine legality (ACT/PRE balance vs. the open row), and - after
  the run drains - request conservation (every issued request retired
  exactly once, no request left queued).
* :func:`crash_report` / :func:`write_crash_dump` - a JSON snapshot of
  engine state, per-vault queue depths, bank states and the last-K trace
  events, written on any violation or unhandled engine exception.
* :func:`command_timing_violations` - an independent DRAM timing check
  over the per-bank command logs of a ``record_commands=True`` run
  (tRCD, tRP, tRAS, tWR; tRRD, tFAW, one command per DRAM clock, tCCD and
  tWTR, which the model does not enforce, are reported too).  It reads
  the logs only and never calls the bank model it checks.
* :class:`IntegrityMonitor` - wires the above onto a built
  :class:`~repro.system.System` and converts any failure into a single
  :class:`IntegrityError` carrying a compact ``report`` (what the campaign
  manifest records) and the ``dump_path`` of the full snapshot.

Everything here is **off by default**.  With integrity disabled the engine
pays one falsy check per fired event and results are byte-identical to an
unmonitored run (``benchmarks/bench_fault_overhead.py`` holds the combined
faults+integrity plumbing under 2% overhead).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: environment fallback for the crash-dump directory
CRASH_DIR_ENV = "REPRO_CRASH_DIR"
_DEFAULT_CRASH_DIR = "crash_dumps"


class IntegrityError(RuntimeError):
    """A simulation integrity failure (wedge, invariant violation, or
    unhandled engine exception), with diagnosis attached.

    ``report`` is a compact JSON-safe diagnosis (reason, stuck component,
    violations) - small enough to travel through the campaign's worker
    pipe and land in the manifest's error record.  ``dump_path`` locates
    the full crash-dump snapshot on disk, when one was written.
    """

    def __init__(
        self,
        message: str,
        report: Optional[Dict[str, Any]] = None,
        dump_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.report: Dict[str, Any] = report or {}
        self.dump_path = dump_path


class ForwardProgressError(IntegrityError):
    """The watchdog found simulated time wedged (events firing, ``now``
    frozen) for ``stall_polls`` consecutive polls."""


class InvariantViolation(IntegrityError):
    """A structural invariant check failed (queue bounds, bank legality,
    or request conservation)."""


@dataclass(frozen=True)
class IntegrityConfig:
    """Tuning knobs for the integrity layer.

    ``check_interval`` is in *fired events*: the watchdog (and the bounds
    invariants riding on it) run once per that many callbacks, keeping the
    per-event cost of monitoring to one integer compare.  A wedge is
    declared after ``stall_polls`` polls without time advancing - i.e.
    ``check_interval * stall_polls`` events at one cycle, far beyond any
    legitimate same-cycle burst in this simulator.
    """

    check_interval: int = 4096  # events between watchdog polls
    stall_polls: int = 8  # unadvanced polls before declaring a wedge
    invariants: bool = True  # run structural checks at each poll + at end
    last_events: int = 64  # trace-event tail captured into crash dumps

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.stall_polls < 1:
            raise ValueError("stall_polls must be >= 1")
        if self.last_events < 0:
            raise ValueError("last_events must be non-negative")


class Watchdog:
    """Forward-progress monitor, polled from :meth:`Engine.run`.

    The engine calls :meth:`poll` every ``interval`` fired events (the
    engine owns the counting so its hot loop stays free of method calls on
    the common path).  Polling is O(1); diagnosis - sampling the heap for
    same-cycle callbacks - only happens when a wedge is declared.
    """

    __slots__ = ("engine", "config", "interval", "on_poll", "_last_now", "_stuck_polls")

    def __init__(self, engine: Any, config: Optional[IntegrityConfig] = None) -> None:
        self.engine = engine
        self.config = config or IntegrityConfig()
        self.interval = self.config.check_interval
        #: optional hook run at every poll (the monitor's bounds checks)
        self.on_poll: Optional[Callable[[int], None]] = None
        self._last_now = -1
        self._stuck_polls = 0

    def poll(self, now: int) -> None:
        """One watchdog tick; raises :class:`ForwardProgressError` when the
        simulation has been wedged at one cycle for ``stall_polls`` polls."""
        if now == self._last_now:
            self._stuck_polls += 1
            if self._stuck_polls >= self.config.stall_polls:
                diagnosis = self.diagnose()
                events = self._stuck_polls * self.interval
                stuck = diagnosis.get("stuck_component") or "unknown component"
                raise ForwardProgressError(
                    f"no forward progress: ~{events} events fired at cycle "
                    f"{now} without time advancing (stuck: {stuck})",
                    report=diagnosis,
                )
        else:
            self._last_now = now
            self._stuck_polls = 0
        cb = self.on_poll
        if cb is not None:
            cb(now)

    def diagnose(self) -> Dict[str, Any]:
        """Name the wedge: histogram the live heap callbacks scheduled at
        the current cycle and point at the most common one."""
        engine = self.engine
        now = engine.now
        histogram: Dict[str, int] = {}
        for entry in engine.live_events():
            if entry[0] != now:
                continue
            fn = entry[3]
            name = getattr(fn, "__qualname__", None) or repr(fn)
            histogram[name] = histogram.get(name, 0) + 1
        ranked = sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "reason": "forward_progress_stall",
            "now": now,
            "stuck_polls": self._stuck_polls,
            "events_per_poll": self.interval,
            "same_cycle_callbacks": dict(ranked[:10]),
            "stuck_component": ranked[0][0] if ranked else None,
        }


#: DDR3-1600 (1 KB page) limits the bank model does not declare, in
#: memory-bus cycles (nCK): ACT to ACT of another bank, the four-activate
#: window, column command to column command, and write data end to READ
DDR3_TRRD = 5
DDR3_TFAW = 24
DDR3_TCCD = 4
DDR3_TWTR = 6


def command_timing_violations(system: Any) -> Dict[str, int]:
    """Count DRAM timing-rule violations in a finished run's command logs.

    Per bank: ACTIVATE to a column command (READ, WRITE, ROW_FETCH,
    ROW_RESTORE) at least tRCD; PRECHARGE to ACTIVATE at least tRP;
    ACTIVATE to PRECHARGE at least tRAS; and PRECHARGE at least tWR after
    the write data of every WRITE since the row opened, taking the data to
    end no earlier than the WRITE cycle + tCL + tBurst (the TSV bus can
    only push it later, so this is a lower bound on the violations).  Per
    vault, across its banks, these are reported only, as the model leaves
    them out: :data:`DDR3_TRRD`, :data:`DDR3_TFAW`; ``cmd_bus``, each
    command beyond the first in one DRAM clock (one command bus per vault);
    :data:`DDR3_TCCD` between consecutive READ/WRITE commands; and
    :data:`DDR3_TWTR` from the latest WRITE data end (taken as for tWR, so
    again a lower bound) to a READ.
    """
    import math

    from repro.dram.commands import CommandKind

    t = system.config.hmc.timings
    trrd_cpu = math.ceil(DDR3_TRRD * t.ratio)
    tfaw_cpu = math.ceil(DDR3_TFAW * t.ratio)
    tccd_cpu = math.ceil(DDR3_TCCD * t.ratio)
    twtr_cpu = math.ceil(DDR3_TWTR * t.ratio)
    read, write = CommandKind.READ, CommandKind.WRITE
    column = {read, write, CommandKind.ROW_FETCH, CommandKind.ROW_RESTORE}
    counts = dict.fromkeys(
        ("tRCD", "tRP", "tRAS", "tWR", "tRRD", "tFAW", "cmd_bus", "tCCD", "tWTR"), 0
    )
    for device in system.devices:
        for vc in device.vaults:
            acts = []  # (cycle, bank) of every ACTIVATE in the vault, in order
            vault_log = sorted(
                (cmd for bank in vc.banks for cmd in bank.command_log),
                key=lambda c: c.cycle,
            )
            last_clock = last_column = write_end = None
            for cmd in vault_log:
                if cmd.kind is CommandKind.ACTIVATE:
                    acts.append((cmd.cycle, cmd.bank))
                clock = int(cmd.cycle // t.ratio)
                if clock == last_clock:
                    counts["cmd_bus"] += 1
                last_clock = clock
                if cmd.kind is read or cmd.kind is write:
                    if last_column is not None and cmd.cycle - last_column < tccd_cpu:
                        counts["tCCD"] += 1
                    last_column = cmd.cycle
                if cmd.kind is write:
                    end = cmd.cycle + t.tcl_cpu + t.tburst_cpu
                    write_end = max(write_end or end, end)
                elif (
                    cmd.kind is read
                    and write_end is not None
                    and cmd.cycle - write_end < twtr_cpu
                ):
                    counts["tWTR"] += 1
            for bank in vc.banks:
                act = pre = write_end = None
                for cmd in sorted(bank.command_log, key=lambda c: c.cycle):
                    cycle = cmd.cycle
                    if cmd.kind is CommandKind.ACTIVATE:
                        if pre is not None and cycle - pre < t.trp_cpu:
                            counts["tRP"] += 1
                        act = cycle
                    elif cmd.kind is CommandKind.PRECHARGE:
                        if act is not None and cycle - act < t.tras_cpu:
                            counts["tRAS"] += 1
                        if write_end is not None and cycle - write_end < t.twr_cpu:
                            counts["tWR"] += 1
                        pre, write_end = cycle, None
                    elif cmd.kind in column:
                        if act is not None and cycle - act < t.trcd_cpu:
                            counts["tRCD"] += 1
                        if cmd.kind is CommandKind.WRITE:
                            end = cycle + t.tcl_cpu + t.tburst_cpu
                            write_end = max(write_end or end, end)
            for i in range(1, len(acts)):
                (prev, prev_bank), (cycle, bank) = acts[i - 1], acts[i]
                if cycle - prev < trrd_cpu and bank != prev_bank:
                    counts["tRRD"] += 1
                if i >= 4 and cycle - acts[i - 4][0] < tfaw_cpu:
                    counts["tFAW"] += 1
    return counts


class InvariantChecker:
    """Structural invariant checks over a built :class:`~repro.system.System`
    (every vault of every cube).

    Each ``check_*`` method returns a list of human-readable violation
    strings (empty = clean) rather than raising, so the monitor can batch
    every violation into one report.
    """

    def __init__(self, system: Any, check_bank_legality: bool = True) -> None:
        self.system = system
        # ACT/PRE balance is only meaningful when the command counters were
        # never reset mid-run (a warmup boundary zeroes them).
        self.check_bank_legality = check_bank_legality

    def _vaults(self):
        """``(label, vault)`` over every cube; labels carry a ``cubeN.``
        prefix only when there is more than one cube."""
        devices = self.system.devices
        for c, device in enumerate(devices):
            prefix = f"cube{c}." if len(devices) > 1 else ""
            for vc in device.vaults:
                yield f"{prefix}vault{vc.vault_id}", vc

    def check_bounds(self) -> List[str]:
        """Occupancy bounds + bank state-machine legality (any time)."""
        violations: List[str] = []
        for label, vc in self._vaults():
            q = vc.queues
            if len(q.reads) > q.read_depth:
                violations.append(
                    f"{label}: read queue {len(q.reads)} > depth {q.read_depth}"
                )
            if len(q.writes) > q.write_depth:
                violations.append(
                    f"{label}: write queue {len(q.writes)} > depth {q.write_depth}"
                )
            if vc.buffer is not None and len(vc.buffer) > vc.buffer.capacity:
                violations.append(
                    f"{label}: prefetch buffer {len(vc.buffer)} "
                    f"> capacity {vc.buffer.capacity}"
                )
            if self.check_bank_legality:
                for bank in vc.banks:
                    balance = bank.acts - bank.pres
                    expect = 1 if bank.open_row is not None else 0
                    if balance != expect:
                        violations.append(
                            f"{label}.bank{bank.bank_id}: illegal state - "
                            f"acts-pres={balance} but open_row={bank.open_row!r}"
                        )
        return violations

    def check_conservation(self) -> List[str]:
        """Request conservation - only valid after the run has drained:
        every issued request must have retired exactly once, leaving no
        request outstanding at the host or resident in any queue."""
        violations: List[str] = []
        host = self.system.host
        if host.outstanding != 0:
            violations.append(
                f"host: {host.outstanding} requests issued but never retired"
            )
        for label, vc in self._vaults():
            if len(vc.queues) != 0:
                q = vc.queues
                violations.append(
                    f"{label}: {len(q)} requests left queued after drain "
                    f"(reads={len(q.reads)} writes={len(q.writes)} "
                    f"staged={len(q.staging)})"
                )
        return violations


def crash_report(
    system: Any,
    error: Optional[BaseException] = None,
    violations: Optional[List[str]] = None,
    last_events: int = 64,
) -> Dict[str, Any]:
    """Full JSON-safe snapshot of a (possibly wedged) simulation.

    Captures everything a post-mortem needs without re-running: engine
    state and a sample of the next scheduled callbacks, per-vault queue
    depths and open-bank states in every cube, host counters, the error
    and any invariant violations, plus the last-K trace events when a
    tracer is attached.
    """
    engine = system.engine
    report: Dict[str, Any] = {
        "kind": "repro.crash_dump",
        "version": 1,
        "workload": system.workload,
        "scheme": system.config.scheme,
        "engine": {
            "now": engine.now,
            "events_fired": engine.events_fired,
            "pending": engine.pending,
            "heap_size": len(engine._heap),
        },
    }
    next_events = []
    for time, priority, _seq, fn, *rest in sorted(engine.live_events())[:10]:
        next_events.append(
            {
                "time": time,
                "priority": priority,
                "weak": len(rest) == 2,
                "fn": getattr(fn, "__qualname__", None) or repr(fn),
            }
        )
    report["engine"]["next_events"] = next_events
    if error is not None:
        report["error"] = {
            "type": type(error).__name__,
            "message": str(error),
        }
        diagnosis = getattr(error, "report", None)
        if diagnosis:
            report["diagnosis"] = diagnosis
    if violations:
        report["violations"] = list(violations)
    host = system.host
    report["host"] = {
        "outstanding": host.outstanding,
        "reads_sent": host.stats.counters["reads_sent"].value,
        "writes_sent": host.stats.counters["writes_sent"].value,
        "completions": host.stats.counters["completions"].value,
    }
    if host.faults_enabled:
        report["link_faults"] = host.link_fault_summary()
    vaults = []
    for c, device in enumerate(system.devices):
        for vc in device.vaults:
            vaults.append(_vault_snapshot(c, vc, engine.now))
    report["vaults"] = vaults
    tracer = getattr(system, "tracer", None)
    if tracer is not None and last_events > 0 and tracer.events:
        report["last_trace_events"] = [
            e.to_dict() for e in tracer.events[-last_events:]
        ]
    return report


def _vault_snapshot(cube: int, vc: Any, now: int) -> Dict[str, Any]:
    """One vault's queue depths and open-bank states for a crash dump."""
    q = vc.queues
    open_banks = [
        {
            "bank": b.bank_id,
            "open_row": b.open_row,
            "busy_until": b.busy_until,
        }
        for b in vc.banks
        if b.open_row is not None or b.busy_until > now
    ]
    return {
        "cube": cube,
        "vault": vc.vault_id,
        "reads": len(q.reads),
        "writes": len(q.writes),
        "staging": len(q.staging),
        "buffer_occupancy": len(vc.buffer) if vc.buffer is not None else 0,
        "open_banks": open_banks,
    }


def write_crash_dump(report: Dict[str, Any], directory: Optional[str] = None) -> str:
    """Write one crash report as pretty-printed JSON; returns the path.

    The directory defaults to ``$REPRO_CRASH_DIR`` or ``crash_dumps/`` under
    the working directory.  Filenames are derived from the run's identity
    (workload, scheme, wedge cycle) with a numeric suffix on collision, so
    concurrent campaign workers never clobber each other.
    """
    base = Path(directory or os.environ.get(CRASH_DIR_ENV) or _DEFAULT_CRASH_DIR)
    base.mkdir(parents=True, exist_ok=True)
    workload = str(report.get("workload", "run")).replace("/", "_")
    scheme = str(report.get("scheme", "scheme")).replace("/", "_")
    cycle = report.get("engine", {}).get("now", 0)
    stem = f"crash_{workload}_{scheme}_cycle{cycle}"
    path = base / f"{stem}.json"
    n = 1
    while path.exists():
        path = base / f"{stem}_{n}.json"
        n += 1
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(report, indent=2, default=str))
    tmp.replace(path)
    return str(path)


class IntegrityMonitor:
    """Wires watchdog + invariants onto a System and owns failure handling.

    Installation happens at construction: the watchdog is attached as
    ``engine.watchdog`` (the engine polls it from the hot loop), and the
    bounds invariants ride on the watchdog's poll.  :meth:`check_final`
    runs the post-drain conservation checks; :meth:`failed` converts any
    exception into an :class:`IntegrityError` with a crash dump written
    and a compact diagnosis attached.
    """

    def __init__(
        self,
        system: Any,
        config: Optional[IntegrityConfig] = None,
        crash_dump_dir: Optional[str] = None,
    ) -> None:
        self.system = system
        self.config = config or IntegrityConfig()
        self.crash_dump_dir = crash_dump_dir
        self.checker = InvariantChecker(
            system,
            check_bank_legality=system.config.stats_warmup_cycles is None,
        )
        self.watchdog = Watchdog(system.engine, self.config)
        if self.config.invariants:
            self.watchdog.on_poll = self._poll_invariants
        system.engine.watchdog = self.watchdog

    def _poll_invariants(self, now: int) -> None:
        violations = self.checker.check_bounds()
        if violations:
            raise InvariantViolation(
                f"invariant violation at cycle {now}: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""),
                report={
                    "reason": "invariant_violation",
                    "now": now,
                    "violations": violations,
                },
            )

    def check_final(self) -> None:
        """Post-drain checks; raises a fully-dressed IntegrityError (crash
        dump written, diagnosis attached) on any violation."""
        if not self.config.invariants:
            return
        violations = self.checker.check_bounds() + self.checker.check_conservation()
        if violations:
            exc = InvariantViolation(
                f"post-run invariant violation: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""),
                report={
                    "reason": "invariant_violation",
                    "now": self.system.engine.now,
                    "violations": violations,
                },
            )
            raise self.failed(exc)

    def failed(self, exc: BaseException) -> IntegrityError:
        """Dress an exception for reporting: write the crash dump, build the
        compact diagnosis, and return the IntegrityError to raise."""
        report = getattr(exc, "report", None) or {}
        violations = report.get("violations")
        snapshot = crash_report(
            self.system,
            error=exc,
            violations=violations,
            last_events=self.config.last_events,
        )
        dump_path = write_crash_dump(snapshot, self.crash_dump_dir)
        diagnosis: Dict[str, Any] = {
            "reason": report.get("reason")
            or ("engine_exception" if not isinstance(exc, IntegrityError) else "integrity"),
            "error_type": type(exc).__name__,
            "message": str(exc),
            "now": self.system.engine.now,
            "events_fired": self.system.engine.events_fired,
            "crash_dump": dump_path,
        }
        if report.get("stuck_component"):
            diagnosis["stuck_component"] = report["stuck_component"]
        if violations:
            diagnosis["violations"] = violations
        if isinstance(exc, IntegrityError):
            exc.report = diagnosis
            exc.dump_path = dump_path
            return exc
        err = IntegrityError(
            f"simulation integrity failure: {exc}", report=diagnosis, dump_path=dump_path
        )
        return err
