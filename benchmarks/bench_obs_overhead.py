"""Overhead check for the observability hooks (repro.obs).

The tracer's design contract is "cost nothing when absent": every hook site
is a single ``if self.tracer is not None`` test.  This bench times the same
work three ways -

* ``off``    - no tracer attached (the default for every experiment),
* ``on``     - tracer attached, engine spans off (the ``--trace`` CLI path),
* ``spans``  - tracer attached with the per-callback host-time split,

first on a pure engine event chain (the tightest loop in the simulator,
worst case for per-event overhead) and then on a small end-to-end system
run.  The disabled-tracer ratio is asserted; the enabled ratios are printed
for information (recording events legitimately costs time).

Run standalone (``python benchmarks/bench_obs_overhead.py``) or under
pytest.  Timings use min-of-repeats to suppress scheduler noise; the
assertion bound is deliberately loose (shared CI boxes jitter by more than
the effect being measured).
"""

from __future__ import annotations

import timeit

from repro.hmc.config import HMCConfig
from repro.obs import Tracer
from repro.sim.engine import Engine
from repro.system import System, SystemConfig
from repro.workloads.synthetic import generate_trace

#: generous bound for "no tracer attached" overhead; the true cost is one
#: attribute load + identity test per run() call, i.e. well under 1%
DISABLED_OVERHEAD_LIMIT = 1.05

CHAIN_EVENTS = 20_000
ENGINE_REPEATS = 7
SYSTEM_REFS = 400


def _engine_chain(tracer) -> None:
    eng = Engine()
    if tracer is not None:
        eng.tracer = tracer

    def chain(n):
        if n:
            eng.schedule(1, chain, n - 1)

    eng.schedule(0, chain, CHAIN_EVENTS)
    eng.run()


def _system_run(tracer) -> None:
    traces = [generate_trace("gems", SYSTEM_REFS, seed=i, core_id=i) for i in range(2)]
    cfg = SystemConfig(
        hmc=HMCConfig(vaults=4, banks_per_vault=4, pf_buffer_entries=4),
        scheme="camps-mod",
    )
    System(traces, cfg, tracer=tracer).run()


def _best(fn, repeats: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def measure():
    """Return {workload: {mode: seconds}} for the three tracer modes."""
    return {
        "engine-chain": {
            "off": _best(lambda: _engine_chain(None), ENGINE_REPEATS),
            "on": _best(lambda: _engine_chain(Tracer()), ENGINE_REPEATS),
            "spans": _best(
                lambda: _engine_chain(Tracer(engine_spans=True)), ENGINE_REPEATS
            ),
        },
        "system-run": {
            "off": _best(lambda: _system_run(None), 3),
            "on": _best(lambda: _system_run(Tracer()), 3),
            "spans": _best(lambda: _system_run(Tracer(engine_spans=True)), 3),
        },
    }


def report(results) -> str:
    lines = ["tracer overhead (min-of-repeats, ratio vs no tracer):"]
    for workload, times in results.items():
        base = times["off"]
        lines.append(f"  {workload}")
        for mode in ("off", "on", "spans"):
            ratio = times[mode] / base if base else float("nan")
            lines.append(f"    {mode:<6} {times[mode] * 1e3:8.2f} ms  {ratio:5.2f}x")
    return "\n".join(lines)


def test_hook_guard_is_free_in_engine_loop():
    """The engine hot loop's hook cost must stay within the contract bound.

    A pure event chain has no instrumented components, so with spans off an
    attached tracer and ``tracer=None`` execute the exact same per-event
    work - the only difference is the hoisted guard.  Their ratio therefore
    bounds the cost of the no-op hook pattern itself.
    """
    results = measure()
    print()
    print(report(results))
    times = results["engine-chain"]
    ratio = times["on"] / times["off"]
    assert ratio <= DISABLED_OVERHEAD_LIMIT, (
        f"engine hook overhead {ratio:.3f}x exceeds "
        f"{DISABLED_OVERHEAD_LIMIT:.2f}x bound"
    )


def test_enabled_tracer_records_without_blowup():
    """With a tracer attached (spans off) a system run still completes,
    records events, and slows down by less than an order of magnitude."""
    t = Tracer()
    _system_run(t)
    assert len(t.events) > 0
    off = _best(lambda: _system_run(None), 3)
    on = _best(lambda: _system_run(Tracer()), 3)
    ratio = on / off
    assert ratio < 10.0, f"tracing cost exploded: {ratio:.1f}x"


def test_spans_mode_records_engine_callbacks():
    """Spans mode charges every chain callback to one host-time bucket (the
    chain function's module) and records no trace events."""
    t = Tracer(engine_spans=True)
    _engine_chain(t)
    (bucket,) = t.host_time().values()
    assert bucket["events"] == CHAIN_EVENTS + 1
    assert bucket["seconds"] > 0
    assert t.events == []


if __name__ == "__main__":
    print(report(measure()))
