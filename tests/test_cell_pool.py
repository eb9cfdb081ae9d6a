"""The shared cell pool (repro.campaign.pool) and the one attempt policy.

* Worker lifetime: a pool owner killed outright leaves no worker behind,
  not even one busy with a long cell, and a worker forked under an
  asyncio SIGTERM handler still dies on SIGTERM without waking its
  parent's event loop, even when the signal comes before the worker has
  reset its handlers.
* Drain: ``stop(drain=True)`` runs every submitted cell, including one no
  worker has taken yet.
* Parity: ``run_campaign(jobs=1)`` and ``jobs=2`` settle the same attempts
  into equal records, because both run :func:`run_attempt` and
  :func:`settle`.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path

import pytest

from repro.campaign import CampaignOptions, CellPool, grid_cells, run_campaign
from repro.campaign.executor import build_cell_system, execute_cell, summarize
from repro.campaign.pool import _Worker, run_attempt
from repro.experiments.runner import ExperimentConfig

SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.exists("/proc/self/stat"),
    reason="forked workers and /proc are needed",
)

#: a pool owner whose two workers are busy ({nap} s cells) when it prints
#: their PIDs
_OWNER = textwrap.dedent(
    """
    import time

    from repro.campaign import CellPool, grid_cells
    from repro.experiments.runner import ExperimentConfig

    def slow(cell, attempt):
        time.sleep({nap})
        return {{}}

    pool = CellPool(jobs=2, runner=slow, start_method="fork").start(
        lambda res: None
    )
    for cell in grid_cells(["HM1", "LM1"], ["base"], ExperimentConfig()):
        pool.submit(cell, 1)
    while pool.busy_count() < 2:
        time.sleep(0.01)
    print(*pool.worker_pids(), flush=True)
    time.sleep(60)
    """
)

#: a pool owner with an asyncio SIGTERM handler, as `repro serve` has
_ASYNCIO_OWNER = textwrap.dedent(
    """
    import asyncio
    import signal
    import time

    from repro.campaign import CellPool, grid_cells
    from repro.experiments.runner import ExperimentConfig

    def slow(cell, attempt):
        time.sleep(30)
        return {}

    async def main():
        woken = []
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, lambda: woken.append(1))
        pool = CellPool(jobs=1, runner=slow, start_method="fork").start(
            lambda res: None
        )
        (cell,) = grid_cells(["HM1"], ["base"], ExperimentConfig())
        pool.submit(cell, 1)
        while pool.busy_count() < 1:
            await asyncio.sleep(0.01)
        t0 = time.monotonic()
        pool.kill_workers()  # SIGTERM first, SIGKILL after 2 s
        took = time.monotonic() - t0
        await asyncio.sleep(0.3)  # let a stray wakeup byte reach the loop
        print(f"{took:.3f} {len(woken)}", flush=True)
        pool.stop(drain=False, timeout=1.0)

    asyncio.run(main())
    """
)


def _owner(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
    )


def _gone(pid):
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state in ("Z", "X")


@needs_fork
def test_workers_exit_when_the_owner_is_sigkilled():
    # a 1 s cell ends soon after the kill; a 30 s one must not be waited out
    owners = [_owner(_OWNER.format(nap=nap)) for nap in (1.0, 30.0)]
    pids = []
    try:
        for owner in owners:
            pids += [int(p) for p in owner.stdout.readline().split()]
        assert len(pids) == 4
        for owner in owners:
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10)
        deadline = time.monotonic() + 3.0
        while not all(_gone(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [p for p in pids if not _gone(p)] == []
    finally:
        for owner in owners:
            owner.kill()
            owner.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


@needs_fork
def test_sigterm_kills_a_worker_forked_under_an_asyncio_handler():
    owner = _owner(_ASYNCIO_OWNER)
    try:
        out, _ = owner.communicate(timeout=30)
    finally:
        owner.kill()
    took, woken = out.split()
    assert float(took) < 1.0  # no 2 s wait for the SIGKILL escalation
    assert woken == "0"  # the worker's SIGTERM never reached the parent


def nap_runner(cell, attempt):  # module-level: picklable
    time.sleep(0.3)
    return {}


@needs_fork
def test_sigterm_right_after_the_fork_meets_the_default_action():
    # the owner's handler ignores SIGTERM; a worker that still ran it when
    # the signal came would survive until the SIGKILL escalation (2 s)
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        for _ in range(5):
            worker = _Worker(multiprocessing.get_context("fork"), nap_runner)
            t0 = time.monotonic()
            worker.kill()
            assert time.monotonic() - t0 < 1.0
            assert worker.proc.exitcode == -signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_drain_runs_the_cells_no_worker_has_taken():
    results = []
    pool = CellPool(jobs=1, runner=nap_runner).start(results.append)
    for cell in grid_cells(["HM1", "LM1"], ["base"], ExperimentConfig()):
        pool.submit(cell, 1)  # LM1 waits in the backlog behind HM1
    pool.stop(drain=True, timeout=30.0)
    assert sorted((r.cell.workload, r.status) for r in results) == [
        ("HM1", "ok"),
        ("LM1", "ok"),
    ]


# ----------------------------------------------------------------------
# Serial and pooled campaigns settle attempts identically
# ----------------------------------------------------------------------


def always_fail_runner(cell, attempt):  # module-level: picklable
    raise RuntimeError(f"{cell.workload} failed")


def test_serial_and_pool_record_the_same_failures():
    cells = grid_cells(["HM1", "LM1"], ["base"], ExperimentConfig(refs_per_core=50))

    def outcome(jobs):
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, retries=1, backoff=0.0),
            runner=always_fail_runner,
        )
        assert res.stats["retried"] == len(cells)
        return {
            cid: (r.status, r.attempts, r.error, r.diagnosis)
            for cid, r in res.records.items()
        }

    serial = outcome(1)
    assert serial == outcome(2)
    for status, attempts, error, diagnosis in serial.values():
        assert (status, attempts, diagnosis) == ("error", 2, None)
        assert error.startswith("Traceback") and "failed" in error


# ----------------------------------------------------------------------
# A finished attempt's object graph is freed when the attempt ends
# ----------------------------------------------------------------------

SMALL = ExperimentConfig(refs_per_core=50)

#: weak references into the last system weak_system_runner built
_graph = {}


def weak_system_runner(cell, attempt):
    system = build_cell_system(cell)
    for name, part in (("system", system), ("engine", system.engine),
                       ("host", system.host)):
        _graph[name] = weakref.ref(part)
    return summarize(system.run())


def test_attempt_frees_its_system_when_it_ends():
    # the System object itself dies by reference count; its engine and host
    # sit in reference cycles that only a collection frees, and the test
    # leaves that collection to run_attempt
    (cell,) = grid_cells(["HM1"], ["camps"], SMALL)
    status, _, _ = run_attempt(weak_system_runner, cell, 1)
    assert status == "ok"
    assert {name: ref() for name, ref in _graph.items()} == dict.fromkeys(_graph)


def object_count_runner(cell, attempt):  # module-level: picklable
    # every tracked object: get_objects() skips the ones a freeze holds
    count = len(gc.get_objects()) + gc.get_freeze_count()
    execute_cell(cell, attempt)
    return {"pid": os.getpid(), "objects": count}


def test_pool_worker_heap_stays_flat_across_cells():
    (cell,) = grid_cells(["HM1"], ["camps"], SMALL)
    results = []
    pool = CellPool(jobs=2, runner=object_count_runner).start(results.append)
    for _ in range(16):
        pool.submit(cell, 1)
    pool.stop(drain=True, timeout=120.0)
    assert [r.status for r in results] == ["ok"] * 16
    counts = {}
    for r in results:  # each worker's cells arrive in the order it ran them
        counts.setdefault(r.payload["pid"], []).append(r.payload["objects"])
    for seen in counts.values():
        # the first cell may import and cache; from the second on, each
        # cell left ~3k objects behind while attempts did not collect
        later = seen[1:]
        assert not later or max(later) - later[0] < 1000
