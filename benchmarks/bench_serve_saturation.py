"""Service saturation: load shedding, admission latency, and digest parity.

Drives a live ``repro.serve`` service (real simulation workers) with an
offered load of ~2x its drain capacity from concurrent client threads, then
asserts the degradation contract:

* **Shedding, not queueing** — once the quick lane's budget fills, further
  submissions get 429 + ``retry_after`` (``shed > 0``); nothing queues
  unboundedly and nothing errors.
* **Bounded admission latency** — the p99 submit round trip stays under
  ``P99_LIMIT_S`` even while saturated (admission is O(1); shedding keeps
  the event loop responsive).
* **Digest parity under load** — every cell the service executed merges to
  the same bytes a serial ``run_campaign`` of the same specs produces, and
  a fixed post-saturation probe grid pins a stable digest into
  ``BENCH_history.jsonl`` for ``repro bench-trend --check``.

Results land in ``BENCH_serve.json`` (machine-calibrated throughput) plus
``BENCH_history.jsonl``.  CI runs ``--quick --check``: a smaller burst,
same assertions, and a >30% normalized cells/sec regression fails.

Run standalone (``python benchmarks/bench_serve_saturation.py [--quick]
[--check]``) or under pytest with an explicit path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_hotpath import calibration_score  # noqa: E402
from conftest import record_bench_history  # noqa: E402

from repro.campaign.executor import (  # noqa: E402
    CampaignOptions,
    matrix_digest,
    run_campaign,
)
from repro.campaign.manifest import Manifest  # noqa: E402
from repro.metrics.collectors import ResultMatrix  # noqa: E402
from repro.serve import (  # noqa: E402
    LoadGenerator,
    ServeClient,
    ServeConfig,
    ServeService,
    cell_from_spec,
    nearest_rank,
)
from repro.system import SimulationResult  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_serve.json"

REFS = 600
SEED_BASE = 1000
JOBS = 2  # pool width: small on purpose, so load >> capacity
QUICK_CAP = 8  # queued-cell budget: the thing the burst overflows
P99_LIMIT_S = 2.0  # admission latency bound while saturated
REGRESSION_LIMIT = 0.30

#: fixed post-saturation probe: its digest is machine-independent and goes
#: into the history so bench-trend sees drift in the serve execution path
PROBE_SPECS = [
    {"workload": w, "scheme": s, "refs": REFS, "seed": 1}
    for w in ("HM1", "LM1")
    for s in ("base", "camps")
]


# ----------------------------------------------------------------------
# In-process service harness
# ----------------------------------------------------------------------
class ServiceThread:
    """A live ServeService on a background event-loop thread."""

    def __init__(self, manifest: Path) -> None:
        self.cfg = ServeConfig(
            manifest=str(manifest),
            jobs=JOBS,
            quick_cap=QUICK_CAP,
            bulk_cap=QUICK_CAP * 4,
            use_cache=False,
            telemetry=False,
            tick_interval=0.1,
        )
        self.service: Optional[ServeService] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.service = ServeService(self.cfg)
        await self.service.start()
        self._ready.set()
        await self.service.node.stopped.wait()
        server = self.service._server
        if server is not None:
            server.close()
            await server.wait_closed()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service failed to start")
        return self

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def stop(self) -> None:
        ServeClient("127.0.0.1", self.port).drain()
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("service failed to drain")


def _merged_digest(manifest_path, cell_ids) -> str:
    records = Manifest(manifest_path).records()
    matrix = ResultMatrix()
    for cid in sorted(cell_ids):
        matrix.add(SimulationResult(extra={}, **records[cid].summary))
    return matrix_digest(matrix)


def _hist_quantile(snap: Optional[Dict[str, object]], q: float) -> Optional[float]:
    """Reconstruct a quantile from a LogHistogram snapshot (cumulative buckets)."""
    if not snap:
        return None
    count = int(snap.get("count", 0) or 0)
    if count <= 0:
        return None
    rank = nearest_rank(q, count)
    observed_max = float(snap.get("max", 0.0) or 0.0)
    for bucket in snap.get("buckets", []):
        if int(bucket["count"]) > rank:
            le = float(bucket["le"])
            return min(le, observed_max) if observed_max else le
    return observed_max


def _client_queue_p99(infos: List[Dict[str, object]]) -> Optional[float]:
    """p99 of per-cell queue-stage dwell as reported in job info spans."""
    ages = [
        float(stages["queue"])
        for info in infos
        for entry in info.get("cells", {}).values()
        if isinstance(entry, dict)
        for stages in [entry.get("stages") or {}]
        if stages.get("queue") is not None
    ]
    if not ages:
        return None
    ages.sort()
    return ages[nearest_rank(0.99, len(ages))]


def _serial_digest(specs, tmp_path: Path) -> str:
    result = run_campaign(
        [cell_from_spec(s) for s in specs],
        CampaignOptions(jobs=1),
        cache=None,
        manifest=Manifest(tmp_path),
    )
    result.raise_on_failure()
    return matrix_digest(result.matrix())


# ----------------------------------------------------------------------
# The measurement
# ----------------------------------------------------------------------
def measure(threads: int, jobs_per_thread: int, workdir: Path) -> Dict[str, object]:
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = workdir / "serve_saturation.jsonl"
    specs = [
        {"workload": "HM1", "scheme": "base", "refs": REFS,
         "seed": SEED_BASE + i}
        for i in range(threads * jobs_per_thread)
    ]
    svc = ServiceThread(manifest).start()
    try:
        gen = LoadGenerator(
            client_fn=lambda: ServeClient("127.0.0.1", svc.port),
            spec_fn=lambda i: {"cells": [specs[i]], "lane": "quick"},
            threads=threads,
            jobs_per_thread=jobs_per_thread,
        )
        t0 = perf_counter()
        stats = gen.run()
        submit_wall = perf_counter() - t0
        client = ServeClient("127.0.0.1", svc.port)
        infos = [
            client.wait(job_id, timeout=600.0)
            for job_id in gen.accepted_ids
        ]
        drain_wall = perf_counter() - t0
        # every accepted job must have finished clean
        bad = [i for i in infos if i["status"] != "done"]
        executed_ids = sorted({cid for i in infos for cid in i["cells"]})
        # post-saturation probe: fixed grid, stable digest
        probe = client.submit(cells=list(PROBE_SPECS))
        probe_info = client.wait(probe["job"], timeout=600.0)
        probe_ids = sorted(probe_info["cells"])
        # server-side view, fetched while the service is still alive
        admission = client.snapshot()["serve"]["admission"]
    finally:
        svc.stop()

    queue_age_p99 = _hist_quantile(
        (admission.get("queue_age") or {}).get("quick"), 0.99
    )
    client_queue_p99 = _client_queue_p99(infos + [probe_info])

    spec_by_id = {cell_from_spec(s).cell_id: s for s in specs}
    serve_digest = _merged_digest(manifest, executed_ids)
    serial = _serial_digest(
        [spec_by_id[cid] for cid in executed_ids], workdir / "serial.jsonl"
    )
    probe_digest = _merged_digest(manifest, probe_ids)
    probe_serial = _serial_digest(PROBE_SPECS, workdir / "probe.jsonl")
    accepted_cells = len(executed_ids)
    return {
        "threads": threads,
        "jobs_per_thread": jobs_per_thread,
        "offered_jobs": stats.submitted_jobs,
        "accepted_jobs": stats.accepted_jobs,
        "shed": stats.shed,
        "errors": stats.errors,
        "failed_jobs": len(bad),
        "overload_factor": round(
            stats.submitted_jobs / max(1, stats.accepted_jobs), 2
        ),
        "p50_submit_s": stats.latency_quantile(0.50),
        "p99_submit_s": stats.latency_quantile(0.99),
        "mean_retry_after_s": (
            sum(stats.retry_afters) / len(stats.retry_afters)
            if stats.retry_afters
            else None
        ),
        "queue_age_p99_s": (
            round(queue_age_p99, 4) if queue_age_p99 is not None else None
        ),
        "client_queue_p99_s": (
            round(client_queue_p99, 4) if client_queue_p99 is not None else None
        ),
        "submit_wall_s": round(submit_wall, 4),
        "drain_wall_s": round(drain_wall, 4),
        "cells_per_sec": round(accepted_cells / drain_wall, 4),
        "digest_parity": serve_digest == serial,
        "probe_parity": probe_digest == probe_serial,
        "probe_digest": probe_digest,
    }


def _record_history(quick: bool, calib: float, sample: Dict[str, object],
                    mode: Optional[str] = None) -> None:
    """Append to BENCH_history.jsonl — full bursts only.

    Quick bursts drain in ~1.5 s, where scheduler-tick granularity alone
    moves the wall past the trend gate's 25% tolerance; only the full burst
    is a stable enough series to gate on.
    """
    if quick:
        return
    meta = {
        "accepted_jobs": sample["accepted_jobs"],
        "shed": sample["shed"],
        "p99_submit_s": sample["p99_submit_s"],
        "queue_age_p99_s": sample["queue_age_p99_s"],
        "cells_per_sec": sample["cells_per_sec"],
    }
    if mode:
        meta["mode"] = mode
    record_bench_history(
        "serve_saturation",
        wall_seconds=float(sample["drain_wall_s"]),
        calib_ops_per_s=calib,
        digest=str(sample["probe_digest"]),
        meta=meta,
        check=mode == "check",
    )


def _assert_contract(sample: Dict[str, object]) -> List[str]:
    problems = []
    if not sample["shed"]:
        problems.append("overloaded service shed nothing (no 429s)")
    if sample["errors"]:
        problems.append(f"{sample['errors']} submit errors (only 429s allowed)")
    if sample["failed_jobs"]:
        problems.append(f"{sample['failed_jobs']} accepted jobs did not finish ok")
    p99 = sample["p99_submit_s"]
    if p99 is not None and p99 > P99_LIMIT_S:
        problems.append(f"p99 admission latency {p99:.3f}s > {P99_LIMIT_S}s")
    if not sample["digest_parity"]:
        problems.append("merged manifest != serial digest for executed cells")
    if not sample["probe_parity"]:
        problems.append("probe grid digest != serial digest")
    server_p99 = sample.get("queue_age_p99_s")
    client_p99 = sample.get("client_queue_p99_s")
    if server_p99 is None:
        problems.append("server reported no queue-age histogram for the quick lane")
    elif client_p99 is not None:
        # the histogram p99 is a bucket upper bound clamped to the observed
        # max, so it sits at or above the exact sample quantile; generous
        # both-direction tolerance absorbs bucket width and lane skew
        low = float(client_p99) / 4.0 - 0.25
        high = float(client_p99) * 4.0 + 0.25
        if not (low <= float(server_p99) <= high):
            problems.append(
                f"server queue-age p99 {server_p99}s disagrees with "
                f"client-observed {client_p99}s (tolerance [{low:.3f}, {high:.3f}])"
            )
    return problems


def _fmt(value, spec: str) -> str:
    return format(value, spec) if value is not None else "n/a"


def _print_sample(sample: Dict[str, object]) -> None:
    print(
        f"offered {sample['offered_jobs']} jobs from {sample['threads']} "
        f"threads: accepted {sample['accepted_jobs']}, shed {sample['shed']} "
        f"(overload {sample['overload_factor']}x)"
    )
    print(
        f"submit p50 {_fmt(sample['p50_submit_s'], '.4f')}s  "
        f"p99 {_fmt(sample['p99_submit_s'], '.4f')}s  "
        f"mean retry_after {_fmt(sample['mean_retry_after_s'], '.2f')}s"
    )
    print(
        f"queue-age p99 {_fmt(sample['queue_age_p99_s'], '.4f')}s server-side "
        f"vs {_fmt(sample['client_queue_p99_s'], '.4f')}s client-observed"
    )
    print(
        f"drained in {sample['drain_wall_s']:.2f}s "
        f"({sample['cells_per_sec']:.2f} cells/s, {JOBS} workers); "
        f"digest parity {'ok' if sample['digest_parity'] else 'MISMATCH'}, "
        f"probe {'ok' if sample['probe_parity'] else 'MISMATCH'}"
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def generate(quick: bool, workdir: Path) -> int:
    calib = calibration_score()
    threads, per_thread = (2, 6) if quick else (4, 12)
    sample = measure(threads, per_thread, workdir)
    _print_sample(sample)
    problems = _assert_contract(sample)
    for p in problems:
        print(f"CONTRACT VIOLATION: {p}", file=sys.stderr)
    if problems:
        return 1
    payload = {
        "bench": "serve_saturation",
        "config": {
            "refs": REFS,
            "jobs": JOBS,
            "quick_cap": QUICK_CAP,
            "p99_limit_s": P99_LIMIT_S,
            "probe_specs": PROBE_SPECS,
        },
        "machine": {"calib_ops_per_s": calib},
        "sample": sample,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    _record_history(quick, calib, sample)
    return 0


def check(quick: bool, workdir: Path) -> int:
    if not RESULT_PATH.exists():
        print(
            f"missing {RESULT_PATH}; run bench_serve_saturation.py first",
            file=sys.stderr,
        )
        return 1
    committed = json.loads(RESULT_PATH.read_text())
    calib = calibration_score()
    threads, per_thread = (2, 6) if quick else (4, 12)
    sample = measure(threads, per_thread, workdir)
    _print_sample(sample)
    problems = _assert_contract(sample)
    if str(sample["probe_digest"]) != str(
        committed["sample"]["probe_digest"]
    ):
        problems.append(
            "probe digest drifted from committed BENCH_serve.json: "
            f"{sample['probe_digest']} != {committed['sample']['probe_digest']}"
        )
    _record_history(quick, calib, sample, mode="check")
    ref_norm = float(committed["sample"]["cells_per_sec"]) / float(
        committed["machine"]["calib_ops_per_s"]
    )
    cur_norm = float(sample["cells_per_sec"]) / calib
    ratio = cur_norm / ref_norm if ref_norm else 1.0
    print(
        f"normalized cells/sec {cur_norm:.3e} vs committed {ref_norm:.3e} "
        f"({ratio:.2f}x)"
    )
    if ratio < 1.0 - REGRESSION_LIMIT:
        problems.append(
            f"PERF REGRESSION: serve throughput at {ratio:.2f}x of the "
            f"committed sample (limit {1.0 - REGRESSION_LIMIT:.2f}x)"
        )
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Pytest entry point (explicit path only, like the other benches)
# ----------------------------------------------------------------------
def test_serve_saturation_contract(tmp_path):
    """Quick burst: shedding fires, admission stays bounded, digests match."""
    sample = measure(2, 6, tmp_path)
    _print_sample(sample)
    assert _assert_contract(sample) == []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller burst (2 threads x 6 jobs; CI uses this)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed BENCH_serve.json instead of "
        "rewriting it; fail on contract violation, probe-digest drift, or "
        ">30%% normalized throughput regression",
    )
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import tempfile

    workdir = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="bench_serve_")
    )
    if args.check:
        return check(quick=args.quick, workdir=workdir)
    return generate(quick=args.quick, workdir=workdir)


if __name__ == "__main__":
    sys.exit(main())
