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
  a fixed post-saturation probe grid merges to its pin in ``tests/pins.py``
  (the serial digest, checked in tier-1).

Run under pytest with an explicit path
(``pytest benchmarks/bench_serve_saturation.py``).  Throughput is not
gated here: ``perfbench``'s ``serve_closed`` workload measures it, and
``benchmarks/ab.py`` compares it against a parent commit.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

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
from tests.pins import PROBE_DIGEST, PROBE_SPECS  # noqa: E402

REFS = 600
SEED_BASE = 1000
JOBS = 2  # pool width: small on purpose, so load >> capacity
QUICK_CAP = 8  # queued-cell budget: the thing the burst overflows
P99_LIMIT_S = 2.0  # admission latency bound while saturated


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
        stats = gen.run()
        client = ServeClient("127.0.0.1", svc.port)
        infos = [
            client.wait(job_id, timeout=600.0)
            for job_id in gen.accepted_ids
        ]
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
    return {
        "threads": threads,
        "jobs_per_thread": jobs_per_thread,
        "offered_jobs": stats.submitted_jobs,
        "executed_cells": len(executed_ids),
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
        "digest_parity": serve_digest == serial,
        "probe_parity": probe_digest == PROBE_DIGEST,
    }


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
        problems.append("probe grid digest != its pin (the serial digest)")
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
        f"executed {sample['executed_cells']} cells on {JOBS} workers; "
        f"digest parity {'ok' if sample['digest_parity'] else 'MISMATCH'}, "
        f"probe {'ok' if sample['probe_parity'] else 'MISMATCH'}"
    )


# ----------------------------------------------------------------------
# Pytest entry point (explicit path only, like the other benches)
# ----------------------------------------------------------------------
def test_serve_saturation_contract(tmp_path):
    """Quick burst: shedding fires, admission stays bounded, digests match."""
    sample = measure(2, 6, tmp_path)
    _print_sample(sample)
    assert _assert_contract(sample) == []

