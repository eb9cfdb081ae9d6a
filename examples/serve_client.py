#!/usr/bin/env python3
"""Drive the campaign service end to end (repro.serve demo).

Starts an in-process :class:`ServeService` (the same object ``repro
serve`` runs), then walks the full client loop a deployment would:

1. submit a mixed-priority batch with :class:`ServeClient` — a quick
   interactive job plus a bulk grid — and watch the quick lane finish
   first;
2. overload the service on purpose and handle the `429` shed path
   (:class:`Shed` carries ``retry_after``; backing off and resubmitting
   is the whole client-side contract);
3. scrape ``/snapshot`` and ``/metrics`` (validated with
   :func:`repro.obs.promtext.parse_exposition`) while work drains;
4. drain gracefully and show the merged manifest holding every cell
   exactly once.

Against a *real* service you would skip the launcher and point
:class:`ServeClient` (or ``python -m repro submit``) at its URL — the
calls below are identical either way.

Run:  python examples/serve_client.py [--refs N] [--jobs N]
"""

import argparse
import asyncio
import tempfile
import threading
import time
from pathlib import Path

from repro.campaign import Manifest
from repro.obs.promtext import parse_exposition
from repro.serve import ServeClient, ServeConfig, ServeService, Shed


class ServiceThread:
    """Run one ServeService on a background event loop (launcher only)."""

    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        service = ServeService(self.cfg)
        await service.start()
        self.port = service.port
        self._ready.set()
        await service.node.stopped.wait()  # ends after a drain
        if service._server is not None:
            service._server.close()
            await service._server.wait_closed()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service failed to start")
        return self

    def join(self) -> None:
        self._thread.join(timeout=60)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", type=int, default=800)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="serve_demo_"))
    manifest = workdir / "svc.jsonl"
    svc = ServiceThread(
        ServeConfig(
            manifest=str(manifest),
            jobs=args.jobs,
            quick_cap=4,  # small on purpose: step 2 overloads it
            use_cache=False,
            telemetry=False,
            tick_interval=0.1,
        )
    ).start()
    client = ServeClient("127.0.0.1", svc.port)

    # -- 1. mixed-priority submission -------------------------------------
    quick = client.submit(
        cells=[{"workload": "HM1", "scheme": "camps", "refs": args.refs}],
        lane="quick",
    )
    bulk = client.submit(
        grid={
            "mixes": ["HM1", "LM1"],
            "schemes": ["base", "camps"],
            "refs": args.refs,
        },
        lane="bulk",
    )
    print(f"submitted quick job {quick['job']} and bulk job {bulk['job']} "
          f"({len(bulk['cells'])} cells)")
    info = client.wait(quick["job"], timeout=120.0)
    print(f"quick job finished first: {info['status']} "
          f"({info['done']}/{info['total']} cells)")

    # -- 2. overload and the shed path ------------------------------------
    shed = 0
    accepted = []
    for seed in range(2, 30):
        spec = {"workload": "HM1", "scheme": "base",
                "refs": args.refs, "seed": seed}
        try:
            accepted.append(client.submit(cells=[spec], lane="quick"))
        except Shed as exc:
            shed += 1
            if shed == 1:
                print(f"admission shed us (429): retry in "
                      f"{exc.retry_after:.1f}s — backing off")
            time.sleep(0.02)
    print(f"burst: {len(accepted)} jobs accepted, {shed} shed with 429")

    # -- 3. observe while it drains ---------------------------------------
    snap = client.snapshot()["serve"]
    print(f"snapshot: inflight={snap['inflight']} "
          f"pending={snap['pending']} shed_total="
          f"{snap['admission']['shed_total']}")
    families = parse_exposition(client.metrics_text())
    jobs_metric = families["repro_serve_jobs"]["samples"]
    print(f"/metrics parses: repro_serve_jobs -> "
          f"{[(dict(l), v) for l, v in jobs_metric]}")

    for job in [bulk] + accepted:
        client.wait(job["job"], timeout=300.0)

    # -- 4. graceful drain + exactly-once merge ---------------------------
    client.drain()
    svc.join()
    records = Manifest(manifest).records()
    print(f"drained; manifest holds {len(records)} cells, "
          f"all ok: {all(r.ok for r in records.values())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
