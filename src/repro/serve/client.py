"""Blocking client for the campaign service, plus a load generator.

:class:`ServeClient` speaks the HTTP side of the protocol with stdlib
``http.client`` — one connection per request, so it needs no pooling and
survives a server drain mid-session.  :meth:`ServeClient.wait` instead sends
one JSONL ``wait`` op on the same port and blocks until the job ends.
:class:`LoadGenerator` drives saturation experiments: N threads submitting
jobs as fast as admission allows, recording per-submit latency and shed
(429) counts for ``benchmarks/bench_serve_saturation.py``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve.admission import nearest_rank


class ServeError(RuntimeError):
    """Protocol-level failure talking to the service."""


class Shed(ServeError):
    """The service answered 429; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"shed by admission control (retry in {retry_after}s)")
        self.retry_after = retry_after


class DrainingError(ServeError):
    """The service answered 503: draining, submit elsewhere."""


class ServeClient:
    """Minimal blocking client: submit, wait, inspect."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> tuple:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            all_headers = dict(headers or {})
            if body:
                all_headers.setdefault("Content-Type", "application/json")
            conn.request(method, path, body=body, headers=all_headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                data = {"raw": raw.decode("latin-1", "replace")}
            return resp.status, data
        finally:
            conn.close()

    # -- API -----------------------------------------------------------
    def submit(
        self,
        cells: Optional[List[dict]] = None,
        grid: Optional[dict] = None,
        lane: Optional[str] = None,
        deadline_s: Optional[float] = None,
        traceparent: Optional[str] = None,
    ) -> dict:
        payload: Dict[str, Any] = {}
        if cells:
            payload["cells"] = cells
        if grid:
            payload["grid"] = grid
        if lane:
            payload["lane"] = lane
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        headers = {"traceparent": traceparent} if traceparent else None
        status, data = self._request("POST", "/submit", payload, headers=headers)
        if status == 429:
            raise Shed(float(data.get("retry_after", 1.0)))
        if status == 503:
            raise DrainingError(str(data.get("error", "draining")))
        if status != 202:
            raise ServeError(f"submit failed ({status}): {data}")
        return data

    def job(self, job_id: str) -> dict:
        status, data = self._request("GET", f"/jobs/{job_id}")
        if status != 200:
            raise ServeError(f"job lookup failed ({status}): {data}")
        return data

    def job_report(self, job_id: str) -> dict:
        """The job's RunReport artifacts streamed over the wire."""
        status, data = self._request("GET", f"/jobs/{job_id}/report")
        if status != 200:
            raise ServeError(f"job report failed ({status}): {data}")
        return data

    def job_dash(self, job_id: str) -> str:
        """The job's HTML dashboard, rendered by the server."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/dash.html")
            resp = conn.getresponse()
            if resp.status != 200:
                raise ServeError(f"job dash failed ({resp.status})")
            return resp.read().decode()
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Block until the job leaves queued/running (or raise on timeout).

        One request to the JSONL ``wait`` op on the same port: the server
        answers the moment the job finishes, so no poll interval is added
        to the job's latency.
        """
        req = {"op": "wait", "job": job_id, "timeout": timeout}
        with socket.create_connection(
            (self.host, self.port), timeout=timeout + self.timeout
        ) as sock:
            sock.sendall(json.dumps(req).encode() + b"\n")
            with sock.makefile("rb") as fh:
                line = fh.readline()
        if not line:
            raise ServeError(f"wait for job {job_id}: connection closed")
        reply = json.loads(line)
        if not reply.pop("ok", False):
            if reply.get("error") == "timeout":
                raise ServeError(f"job {job_id} still {reply.get('status')}")
            raise ServeError(f"wait for job {job_id} failed: {reply}")
        return reply

    def healthz(self) -> tuple:
        return self._request("GET", "/healthz")

    def readyz(self) -> tuple:
        return self._request("GET", "/readyz")

    def snapshot(self) -> dict:
        status, data = self._request("GET", "/snapshot")
        if status != 200:
            raise ServeError(f"snapshot failed ({status})")
        return data

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            if resp.status != 200:
                raise ServeError(f"metrics failed ({resp.status})")
            return resp.read().decode()
        finally:
            conn.close()

    def drain(self) -> None:
        self._request("POST", "/drain")


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


@dataclass
class LoadStats:
    """What one load run measured (all times in seconds)."""

    submitted_jobs: int = 0
    accepted_jobs: int = 0
    shed: int = 0
    errors: int = 0
    latencies: List[float] = field(default_factory=list)
    retry_afters: List[float] = field(default_factory=list)

    def latency_quantile(self, q: float) -> Optional[float]:
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        return ordered[nearest_rank(q, len(ordered))]

    def to_dict(self) -> dict:
        return {
            "submitted_jobs": self.submitted_jobs,
            "accepted_jobs": self.accepted_jobs,
            "shed": self.shed,
            "errors": self.errors,
            "p50_submit_seconds": self.latency_quantile(0.50),
            "p99_submit_seconds": self.latency_quantile(0.99),
            "max_submit_seconds": max(self.latencies) if self.latencies else None,
            "mean_retry_after": (
                sum(self.retry_afters) / len(self.retry_afters)
                if self.retry_afters
                else None
            ),
        }


class LoadGenerator:
    """Hammer one service with jobs from N client threads.

    Each thread submits ``spec_fn(i)`` jobs back to back; a 429 counts as a
    shed (and the thread briefly yields — a saturation benchmark wants the
    server's shedding behavior, not a tight client spin).  Latency is the
    full submit round trip, which is exactly the admission latency a real
    client observes.
    """

    def __init__(
        self,
        client_fn: Any,  # () -> ServeClient (per-thread instances)
        spec_fn: Any,  # (i: int) -> dict submit payload kwargs
        threads: int = 4,
        jobs_per_thread: int = 10,
        shed_backoff: float = 0.05,
    ) -> None:
        self.client_fn = client_fn
        self.spec_fn = spec_fn
        self.threads = threads
        self.jobs_per_thread = jobs_per_thread
        self.shed_backoff = shed_backoff
        self.stats = LoadStats()
        self.accepted_ids: List[str] = []
        self._lock = threading.Lock()

    def _worker(self, tid: int) -> None:
        client = self.client_fn()
        for i in range(self.jobs_per_thread):
            payload = self.spec_fn(tid * self.jobs_per_thread + i)
            t0 = time.perf_counter()
            try:
                out = client.submit(**payload)
                dt = time.perf_counter() - t0
                with self._lock:
                    self.stats.submitted_jobs += 1
                    self.stats.accepted_jobs += 1
                    self.stats.latencies.append(dt)
                    self.accepted_ids.append(out["job"])
            except Shed as exc:
                with self._lock:
                    self.stats.submitted_jobs += 1
                    self.stats.shed += 1
                    self.stats.retry_afters.append(exc.retry_after)
                time.sleep(self.shed_backoff)
            except ServeError:
                with self._lock:
                    self.stats.submitted_jobs += 1
                    self.stats.errors += 1

    def run(self) -> LoadStats:
        threads = [
            threading.Thread(target=self._worker, args=(t,), daemon=True)
            for t in range(self.threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.stats
