"""The benchmark's workloads: inputs from a seed, an untraced timed phase,
and a traced phase paired with an untraced one over the same inputs.

* ``sim_serial`` - in-process ``run_campaign(jobs=1)`` over the Table II
  high/low/mixed-intensity grid at full scale; the simulator dominates.
* ``serve_closed`` - a live in-process ``ServeService`` driven by two
  closed-loop JSONL clients with small cells; service layers dominate.
* ``fabric_pool`` - ``run_campaign(jobs=2, report_dir=...)`` over routed
  multi-cube fabrics; the pool path, fabric routing and reports run here.

Every timed cell is checked: its merged record must equal the summary the
executor (or service) returned, a seed-chosen sample is recomputed in this
process through the public API, and fixed-seed digests pin the simulated
statistics (see ``pins.json``).
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import itertools
import json
import random
import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.campaign.executor import (
    CampaignOptions,
    execute_cell,
    matrix_digest,
    run_campaign,
)
from repro.campaign.manifest import Manifest
from repro.campaign.spec import Cell, fabric_grid_cells, grid_cells
from repro.experiments.runner import ExperimentConfig
from repro.obs.spans import STAGE_MERGE, read_spans
from repro.serve.jobs import cell_from_spec
from repro.serve.server import ServeConfig, ServeService
from repro.workloads.mixes import mix_names

from perfbench.cells import (
    TimedManifest,
    canonical,
    cells_digest,
    reference_summary,
    traced_cell,
)
from perfbench.spans import Span, SpanRecorder, adopt_roots, load_spans

DEFAULT_SEED = 1
#: one Table II mix per intensity class (high, low, mixed)
MIXES = ("HM1", "LM1", "MX1")
#: no prefetcher, prefetch on every activation, and the paper's scheme
SCHEMES = ("none", "base", "camps-mod")
#: fabric topologies and their cube counts
TOPOLOGIES = {"chain:2": 2, "ring:4": 4}


@dataclass(frozen=True)
class Scale:
    """Input sizes (references per core) and set-up repetitions."""

    serial_refs: int = 4000
    #: references per core times cubes: 1500 per core on chain:2
    fabric_refs: int = 3000
    serve_refs: int = 300
    canary_refs: int = 200
    probes: int = 5


FULL = Scale()
#: the self-test's scale: every path runs, in seconds
TINY = Scale(serial_refs=60, fabric_refs=60, serve_refs=40, canary_refs=30, probes=1)


@dataclass
class Outcome:
    """One timed operation (a cell run by a campaign, or one submit)."""

    cell_id: str
    ok: bool
    #: client-observed (serve) or record ``elapsed`` (campaign) seconds
    latency: Optional[float]
    elapsed: float = 0.0
    instructions: int = 0
    repeat: bool = False
    error: Optional[str] = None
    submit_s: float = 0.0
    #: canonical summary a service client received
    reply: Optional[str] = None


@dataclass
class Run:
    """Everything one timed (or traced) phase produced."""

    wall: float
    outcomes: List[Outcome]
    #: merged summary of every executed cell, by cell id
    summaries: Dict[str, dict]
    cells: Dict[str, Cell]
    #: digest of the deterministic part of the run (pinned at the default seed)
    digest: str = ""
    scrapes: List[float] = field(default_factory=list)
    merge_s: List[float] = field(default_factory=list)
    records_s: List[float] = field(default_factory=list)
    #: submits made by each service client
    per_client: List[int] = field(default_factory=list)


def _fail(cid: str, error: str) -> Outcome:
    return Outcome(cell_id=cid, ok=False, latency=None, error=error)


def compare(a: Run, b: Run) -> List[Outcome]:
    """Every cell executed in ``a`` must have the same summary in ``b``."""
    out = []
    for cid, summary in a.summaries.items():
        other = b.summaries.get(cid)
        if other is None:
            out.append(_fail(cid, "cell missing from the paired run"))
        elif canonical(summary) != canonical(other):
            out.append(_fail(cid, "summary differs from the paired run"))
        else:
            out.append(Outcome(cell_id=cid, ok=True, latency=None))
    return out


class Workload:
    name = ""
    jobs = 1

    def __init__(self, seed: int, scale: Scale, tmp: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)
        #: named parts of the last :meth:`setup`, in seconds
        self.setup_parts: Dict[str, float] = {}

    def setup(self) -> None:
        """Bring the system up to ready-to-take-load (timed as ``setup_s``)."""

    def teardown(self) -> None:
        """Stop everything :meth:`setup` started and wait for it to end."""

    def fingerprint(self) -> str:
        """Digest of the generated inputs (the seed must change it)."""
        raise NotImplementedError

    def canary(self) -> List[Cell]:
        """Small fixed-seed cells whose digest is pinned at every seed."""
        raise NotImplementedError

    def timed(self, seconds: float) -> Run:
        raise NotImplementedError

    def traced_pair(
        self, seconds: float
    ) -> Tuple[Run, Run, List[Span]]:
        """(untraced run, traced run over the same inputs, merged spans)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------


class CampaignWorkload(Workload):
    report = False

    def setup(self) -> None:
        # the pool is run_campaign's own: it starts inside the timed phase
        self.pass_cells(0)

    def pass_cells(self, k: int) -> List[Cell]:
        raise NotImplementedError

    def pass_seed(self, k: int) -> int:
        # pass k > 0 runs new inputs, so no cache can make repeats free
        return self.seed + 7919 * k

    def fingerprint(self) -> str:
        return cells_digest({c.cell_id: {} for c in self.pass_cells(0)})

    def run_pass(
        self,
        k: int,
        tag: str,
        rec: Optional[SpanRecorder] = None,
        span_dir: Optional[Path] = None,
    ) -> Run:
        cells = self.pass_cells(k)
        path = self.tmp / f"{tag}.jsonl"
        manifest = TimedManifest(path, rec) if rec is not None else Manifest(path)
        report_dir = str(self.tmp / f"reports-{tag}") if self.report else None
        runner: Any = execute_cell
        if span_dir is not None:
            runner = functools.partial(
                traced_cell, span_dir=str(span_dir), report_dir=report_dir
            )
        ctx = rec.span("campaign", trace=tag) if rec is not None else nullcontext()
        t0 = time.perf_counter()
        with ctx:
            res = run_campaign(
                cells,
                CampaignOptions(jobs=self.jobs),
                cache=None,
                manifest=manifest,
                runner=runner,
                report_dir=report_dir,
            )
        wall = time.perf_counter() - t0
        t1 = time.perf_counter()
        merged = manifest.records()
        records_s = time.perf_counter() - t1
        outcomes: List[Outcome] = []
        summaries: Dict[str, dict] = {}
        for cell in res.cells:
            cid = cell.cell_id
            got = res.records.get(cid)
            back = merged.get(cid)
            if got is None or not got.ok:
                err = "no record" if got is None else f"{got.status}: {got.error}"
                outcomes.append(_fail(cid, err))
                continue
            if back is None or canonical(back.summary) != canonical(got.summary):
                outcomes.append(_fail(cid, "merged manifest record differs"))
                continue
            summaries[cid] = back.summary
            outcomes.append(
                Outcome(
                    cell_id=cid,
                    ok=True,
                    latency=got.elapsed,
                    elapsed=got.elapsed,
                    instructions=sum(back.summary["core_instructions"]),
                )
            )
        return Run(
            wall=wall,
            outcomes=outcomes,
            summaries=summaries,
            cells={c.cell_id: c for c in cells},
            digest=matrix_digest(res.matrix()),
            records_s=[records_s],
        )

    def timed(self, seconds: float) -> Run:
        """Whole passes until the next one would end more than half a pass
        past ``seconds`` (whole passes keep the cell mix fixed)."""
        passes: List[Run] = []
        t0 = time.perf_counter()
        while True:
            run = self.run_pass(len(passes), f"pass{len(passes)}")
            passes.append(run)
            if time.perf_counter() - t0 + run.wall / 2 >= seconds:
                break
        return Run(
            wall=sum(r.wall for r in passes),
            outcomes=[o for r in passes for o in r.outcomes],
            summaries={k: v for r in passes for k, v in r.summaries.items()},
            cells={k: v for r in passes for k, v in r.cells.items()},
            digest=passes[0].digest,
            records_s=[s for r in passes for s in r.records_s],
        )

    def traced_pair(self, seconds: float) -> Tuple[Run, Run, List[Span]]:
        untraced = self.run_pass(0, "untraced")
        rec = SpanRecorder()
        span_dir = self.tmp / "spans"
        span_dir.mkdir(exist_ok=True)
        traced = self.run_pass(0, "traced", rec=rec, span_dir=span_dir)
        spans = rec.spans + load_spans(span_dir)
        adopt_roots(spans, rec.spans)
        return untraced, traced, spans


class SimSerial(CampaignWorkload):
    name = "sim_serial"
    jobs = 1

    def pass_cells(self, k: int) -> List[Cell]:
        cfg = ExperimentConfig(refs_per_core=self.scale.serial_refs, seed=self.pass_seed(k))
        return grid_cells(MIXES, SCHEMES, cfg)

    def canary(self) -> List[Cell]:
        cfg = ExperimentConfig(refs_per_core=self.scale.canary_refs, seed=DEFAULT_SEED)
        return grid_cells(MIXES, SCHEMES, cfg)


class FabricPool(CampaignWorkload):
    name = "fabric_pool"
    jobs = 2
    report = True

    def pass_cells(self, k: int) -> List[Cell]:
        # references per core scale inversely with cube count, so every
        # cell simulates the same number of references and costs about the
        # same host time: the latency median then sits inside one mode
        # instead of in the gap between a cheap and a dear topology
        return [
            cell
            for topo, cubes in TOPOLOGIES.items()
            for cell in fabric_grid_cells(
                [topo],
                MIXES,
                SCHEMES[1:],
                ExperimentConfig(
                    refs_per_core=self.scale.fabric_refs // cubes,
                    seed=self.pass_seed(k),
                ),
            )
        ]

    def canary(self) -> List[Cell]:
        cfg = ExperimentConfig(refs_per_core=self.scale.canary_refs // 2, seed=DEFAULT_SEED)
        return fabric_grid_cells(TOPOLOGIES, MIXES[:1], SCHEMES[1:], cfg)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


class _Service:
    """A ServeService on its own event-loop thread inside this process."""

    def __init__(self, cfg: ServeConfig, runner: Any) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.service = ServeService(cfg, runner=runner)
        self._call(self.service.start())
        self.port = self.service.port

    def _call(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=60)

    def close(self) -> None:
        try:
            self._call(self.service.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()


class _Conn:
    """One persistent JSONL connection to the service."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.file = self.sock.makefile("rwb")

    def call(self, obj: dict) -> dict:
        self.file.write(json.dumps(obj).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class ServeClosed(Workload):
    name = "serve_closed"
    jobs = 2
    clients = 2
    #: every n-th submit repeats one of the client's earlier specs
    repeat_every = 4
    #: seconds between GET /metrics scrapes (client 0)
    scrape_every = 1.0
    #: first submits per client whose summaries are pinned at the default seed
    pinned_submits = 8

    def __init__(self, seed: int, scale: Scale, tmp: Path) -> None:
        super().__init__(seed, scale, tmp)
        self.svc: Optional[_Service] = None

    def specs(self, client: int) -> Iterator[Tuple[dict, bool]]:
        """The client's endless submit sequence: (spec, is_repeat).

        Every fourth submit repeats one of the client's earlier specs.  New
        specs walk all mix x scheme pairs in a seed-shuffled order, one
        full round at a time, so every seed submits the same mix of cell
        costs and only the order and the trace seeds change.
        """
        rng = random.Random(f"{self.seed}/{client}")
        pairs = [(m, s) for m in mix_names() for s in SCHEMES]
        fresh: List[dict] = []
        for i in itertools.count():
            if i % self.repeat_every == self.repeat_every - 1:
                yield rng.choice(fresh), True
                continue
            if len(fresh) % len(pairs) == 0:
                rng.shuffle(pairs)
            workload, scheme = pairs[len(fresh) % len(pairs)]
            spec = {
                "workload": workload,
                "scheme": scheme,
                "refs": self.scale.serve_refs,
                "seed": (self.seed * self.clients + client) * 1_000_000 + len(fresh),
            }
            fresh.append(spec)
            yield spec, False

    def fingerprint(self) -> str:
        out: Dict[str, dict] = {}
        for client in range(self.clients):
            gen = self.specs(client)
            for n in range(20):
                spec, _ = next(gen)
                out[f"{client}/{n}"] = spec
        return cells_digest(out)

    def canary(self) -> List[Cell]:
        return SimSerial(DEFAULT_SEED, self.scale, self.tmp).canary()

    def _start(self, tag: str, runner: Any) -> _Service:
        cfg = ServeConfig(
            manifest=str(self.tmp / f"{tag}.jsonl"), jobs=self.jobs, use_cache=False
        )
        t0 = time.perf_counter()
        svc = _Service(cfg, runner)
        t1 = time.perf_counter()
        # warm-up: one job of two distinct tiny cells makes the pool fork
        # both workers before load arrives
        conn = _Conn(svc.port)
        try:
            warm = [
                {"workload": "HM1", "scheme": "base", "refs": 20, "seed": n}
                for n in range(self.jobs)
            ]
            job = conn.call({"op": "submit", "cells": warm})
            done = conn.call({"op": "wait", "job": job["job"], "timeout": 60})
            if not done.get("ok"):
                raise RuntimeError(f"service warm-up failed: {done}")
        finally:
            conn.close()
        self.setup_parts = {
            "service_start_s": t1 - t0,
            "pool_warmup_s": time.perf_counter() - t1,
        }
        return svc

    def setup(self) -> None:
        self.svc = self._start("serve", execute_cell)

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def _scrape(self, port: int) -> float:
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        if resp.status != 200 or b"repro_" not in body:
            raise RuntimeError(f"GET /metrics answered {resp.status}")
        return time.perf_counter() - t0

    def _client(
        self,
        port: int,
        client: int,
        stop_at: Optional[float],
        limit: Optional[int],
        rec: Optional[SpanRecorder],
        out: List[Outcome],
        cells: Dict[str, Cell],
        scrapes: List[float],
    ) -> None:
        gen = self.specs(client)
        conn = _Conn(port)
        next_scrape = time.perf_counter() + self.scrape_every
        try:
            while (limit is not None and len(out) < limit) or (
                limit is None and time.perf_counter() < stop_at
            ):
                spec, repeat = next(gen)
                cell = cell_from_spec(spec)
                cells[cell.cell_id] = cell
                out.append(self._submit(conn, spec, cell.cell_id, repeat, rec))
                if client == 0 and time.perf_counter() >= next_scrape:
                    next_scrape += self.scrape_every
                    ctx = rec.span("serve.metrics_scrape") if rec else nullcontext()
                    with ctx:
                        scrapes.append(self._scrape(port))
        finally:
            conn.close()

    def _submit(
        self,
        conn: _Conn,
        spec: dict,
        cid: str,
        repeat: bool,
        rec: Optional[SpanRecorder],
    ) -> Outcome:
        def span(name: str) -> Any:
            return rec.span(name, trace=cid) if rec is not None else nullcontext()

        t0 = time.perf_counter()
        with span("serve.request"):
            with span("serve.submit"):
                reply = conn.call({"op": "submit", "cells": [spec]})
            t1 = time.perf_counter()
            if not reply.get("ok"):
                # a 429 ("saturated") or any refusal is a failed operation
                return _fail(cid, f"submit refused: {reply.get('error')}")
            with span("serve.wait"):
                done = conn.call({"op": "wait", "job": reply["job"], "timeout": 120})
        t2 = time.perf_counter()
        entry = done.get("cells", {}).get(cid, {})
        if not done.get("ok") or entry.get("status") != "ok":
            return _fail(cid, f"wait: {done.get('error') or entry.get('error')}")
        summary = entry["summary"]
        return Outcome(
            cell_id=cid,
            ok=True,
            latency=t2 - t0,
            instructions=0 if repeat else sum(summary["core_instructions"]),
            repeat=repeat,
            submit_s=t1 - t0,
            reply=canonical(summary),
        )

    def _load(
        self,
        svc: _Service,
        tag: str,
        stop_after: Optional[float],
        limits: Optional[List[int]],
        recs: Optional[List[SpanRecorder]],
    ) -> Run:
        per_client: List[List[Outcome]] = [[] for _ in range(self.clients)]
        cells: Dict[str, Cell] = {}
        scrapes: List[float] = []
        t0 = time.perf_counter()
        stop_at = t0 + stop_after if stop_after is not None else None
        threads = [
            threading.Thread(
                target=self._client,
                args=(
                    svc.port,
                    c,
                    stop_at,
                    limits[c] if limits is not None else None,
                    recs[c] if recs is not None else None,
                    per_client[c],
                    cells,
                    scrapes,
                ),
            )
            for c in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
        wall = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a client did not finish")
        path = self.tmp / f"{tag}.jsonl"
        t1 = time.perf_counter()
        records = Manifest(path).records()
        records_s = time.perf_counter() - t1
        outcomes: List[Outcome] = []
        summaries: Dict[str, dict] = {}
        for o in (o for submits in per_client for o in submits):
            rec = records.get(o.cell_id)
            if o.ok and (rec is None or not rec.ok or canonical(rec.summary) != o.reply):
                # the reply a client got must equal the merged record (for
                # a repeat: the record of the submit that executed the cell)
                o = _fail(o.cell_id, "reply differs from the merged record")
            if o.ok:
                o.elapsed = rec.elapsed
                summaries[o.cell_id] = rec.summary
            outcomes.append(o)
        pinned = {
            o.cell_id: summaries[o.cell_id]
            for submits in per_client
            for o in submits[: self.pinned_submits]
            if o.cell_id in summaries
        }
        return Run(
            wall=wall,
            outcomes=outcomes,
            summaries=summaries,
            cells=cells,
            digest=cells_digest(pinned),
            scrapes=scrapes,
            merge_s=[s.dur for s in read_spans(path) if s.name == STAGE_MERGE],
            records_s=[records_s],
            per_client=[len(submits) for submits in per_client],
        )

    def timed(self, seconds: float) -> Run:
        if self.svc is None:
            raise RuntimeError("setup() must run before timed()")
        return self._load(self.svc, "serve", seconds, None, None)

    def traced_pair(self, seconds: float) -> Tuple[Run, Run, List[Span]]:
        """Half the time untraced; then the same submits, traced, against a
        fresh service whose workers run the span-recording runner."""
        svc = self._start("untraced", execute_cell)
        try:
            untraced = self._load(svc, "untraced", seconds / 2, None, None)
        finally:
            svc.close()
        span_dir = self.tmp / "spans"
        span_dir.mkdir(exist_ok=True)
        recs = [SpanRecorder() for c in range(self.clients)]
        svc = self._start("traced", functools.partial(traced_cell, span_dir=str(span_dir)))
        try:
            traced = self._load(svc, "traced", None, untraced.per_client, recs)
        finally:
            svc.close()
        mine = [s for r in recs for s in r.spans]
        spans = mine + load_spans(span_dir)
        adopt_roots(spans, mine)
        return untraced, traced, spans


WORKLOADS = {w.name: w for w in (SimSerial, ServeClosed, FabricPool)}


def verify_order(run: Run, seed: int) -> List[str]:
    """Executed cell ids in the seed-shuffled order they are re-checked."""
    ids = sorted(run.summaries)
    random.Random(f"verify/{seed}").shuffle(ids)
    return ids


def verify_sample(run: Run, seed: int, budget_s: float) -> List[Outcome]:
    """Recompute cells in this process until ``budget_s`` is spent (at
    least one cell); each must match the merged summary exactly."""
    out: List[Outcome] = []
    t0 = time.perf_counter()
    for cid in verify_order(run, seed):
        ref = reference_summary(run.cells[cid])
        if canonical(ref) != canonical(run.summaries[cid]):
            out.append(_fail(cid, "differs from the in-process recomputation"))
        else:
            out.append(Outcome(cell_id=cid, ok=True, latency=None))
        if time.perf_counter() - t0 >= budget_s:
            break
    return out


def canary_digest(w: Workload) -> str:
    return cells_digest({c.cell_id: reference_summary(c) for c in w.canary()})
