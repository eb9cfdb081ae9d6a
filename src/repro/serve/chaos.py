"""Chaos primitives for the campaign service, plus a headless node entry.

Every primitive here injects exactly one failure shape the service claims to
survive; the chaos suite (``tests/test_serve_chaos.py``) composes them and
asserts convergence — zero lost cells, zero double-merged cells, and a
merged matrix digest byte-identical to an undisturbed serial run.

Injectors
---------
* :func:`kill_worker` / :func:`kill_random_worker` — SIGKILL a pool worker
  mid-cell (the executor's crash containment + the scheduler's requeue).
* :func:`kill_process` — SIGKILL an entire scheduler node (work stealing:
  survivors expire the orphan leases and re-run the cells).
* :func:`tear_manifest` — append a torn (no-newline, truncated JSON) line,
  as a crash mid-append would leave.
* :func:`duplicate_manifest_lines` — re-append existing records verbatim
  (multi-writer races, replayed NFS writes); last-wins merge must hold.
* :func:`enospc_manifest` — make a manifest's appends raise ``ENOSPC`` for
  the next N calls (a context manager; in-process nodes only).
* :func:`drop_connection` — open a socket to the service, send a partial
  request, and vanish.

Headless node mode
------------------
``python -m repro.serve.chaos node <manifest> ...`` runs a
:class:`~repro.serve.server.ServeScheduler` with no HTTP listener against
an existing manifest until every seeded/claimed cell is terminal.  The
chaos tests launch a small fleet of these against one manifest and kill
them at random; ``seed`` mode writes the initial expired claims that make
the manifest itself the work queue.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import random
import signal
import socket
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro.campaign.manifest import Manifest


# ----------------------------------------------------------------------
# Process-level injectors
# ----------------------------------------------------------------------


def kill_worker(pid: int) -> bool:
    """SIGKILL one worker process; True if the signal was delivered."""
    try:
        os.kill(pid, signal.SIGKILL)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def kill_random_worker(pids: Sequence[int], rng: random.Random) -> Optional[int]:
    """SIGKILL one of ``pids`` chosen by ``rng``; returns the victim."""
    live = [p for p in pids if p]
    if not live:
        return None
    victim = rng.choice(live)
    return victim if kill_worker(victim) else None


def kill_process(pid: int) -> bool:
    """SIGKILL a whole scheduler node (no drain, nothing released)."""
    return kill_worker(pid)


# ----------------------------------------------------------------------
# Manifest corruption
# ----------------------------------------------------------------------


def tear_manifest(path: str, rng: Optional[random.Random] = None) -> str:
    """Append a torn line — a crash mid-append.  Returns the torn text."""
    rng = rng or random.Random(0)
    victims = [
        '{"kind":"claim","cell_id":"torn","worker":"t","gen":9,"clo',
        '{"cell_id":"torn-cell","workload":"HM1","sch',
        '{"kind":"tick","worker":"t","clo',
    ]
    torn = rng.choice(victims)
    with open(path, "a") as fh:
        fh.write(torn)  # no newline: exactly what a crash leaves behind
    return torn


def duplicate_manifest_lines(
    path: str, rng: random.Random, count: int = 2
) -> int:
    """Re-append up to ``count`` random existing complete lines verbatim."""
    try:
        with open(path) as fh:
            lines = [
                ln
                for ln in fh.read().splitlines()
                if ln.strip() and not ln.startswith('{"kind": "header"')
            ]
    except OSError:
        return 0
    if not lines:
        return 0
    picked = [rng.choice(lines) for _ in range(count)]
    with open(path, "a") as fh:
        for ln in picked:
            fh.write(ln + "\n")
    return len(picked)


@contextmanager
def enospc_manifest(manifest: Manifest, failures: int = 3) -> Iterator[List[int]]:
    """Make the next ``failures`` appends on this manifest raise ENOSPC.

    Yields a single-element list whose value counts the failures actually
    injected (so a test can assert the fault path really fired).
    """
    remaining = [failures]
    fired = [0]
    real = manifest._append_line

    def flaky(payload: dict, durable: bool) -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            fired[0] += 1
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        real(payload, durable)

    manifest._append_line = flaky  # type: ignore[method-assign]
    try:
        yield fired
    finally:
        manifest._append_line = real  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Network chaos
# ----------------------------------------------------------------------


def drop_connection(host: str, port: int, payload: bytes = b"POST /submit HTTP/1.1\r\nContent-Length: 9999\r\n\r\n{\"cells\"") -> None:
    """Open a connection, send a partial request, and hang up."""
    try:
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(payload)
            # abortive close: RST instead of FIN, the rudest disconnect
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
    except OSError:
        pass


# ----------------------------------------------------------------------
# Headless fleet node (subprocess entry)
# ----------------------------------------------------------------------


def seed_manifest(manifest_path: str, specs: List[dict], reset: bool = True) -> int:
    """Write expired seed claims for every spec; the manifest becomes the
    fleet's work queue.  Returns the number of cells seeded.

    Each seed claim carries a fresh trace id, so the span timeline of a
    fleet run connects from seeding through every steal and re-execution.
    """
    from repro.obs.spans import mint_trace_id
    from repro.serve.jobs import cell_from_spec
    from repro.serve.steal import WorkQueue

    manifest = Manifest(manifest_path)
    if reset or not manifest.path.exists():
        manifest.reset(meta={"serve": True, "seeded": len(specs)})
    queue = WorkQueue(manifest, "seed")
    queue.attach()
    triples = []
    for spec in specs:
        cell = cell_from_spec(spec)
        triples.append((cell.cell_id, spec, mint_trace_id()))
    queue.seed(triples)
    return len(triples)


def run_node(
    manifest_path: str,
    jobs: int = 1,
    name: Optional[str] = None,
    tick_interval: float = 0.1,
    lease_ticks: int = 20,
    use_cache: bool = False,
) -> int:
    """Run one headless scheduler until the shared queue is complete."""
    from repro.serve.server import ServeConfig, ServeScheduler

    async def _main() -> int:
        import asyncio

        cfg = ServeConfig(
            manifest=manifest_path,
            jobs=jobs,
            resume=True,
            worker_name=name,
            tick_interval=tick_interval,
            lease_ticks=lease_ticks,
            use_cache=use_cache,
            telemetry=True,
            exit_when_complete=True,
        )
        node = ServeScheduler(cfg)
        await node.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, node.begin_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        await node.stopped.wait()
        return 0

    import asyncio

    return asyncio.run(_main())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="chaos-harness helpers: headless nodes and fault injectors",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_node = sub.add_parser("node", help="run a headless work-stealing node")
    p_node.add_argument("manifest")
    p_node.add_argument("--jobs", type=int, default=1)
    p_node.add_argument("--name", default=None)
    p_node.add_argument("--tick-interval", type=float, default=0.1)
    p_node.add_argument("--lease-ticks", type=int, default=20)
    p_seed = sub.add_parser("seed", help="seed a manifest with cell claims")
    p_seed.add_argument("manifest")
    p_seed.add_argument("specs", help="JSON list of cell specs (or '-' for stdin)")
    args = parser.parse_args(argv)
    if args.cmd == "node":
        return run_node(
            args.manifest,
            jobs=args.jobs,
            name=args.name,
            tick_interval=args.tick_interval,
            lease_ticks=args.lease_ticks,
        )
    if args.cmd == "seed":
        raw = sys.stdin.read() if args.specs == "-" else args.specs
        specs = json.loads(raw)
        n = seed_manifest(args.manifest, specs)
        print(f"seeded {n} cells into {args.manifest}")
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
