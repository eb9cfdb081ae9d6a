"""Drive one :class:`VaultController`'s FR-FCFS issue loop directly.

The controller's ``_try_issue`` is the only place the simulator picks a
request: every idle bank with queued work accepts its best candidate, one
slot per iteration, until nothing more can issue.  Each issue pushes one
completion entry ``(finish, -1, seq, _access_done, (req, result))`` onto
the engine heap, so reading those entries back in ``seq`` order gives the
exact issue order of one call - without running the engine.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.schemes import make_prefetcher
from repro.hmc.config import HMCConfig
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.vault.controller import VaultController


def make_vc(nbanks: int = 4, depth: int = 8, read_depth: int = 8) -> VaultController:
    """A prefetch-free controller with ``nbanks`` banks.

    The write-drain watermarks follow the write queue depth: high is
    ``3 * depth // 4`` and low is ``depth // 4``.
    """
    cfg = HMCConfig(
        banks_per_vault=nbanks,
        read_queue_depth=read_depth,
        write_queue_depth=depth,
    )
    return VaultController(
        vault_id=0,
        config=cfg,
        engine=Engine(),
        prefetcher=make_prefetcher("none", 0, cfg),
        respond_fn=lambda req, ready: None,
    )


def req(bank: int = 0, row: int = 0, write: bool = False) -> MemoryRequest:
    r = MemoryRequest(0, write)
    r.bank, r.row = bank, row
    return r


def issue(vc: VaultController, now: Optional[int] = None) -> List[MemoryRequest]:
    """Run one ``_try_issue`` (at cycle ``now``, if given) and return the
    requests it sent to the banks, in issue order."""
    engine = vc.engine
    if now is not None:
        engine.now = now
    seq0 = engine._seq
    vc._try_issue()
    done = vc._access_done
    pushed = sorted(
        (e for e in engine._heap if e[2] > seq0 and len(e) == 5 and e[3] == done),
        key=lambda e: e[2],
    )
    return [e[4][0] for e in pushed]
