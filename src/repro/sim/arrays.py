"""Shared NumPy state-array layer for the simulation kernel.

Two consumers need *wide* scans over kernel state - scans whose working
set is every bank in the device (or every record in a trace), not the two
or three objects a single request touches:

* the trace replay loop retires hundreds of thousands of records whose
  per-record arithmetic (cycle bump, retire count) is a pure function of
  the trace - :func:`replay_tables` precomputes it vectorized at build
  time so the replay loop pays one list index where it used to pay a
  ceil-division and two adds per record;
* the observability tick (``repro.obs.timeseries``) folds every bank's
  row-buffer outcome counters into per-vault conflict rates each epoch -
  :class:`BankArrays` gathers the 512-bank counters in one fused pass and
  hands the arithmetic to NumPy.

The per-request hot paths (FR-FCFS pick, bank FSM timing) deliberately do
**not** route through NumPy: their scan sets are tiny (the banks with
queued work - typically one to four), and a vectorized op over a 16-wide
array costs more in NumPy dispatch than the whole scalar scan.  The
scalar inlined scans in ``repro.vault`` are the only implementation of
those.

Everything here is read-only with respect to simulation state: gathers
copy scalars out of the live objects, so using (or not using) this layer
can never perturb event order or result digests.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

__all__ = ["replay_tables", "BankArrays"]


def replay_tables(gaps: Any, issue_width: int) -> Tuple[List[int], List[int]]:
    """Vectorized precompute of the per-record replay arithmetic.

    Returns ``(cycle_bumps, retire_counts)`` as plain lists (scalar NumPy
    indexing boxes a fresh scalar per read; list indexing does not):

    * ``cycle_bumps[i]`` - cycles the core front-end needs to issue the
      ``gaps[i]`` non-memory instructions before record ``i`` plus the
      record itself: ``ceil(gaps[i] / issue_width)``.
    * ``retire_counts[i]`` - total instructions retired once record ``i``
      commits: ``cumsum(gaps + 1)[i]``.
    """
    if issue_width < 1:
        raise ValueError("issue_width must be >= 1")
    g = np.asarray(gaps, dtype=np.int64)
    bumps = -((-g) // issue_width)
    retire = np.cumsum(g + 1)
    return bumps.tolist(), retire.tolist()


class BankArrays:
    """Fused NumPy snapshot of every bank's row-buffer outcome counters.

    One :meth:`refresh_outcomes` walks all banks exactly once and refills
    the preallocated arrays in place; :meth:`vault_outcome_sums` is then
    vectorized.  The arrays are snapshots - refresh again after simulation
    state may have moved.
    """

    __slots__ = (
        "banks",
        "nvaults",
        "banks_per_vault",
        "hits",
        "empties",
        "conflicts",
    )

    def __init__(self, vaults: List[Any]) -> None:
        if not vaults:
            raise ValueError("need at least one vault")
        self.nvaults = len(vaults)
        self.banks: List[Any] = [b for vc in vaults for b in vc.banks]
        self.banks_per_vault = len(vaults[0].banks)
        n = len(self.banks)
        self.hits = np.zeros(n, dtype=np.int64)
        self.empties = np.zeros(n, dtype=np.int64)
        self.conflicts = np.zeros(n, dtype=np.int64)
        self.refresh_outcomes()

    def refresh_outcomes(self) -> None:
        """One fused gather pass: refill the outcome counters
        (hits/empties/conflicts) from the live banks."""
        # A single listcomp per field keeps the Python-level work at one
        # attribute read per bank per field with the loop body in C.
        banks = self.banks
        self.hits[:] = [b.hits for b in banks]
        self.empties[:] = [b.empties for b in banks]
        self.conflicts[:] = [b.conflicts for b in banks]

    def vault_outcome_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(conflicts, total_accesses)`` summed per vault - the conflict
        accounting the timeseries tick consumes."""
        shape = (self.nvaults, self.banks_per_vault)
        conf = self.conflicts.reshape(shape).sum(axis=1)
        acc = conf + self.hits.reshape(shape).sum(axis=1)
        acc = acc + self.empties.reshape(shape).sum(axis=1)
        return conf, acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BankArrays vaults={self.nvaults} "
            f"banks={len(self.banks)}>"
        )
