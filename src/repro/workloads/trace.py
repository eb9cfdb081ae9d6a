"""Memory trace container and statistics.

A :class:`Trace` is three parallel NumPy arrays: instruction gaps between
memory references, byte addresses, and write flags.  Traces can round-trip
through ``.npz`` files so expensive generations can be reused, and
:func:`trace_stats` summarizes the memory-side character (MPKI, row reuse,
row utilization) that the synthetic generators are calibrated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.hmc.address import AddressMapping
from repro.hmc.config import HMCConfig


@dataclass
class Trace:
    """One core's memory reference stream.

    ``gaps[i]`` is the number of non-memory instructions executed before
    reference ``i``; the implied instruction count is
    ``gaps.sum() + len(gaps)`` (each reference is itself one instruction).
    """

    gaps: np.ndarray
    addrs: np.ndarray
    writes: np.ndarray
    name: str = "trace"
    meta: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.gaps = np.asarray(self.gaps, dtype=np.int64)
        self.addrs = np.asarray(self.addrs, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=bool)
        if not (len(self.gaps) == len(self.addrs) == len(self.writes)):
            raise ValueError("trace arrays must have equal length")
        if len(self.gaps) and self.gaps.min() < 0:
            raise ValueError("gaps must be non-negative")
        if len(self.addrs) and self.addrs.min() < 0:
            raise ValueError("addresses must be non-negative")

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def instructions(self) -> int:
        """Total instructions implied by the trace."""
        return int(self.gaps.sum()) + len(self.gaps)

    @property
    def mpki(self) -> float:
        """Memory references per kilo-instruction."""
        n = self.instructions
        return 1000.0 * len(self) / n if n else 0.0

    @property
    def write_fraction(self) -> float:
        return float(self.writes.mean()) if len(self) else 0.0

    def head(self, n: int) -> "Trace":
        """First ``n`` references (for quick tests)."""
        return Trace(
            self.gaps[:n], self.addrs[:n], self.writes[:n], self.name, dict(self.meta)
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        np.savez_compressed(
            Path(path),
            gaps=self.gaps,
            addrs=self.addrs,
            writes=self.writes,
            name=np.array(self.name),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        with np.load(Path(path)) as data:
            return cls(
                gaps=data["gaps"],
                addrs=data["addrs"],
                writes=data["writes"],
                name=str(data["name"]),
            )

    def save_text(self, path: Union[str, Path]) -> None:
        """Write the interchange text format: one reference per line,
        ``<gap> <hex address> <R|W>``, ``#`` comments allowed."""
        with Path(path).open("w") as fh:
            fh.write(f"# trace {self.name}: gap addr R|W\n")
            for g, a, w in zip(self.gaps, self.addrs, self.writes):
                fh.write(f"{g} 0x{a:x} {'W' if w else 'R'}\n")

    @classmethod
    def load_text(cls, path: Union[str, Path], name: str = "text-trace") -> "Trace":
        """Read the interchange text format (tools like DRAM trace dumpers
        emit this shape; see :meth:`save_text`)."""
        gaps, addrs, writes = [], [], []
        with Path(path).open() as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[2].upper() not in ("R", "W"):
                    raise ValueError(
                        f"{path}:{lineno}: expected '<gap> <addr> <R|W>', "
                        f"got {raw.rstrip()!r}"
                    )
                gaps.append(int(parts[0]))
                addrs.append(int(parts[1], 0))
                writes.append(parts[2].upper() == "W")
        if not gaps:
            raise ValueError(f"{path}: empty trace")
        return cls(np.array(gaps), np.array(addrs), np.array(writes), name=name)

    def __repr__(self) -> str:
        return f"<Trace {self.name} n={len(self)} mpki={self.mpki:.1f}>"


def trace_stats(
    trace: Trace, config: Optional[HMCConfig] = None
) -> Dict[str, float]:
    """Memory-side character of a trace (vectorized).

    Returns MPKI, write fraction, footprint, distinct-row count, mean
    distinct lines touched per row (row utilization - the RUT's signal), and
    the fraction of successive same-bank references that switch rows (a
    proxy for row-buffer conflict propensity - the CT's signal).
    """
    cfg = config or HMCConfig()
    m = AddressMapping(cfg)
    if len(trace) == 0:
        raise ValueError("cannot summarize an empty trace")
    vault, bank, row, column = m.decode_many(trace.addrs)
    # global row identity: (vault, bank, row) packed into one integer
    bank_id = vault * cfg.banks_per_vault + bank
    row_id = bank_id.astype(np.int64) * (int(row.max()) + 1) + row
    distinct_rows = len(np.unique(row_id))
    # distinct lines per row
    line_id = row_id * cfg.lines_per_row + column
    distinct_lines = len(np.unique(line_id))
    util_per_row = distinct_lines / distinct_rows

    # conflict propensity: per bank, fraction of consecutive accesses that
    # change row (sort by bank, stable, then compare neighbours)
    order = np.argsort(bank_id, kind="stable")
    b_sorted = bank_id[order]
    r_sorted = row_id[order]
    same_bank = b_sorted[1:] == b_sorted[:-1]
    switches = (r_sorted[1:] != r_sorted[:-1]) & same_bank
    n_same = int(same_bank.sum())
    row_switch_rate = float(switches.sum()) / n_same if n_same else 0.0

    return {
        "refs": float(len(trace)),
        "instructions": float(trace.instructions),
        "mpki": trace.mpki,
        "write_fraction": trace.write_fraction,
        "footprint_bytes": float(distinct_lines * cfg.line_bytes),
        "distinct_rows": float(distinct_rows),
        "lines_per_row": util_per_row,
        "row_switch_rate": row_switch_rate,
    }
