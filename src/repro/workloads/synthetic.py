"""Synthetic SPEC-like memory trace generation.

A trace is a concatenation of *segments* from two component generators,
mixed by the benchmark profile's weights:

``stream`` - lockstep aliased multi-stream walk
    Real SPEC loops sweep several arrays at once (lbm touches 19 fields per
    lattice site; GemsFDTD updates multiple field arrays in lockstep).
    Contiguously allocated arrays accessed at the same index alias to the
    *same bank* at *different rows*, so the access stream interleaves short
    bursts from ``streams`` different rows of one bank.  Every burst switch
    is a row-buffer conflict, and each row is revisited turn after turn until
    its ``lines_per_visit`` lines are consumed - precisely the
    conflict-then-revisit pattern CAMPS's Conflict Table is built to catch,
    and the high-row-utilization pattern its RUT threshold is built to
    catch.  With ``streams=1`` this degenerates to a pure unit-stride sweep.

``random`` - uniform single-line references
    Pointer chasing (mcf, astar, omnetpp's event lists).  Rows are touched
    once, so whole-row prefetching of this traffic (as BASE does
    unconditionally) wastes internal bandwidth and thrashes the 16-entry
    prefetch buffer, evicting the useful stream rows.

All randomness flows from one ``numpy.random.Generator`` seeded explicitly,
so traces are reproducible bit-for-bit; bulk arrays (gaps, write flags) are
drawn vectorized.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.hmc.address import AddressMapping
from repro.hmc.config import HMCConfig
from repro.workloads.spec import BenchmarkProfile, profile as lookup_profile
from repro.workloads.trace import Trace


class TraceGenerator:
    """Generates one core's reference stream from a benchmark profile."""

    def __init__(
        self,
        prof: Union[str, BenchmarkProfile],
        config: Optional[HMCConfig] = None,
        seed: int = 0,
        core_id: int = 0,
    ) -> None:
        self.profile = lookup_profile(prof) if isinstance(prof, str) else prof
        self.config = config or HMCConfig()
        self.mapping = AddressMapping(self.config)
        self.rng = np.random.default_rng(seed)
        self.core_id = core_id

        cfg = self.config
        # One "row stripe" = one row id across every (vault, bank):
        # vaults * banks * row_bytes of address space.
        self._stripe_lines = cfg.vaults * cfg.banks_per_vault * cfg.lines_per_row
        self.region_rows = max(
            2 * self.profile.streams + 2,
            self.profile.footprint_lines // self._stripe_lines,
        )
        self.row_base = core_id * self.region_rows  # private rows, shared banks

        # Phase locality: a program phase's pages concentrate in a window of
        # vaults (page-granular hot set), which is what creates realistic
        # per-vault queue and prefetch-buffer pressure with only 8 cores.
        self.window = min(self.profile.vault_window, cfg.vaults)
        self._window_base = int(self.rng.integers(0, cfg.vaults))
        # walk position: which (vault, bank, base row) the streams are at
        self._win_idx = 0
        self._pos_bank = int(self.rng.integers(0, cfg.banks_per_vault))
        self._pos_row = 0
        # per-stream column cursors within the current row visit
        self._cols = [0] * self.profile.streams
        # Persistently hot rows (hot program structures): fixed for the
        # trace's whole lifetime, revisited a few lines at a time.
        self._hot = [
            (
                int(self.rng.integers(0, cfg.vaults)),
                int(self.rng.integers(0, cfg.banks_per_vault)),
                self.row_base + int(self.rng.integers(0, self.region_rows)),
            )
            for _ in range(self.profile.hot_rows)
        ]

    # ------------------------------------------------------------------
    # Walk-position bookkeeping
    # ------------------------------------------------------------------
    @property
    def _pos_vault(self) -> int:
        return (self._window_base + self._win_idx) % self.config.vaults

    def _advance_position(self) -> None:
        cfg = self.config
        self._win_idx += 1
        if self._win_idx >= self.window:
            self._win_idx = 0
            self._pos_bank += 1
            if self._pos_bank >= cfg.banks_per_vault:
                self._pos_bank = 0
                self._pos_row = (self._pos_row + 1) % self.region_rows

    def _stream_row(self, j: int) -> int:
        """Row id of stream ``j`` at the current walk position.  Streams are
        spread evenly through the region so they always hit distinct rows of
        the same bank (contiguous arrays aliasing at equal index)."""
        spread = max(1, self.region_rows // self.profile.streams)
        return self.row_base + (self._pos_row + j * spread) % self.region_rows

    # ------------------------------------------------------------------
    # Component generators
    # ------------------------------------------------------------------
    def _segment_stream(self) -> List[int]:
        """One walk position: every stream consumes ``lines_per_visit``
        lines of its row in interleaved bursts."""
        cfg = self.config
        prof = self.profile
        # Occasional locality break (loop boundary / new program phase):
        # the hot vault window moves.
        if self.rng.random() < 0.04:
            self._window_base = int(self.rng.integers(0, cfg.vaults))
            self._win_idx = 0
            self._pos_bank = int(self.rng.integers(0, cfg.banks_per_vault))
            self._pos_row = int(self.rng.integers(0, self.region_rows))
        vault, bank = self._pos_vault, self._pos_bank
        # Each stream row's column-0 address; a line ORs its column in.
        encode = self.mapping.encode
        rows = [encode(vault, bank, self._stream_row(j)) for j in range(prof.streams)]
        cshift = self.mapping.column_shift
        if prof.lines_per_visit >= cfg.lines_per_row:
            # Full-row sweeps consume rows deterministically (a unit-stride
            # array pass touches every line of every row it crosses).
            lpv = cfg.lines_per_row
        else:
            lpv = int(
                np.clip(
                    self.rng.normal(prof.lines_per_visit, 1.5), 1, cfg.lines_per_row
                )
            )
        out: List[int] = []
        turns = -(-lpv // prof.burst)  # ceil
        for turn in range(turns):
            for j, row in enumerate(rows):
                base = self._cols[j]
                for l in range(prof.burst):
                    consumed = turn * prof.burst + l
                    if consumed >= lpv:
                        break
                    col = (base + consumed) % cfg.lines_per_row
                    out.append(row | (col << cshift))
        # Column phase drifts between visits (arrays are not row-aligned).
        for j in range(prof.streams):
            self._cols[j] = (self._cols[j] + lpv) % cfg.lines_per_row
        self._advance_position()
        return out

    def _segment_random(self) -> List[int]:
        """Single-line references: mostly within the phase's hot vault
        window (pointer structures live in the same pages), with a spray of
        truly global references."""
        cfg = self.config
        n = int(self.rng.integers(16, 49))
        rows = self.rng.integers(0, self.region_rows, size=n)
        in_window = self.rng.random(n) < 0.7
        offsets = self.rng.integers(0, self.window, size=n)
        anywhere = self.rng.integers(0, cfg.vaults, size=n)
        vaults = np.where(
            in_window, (self._window_base + offsets) % cfg.vaults, anywhere
        )
        banks = self.rng.integers(0, cfg.banks_per_vault, size=n)
        cols = self.rng.integers(0, cfg.lines_per_row, size=n)
        return self.mapping.encode_many(
            vaults, banks, self.row_base + rows, cols
        ).tolist()

    def _segment_hot(self) -> List[int]:
        """Revisit a few persistently hot rows, a handful of lines each.

        These rows accumulate utilization across the whole run - the traffic
        class for which CAMPS-MOD's utilization-aware replacement retains
        rows that plain LRU loses under pollution floods."""
        cfg = self.config
        out: List[int] = []
        k = int(self.rng.integers(1, min(4, len(self._hot) + 1)))
        picks = self.rng.choice(len(self._hot), size=k, replace=False)
        cshift = self.mapping.column_shift
        for i in picks:
            row_addr = self.mapping.encode(*self._hot[int(i)])
            start = int(self.rng.integers(0, cfg.lines_per_row))
            n = int(self.rng.integers(2, 5))
            for step in range(n):
                col = (start + step) % cfg.lines_per_row
                out.append(row_addr | (col << cshift))
        return out

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def generate(self, n_refs: int) -> Trace:
        """Produce a trace of exactly ``n_refs`` references."""
        if n_refs < 1:
            raise ValueError("n_refs must be >= 1")
        prof = self.profile
        probs = np.array(prof.weights)
        segments = (self._segment_stream, self._segment_random, self._segment_hot)

        addrs: List[int] = []
        while len(addrs) < n_refs:
            which = int(self.rng.choice(3, p=probs))
            addrs.extend(segments[which]())
        addr_arr = np.array(addrs[:n_refs], dtype=np.int64)

        # Instruction gaps: geometric with the profile's mean (so the trace's
        # MPKI matches the profile), writes: Bernoulli.
        mean_gap = prof.mean_gap
        p = 1.0 / (mean_gap + 1.0)
        gaps = self.rng.geometric(p, size=n_refs).astype(np.int64) - 1
        writes = self.rng.random(n_refs) < prof.write_frac

        return Trace(
            gaps=gaps,
            addrs=addr_arr,
            writes=writes,
            name=f"{prof.name}.c{self.core_id}",
            meta={"mpki_target": prof.mpki, "seed_core": float(self.core_id)},
        )


def generate_trace(
    prof: Union[str, BenchmarkProfile],
    n_refs: int,
    seed: int = 0,
    config: Optional[HMCConfig] = None,
    core_id: int = 0,
) -> Trace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(prof, config=config, seed=seed, core_id=core_id).generate(
        n_refs
    )
