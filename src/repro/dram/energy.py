"""Event-count energy model for the HMC.

Figure 9 of the paper reports HMC energy *normalized to the BASE scheme*, so
only relative energy matters and an event-count model is sufficient: each
DRAM command, TSV row transfer, prefetch-buffer access and serial-link flit is
charged a fixed energy, plus a background (static) term proportional to
simulated time.

Per-operation constants are drawn from published HMC/3D-DRAM numbers
(HMC consortium spec 2.1 figures, Woo et al. HPCA'10 TSV studies,
Jeddeloh & Keeth VLSI'12): they need only preserve the *ordering*
ACT/PRE >> row TSV transfer > line read/write > buffer access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable

if TYPE_CHECKING:
    from repro.dram.bank import Bank


@dataclass(frozen=True)
class EnergyParams:
    """Energy per operation, in picojoules, plus background power.

    ``background_pj_per_cycle`` covers refresh, PLL and leakage for the whole
    cube; it is charged once per simulation, not per vault.
    """

    act_pj: float = 900.0  # one row activation (1 KB row)
    pre_pj: float = 350.0  # one precharge
    read_line_pj: float = 160.0  # one 64 B column read burst
    write_line_pj: float = 170.0  # one 64 B column write burst
    row_tsv_pj: float = 640.0  # streaming 1 KB over the vault TSVs
    buffer_access_pj: float = 20.0  # prefetch-buffer (SRAM) line access
    link_flit_pj: float = 48.0  # one 16 B flit over a SerDes link
    refresh_pj: float = 1400.0  # one per-bank REFRESH cycle
    background_pj_per_cycle: float = 1.1

    def __post_init__(self) -> None:
        for name in (
            "act_pj",
            "pre_pj",
            "read_line_pj",
            "write_line_pj",
            "row_tsv_pj",
            "buffer_access_pj",
            "link_flit_pj",
            "refresh_pj",
            "background_pj_per_cycle",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class EnergyModel:
    """Accumulates operation counts and converts them to energy.

    Counts for DRAM commands come from :class:`~repro.dram.bank.Bank`
    counters via :meth:`charge_banks`; buffer and link activity is charged
    directly by the components that produce it.
    """

    def __init__(self, params: EnergyParams | None = None) -> None:
        self.params = params or EnergyParams()
        self.acts = 0
        self.pres = 0
        self.line_reads = 0
        self.line_writes = 0
        self.row_transfers = 0
        self.buffer_accesses = 0
        self.link_flits = 0
        self.refreshes = 0
        self.cycles = 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_banks(self, banks: Iterable[Bank]) -> None:
        """Pull command counts from a set of banks (idempotent only if called
        once per bank; callers charge at end of simulation)."""
        for b in banks:
            self.acts += b.acts
            self.pres += b.pres
            self.line_reads += b.reads + b.prefetch_line_reads
            self.line_writes += b.writes
            self.row_transfers += b.row_fetches + b.row_restores
            self.refreshes += b.refreshes

    def charge_buffer_access(self, count: int = 1) -> None:
        self.buffer_accesses += count

    def charge_link_flits(self, count: int) -> None:
        self.link_flits += count

    def charge_row_transfer(self, count: int = 1) -> None:
        self.row_transfers += count

    def set_cycles(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.cycles = cycles

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def breakdown_pj(self) -> Dict[str, float]:
        """Energy per category in picojoules."""
        p = self.params
        return {
            "activate": self.acts * p.act_pj,
            "precharge": self.pres * p.pre_pj,
            "read": self.line_reads * p.read_line_pj,
            "write": self.line_writes * p.write_line_pj,
            "row_tsv": self.row_transfers * p.row_tsv_pj,
            "buffer": self.buffer_accesses * p.buffer_access_pj,
            "link": self.link_flits * p.link_flit_pj,
            "refresh": self.refreshes * p.refresh_pj,
            "background": self.cycles * p.background_pj_per_cycle,
        }

    def total_pj(self) -> float:
        return sum(self.breakdown_pj().values())

    def dynamic_pj(self) -> float:
        """Energy excluding the background term."""
        b = self.breakdown_pj()
        return self.total_pj() - b["background"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EnergyModel total={self.total_pj():.1f}pJ acts={self.acts}>"
